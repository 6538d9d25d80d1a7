// Text serialization of sequence databases.
//
// Format (one sequence per line):
//   # comment lines and blank lines are ignored
//   X6Y3 X7Y2 ^ X5Y3
// Symbols are whitespace-separated tokens; "^" denotes the marking symbol Δ
// (Alphabet::DeltaToken()). The format round-trips sanitized databases.
//
// Two reading modes (ReadOptions::mode):
//   * strict (default)  — the first malformed line fails the whole read
//     with Corruption, naming the line and column. For pipelines where a
//     bad input should stop the run before any work happens.
//   * lenient           — malformed lines are skipped and counted; the
//     ReadReport carries the totals plus the first few errors verbatim.
//     For large real-world exports where a handful of damaged rows must
//     not abort an hours-long job.
// "Malformed" means: a token longer than max_token_chars, more than
// max_line_symbols symbols on one line, or a non-whitespace control
// character. Skipped lines intern nothing, so a lenient read's alphabet
// is identical to a strict read of the same file with the bad lines
// removed.

#ifndef SEQHIDE_SEQ_IO_H_
#define SEQHIDE_SEQ_IO_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/seq/database.h"
#include "src/seq/view.h"

namespace seqhide {

enum class InputMode {
  kStrict,   // first malformed line => Corruption with line/column
  kLenient,  // malformed lines are skipped and reported
};

struct ReadOptions {
  InputMode mode = InputMode::kStrict;
  // A line with more symbols than this is malformed (guards against a
  // missing-newline export collapsing a whole file into one sequence).
  size_t max_line_symbols = size_t{1} << 20;
  // A token longer than this is malformed (no real alphabet has 4 KiB
  // symbol names; such tokens are binary junk or undelimited blobs).
  size_t max_token_chars = 4096;
  // At most this many errors keep their full text in ReadReport::errors;
  // the rest are only counted. Keeps a pathological file from turning
  // the error log itself into a memory problem.
  size_t max_logged_errors = 10;
};

struct ReadError {
  size_t line = 0;    // 1-based
  size_t column = 0;  // 1-based byte offset in the line
  std::string message;
};

struct ReadReport {
  // Data lines seen (blank/comment lines are not counted).
  size_t lines_total = 0;
  // Lenient mode: malformed lines dropped.
  size_t lines_skipped = 0;
  // Total malformed-line errors encountered (>= errors.size()).
  size_t errors_total = 0;
  // First max_logged_errors errors, in file order.
  std::vector<ReadError> errors;
};

// Parses a database from a stream / file / string. Unknown symbols are
// interned; a Δ token becomes a marked position. `report` (optional) is
// overwritten with what happened; in strict mode it is still filled up
// to the failing line.
Result<SequenceDatabase> ReadDatabase(std::istream& in,
                                      const ReadOptions& opts,
                                      ReadReport* report = nullptr);
Result<SequenceDatabase> ReadDatabaseFromFile(const std::string& path,
                                              const ReadOptions& opts,
                                              ReadReport* report = nullptr);
Result<SequenceDatabase> ReadDatabaseFromString(const std::string& text,
                                                const ReadOptions& opts,
                                                ReadReport* report = nullptr);

// Strict-mode shorthands (the original API).
Result<SequenceDatabase> ReadDatabase(std::istream& in);
Result<SequenceDatabase> ReadDatabaseFromFile(const std::string& path);
Result<SequenceDatabase> ReadDatabaseFromString(const std::string& text);

// Serializes `db` (including Δ marks) in the format above. The
// DatabaseView overloads are the one writer: they serve in-memory,
// mapped, and overlaid (sanitized) views alike, and own the io.db.write*
// fault sites; the SequenceDatabase overloads adapt onto them.
Status WriteDatabase(const DatabaseView& db, std::ostream& out);
Status WriteDatabase(const SequenceDatabase& db, std::ostream& out);
Status WriteDatabaseToFile(const DatabaseView& db, const std::string& path);
Status WriteDatabaseToFile(const SequenceDatabase& db,
                           const std::string& path);
std::string WriteDatabaseToString(const SequenceDatabase& db);

// Parses "strict" / "lenient" (the CLI's --input-mode values).
Result<InputMode> ParseInputMode(const std::string& text);

}  // namespace seqhide

#endif  // SEQHIDE_SEQ_IO_H_
