#include "src/seq/io.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/common/string_util.h"

namespace seqhide {
namespace {

inline bool IsAsciiSpace(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// Non-whitespace control characters have no place in a symbol name; they
// are the signature of binary data fed to the text reader.
inline bool IsForbiddenControl(unsigned char c) {
  return (c < 0x20 && !IsAsciiSpace(c)) || c == 0x7f;
}

struct LineIssue {
  size_t column = 0;  // 1-based byte offset into the original line
  std::string message;
};

// Tokenizes one trimmed data line, validating as it goes. On success the
// token views (into `line`) are appended to *tokens; on failure returns
// the first issue and leaves *tokens unusable. `offset` is where the
// trimmed view starts inside the original line, for column numbers.
std::optional<LineIssue> TokenizeLine(std::string_view trimmed, size_t offset,
                                      const ReadOptions& opts,
                                      std::vector<std::string_view>* tokens) {
  size_t i = 0;
  while (i < trimmed.size()) {
    if (IsAsciiSpace(static_cast<unsigned char>(trimmed[i]))) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < trimmed.size() &&
           !IsAsciiSpace(static_cast<unsigned char>(trimmed[i]))) {
      const unsigned char c = static_cast<unsigned char>(trimmed[i]);
      if (IsForbiddenControl(c)) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "0x%02x", c);
        return LineIssue{offset + i + 1,
                         std::string("control character ") + buf +
                             " inside a symbol token"};
      }
      ++i;
    }
    const size_t len = i - start;
    if (len > opts.max_token_chars) {
      return LineIssue{offset + start + 1,
                       "token of " + std::to_string(len) +
                           " chars exceeds max_token_chars (" +
                           std::to_string(opts.max_token_chars) + ")"};
    }
    if (tokens->size() >= opts.max_line_symbols) {
      return LineIssue{offset + start + 1,
                       "line exceeds max_line_symbols (" +
                           std::to_string(opts.max_line_symbols) + ")"};
    }
    tokens->push_back(trimmed.substr(start, len));
  }
  if (tokens->empty()) {
    // Unreachable for a trimmed non-empty line, but kept as a safety net
    // so a future tokenizer change cannot silently admit empty sequences.
    return LineIssue{offset + 1, "sequence with no symbols"};
  }
  return std::nullopt;
}

}  // namespace

Result<InputMode> ParseInputMode(const std::string& text) {
  if (text == "strict") return InputMode::kStrict;
  if (text == "lenient") return InputMode::kLenient;
  return Status::InvalidArgument("unknown input mode \"" + text +
                                 "\" (expected strict or lenient)");
}

Result<SequenceDatabase> ReadDatabase(std::istream& in,
                                      const ReadOptions& opts,
                                      ReadReport* report) {
  ReadReport local;
  ReadReport& rep = report != nullptr ? *report : local;
  rep = ReadReport{};

  if (SEQHIDE_FAULT_HIT("io.db.read")) {
    return Status::IOError("injected fault: io.db.read");
  }

  SequenceDatabase db;
  std::string line;
  size_t line_no = 0;
  std::vector<std::string_view> tokens;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    ++rep.lines_total;
    const size_t offset =
        static_cast<size_t>(trimmed.data() - line.data());
    tokens.clear();
    std::optional<LineIssue> issue =
        TokenizeLine(trimmed, offset, opts, &tokens);
    if (issue) {
      ++rep.errors_total;
      if (opts.mode == InputMode::kStrict) {
        return Status::Corruption("line " + std::to_string(line_no) +
                                  ", column " +
                                  std::to_string(issue->column) + ": " +
                                  issue->message);
      }
      ++rep.lines_skipped;
      if (rep.errors.size() < opts.max_logged_errors) {
        rep.errors.push_back(
            ReadError{line_no, issue->column, std::move(issue->message)});
      }
      continue;
    }
    // Interning happens only after the whole line validated, so skipped
    // lines leave no trace in the alphabet.
    Sequence seq;
    for (std::string_view token : tokens) {
      if (token == Alphabet::DeltaToken()) {
        seq.Append(kDeltaSymbol);
      } else {
        seq.Append(db.alphabet().Intern(token));
      }
    }
    db.Add(std::move(seq));
  }
  if (in.bad()) return Status::IOError("stream read failure");
  return db;
}

Result<SequenceDatabase> ReadDatabaseFromFile(const std::string& path,
                                              const ReadOptions& opts,
                                              ReadReport* report) {
  if (SEQHIDE_FAULT_HIT("io.db.open")) {
    return Status::IOError("injected fault: io.db.open (" + path + ")");
  }
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadDatabase(in, opts, report);
}

Result<SequenceDatabase> ReadDatabaseFromString(const std::string& text,
                                                const ReadOptions& opts,
                                                ReadReport* report) {
  std::istringstream in(text);
  return ReadDatabase(in, opts, report);
}

Result<SequenceDatabase> ReadDatabase(std::istream& in) {
  return ReadDatabase(in, ReadOptions{});
}

Result<SequenceDatabase> ReadDatabaseFromFile(const std::string& path) {
  return ReadDatabaseFromFile(path, ReadOptions{});
}

Result<SequenceDatabase> ReadDatabaseFromString(const std::string& text) {
  return ReadDatabaseFromString(text, ReadOptions{});
}

Status WriteDatabase(const DatabaseView& db, std::ostream& out) {
  if (SEQHIDE_FAULT_HIT("io.db.write")) {
    return Status::IOError("injected fault: io.db.write");
  }
  const Alphabet& alphabet = db.alphabet();
  out << "# seqhide sequence database; |D|=" << db.size()
      << " |Sigma|=" << alphabet.size() << "\n";
  std::string line;
  for (size_t t = 0; t < db.size(); ++t) {
    const SequenceView row = db.row(t);
    line.clear();
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += ' ';
      line += alphabet.Name(row[i]);
    }
    line += '\n';
    out << line;
  }
  if (!out) return Status::IOError("stream write failure");
  return Status::OK();
}

Status WriteDatabase(const SequenceDatabase& db, std::ostream& out) {
  return WriteDatabase(DatabaseView(db), out);
}

Status WriteDatabaseToFile(const DatabaseView& db, const std::string& path) {
  if (SEQHIDE_FAULT_HIT("io.db.write.open")) {
    return Status::IOError("injected fault: io.db.write.open (" + path + ")");
  }
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteDatabase(db, out);
}

Status WriteDatabaseToFile(const SequenceDatabase& db,
                           const std::string& path) {
  return WriteDatabaseToFile(DatabaseView(db), path);
}

std::string WriteDatabaseToString(const SequenceDatabase& db) {
  std::ostringstream out;
  Status s = WriteDatabase(db, out);
  (void)s;  // string streams cannot fail
  return out.str();
}

}  // namespace seqhide
