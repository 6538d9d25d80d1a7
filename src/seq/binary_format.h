// seqhidb: a versioned, mmap-able binary sequence-database format.
//
// The text format (src/seq/io.h) is the import path; seqhidb is the
// serving path. A file holds one header plus nine 8-byte-aligned
// sections: the interned alphabet (offsets + concatenated names) and
// columnar sequence storage (one flat symbol array + a row-offset table)
// fill sections 0-3. Sections 4-8 held per-symbol posting lists and a
// pattern-prefix index in version 1; no query reads them (queries screen
// rows by their symbol signatures, src/seq/signature.h), so the version 2
// writer leaves them empty. The reader accepts both versions through one
// header parser: on a v1 file the index sections are covered by
// VerifyChecksums() but never parsed. Every integer is little-endian; the
// header and every section carry an FNV-1a-64 checksum; the header pins
// an explicit version and endianness tag.
//
// MappedDatabase::OpenMapped validates the header, the section-table
// geometry, and the alphabet — O(header + |Σ|) work, independent of the
// number of rows — then serves rows as zero-copy SequenceViews straight
// out of the mapping. Because the mapping is MAP_SHARED/PROT_READ, all
// processes reading one file share one set of physical pages. Row
// offsets are *not* validated at open (that would be O(|D|)); row()
// clamps them so access is always memory-safe; ValidateRows() checks the
// rows structurally, and ToDatabase() / VerifyChecksums() validate on
// demand (the latter the full O(file) checksum pass).
//
// The complete byte-level layout is specified in docs/binary-format.md.

#ifndef SEQHIDE_SEQ_BINARY_FORMAT_H_
#define SEQHIDE_SEQ_BINARY_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/seq/database.h"
#include "src/seq/mmap_file.h"
#include "src/seq/view.h"

namespace seqhide {

// "SEQHIDB\0" — the first eight bytes of every seqhidb file.
inline constexpr unsigned char kBinaryMagic[8] = {'S', 'E', 'Q', 'H',
                                                  'I', 'D', 'B', '\0'};
// The version the writer emits; the reader accepts 1 through this.
inline constexpr uint32_t kBinaryFormatVersion = 2;
// Stored in the header as written; a byte-swapped value on read means the
// file was produced on (or mangled for) a big-endian machine.
inline constexpr uint32_t kBinaryEndianTag = 0x1A2B3C4Du;
inline constexpr size_t kBinaryNumSections = 9;
// 64 fixed bytes + 9 section descriptors of 24 bytes + 8-byte header FNV.
inline constexpr size_t kBinaryHeaderBytes =
    64 + kBinaryNumSections * 24 + 8;

// Section indexes in the header's section table (file order).
enum BinarySectionId : size_t {
  kSecAlphaOffsets = 0,   // (|Σ|+1) × u64 byte offsets into alpha_names
  kSecAlphaNames = 1,     // concatenated UTF-8 symbol names
  kSecRowOffsets = 2,     // (|D|+1) × u64 symbol-index offsets into columns
  kSecColumns = 3,        // num_symbols × i32 symbol ids (Δ = -1)
  // Sections 4-8 are the v1 posting and prefix indexes: empty in v2,
  // checksummed but never parsed in v1.
  kSecFirstV1Index = 4,
};

struct BinarySection {
  uint64_t offset = 0;  // absolute byte offset; 8-aligned
  uint64_t bytes = 0;
  uint64_t fnv = 0;  // FNV-1a-64 of the section's bytes
};

struct BinaryHeader {
  uint32_t version = 0;
  uint64_t file_bytes = 0;
  uint64_t num_rows = 0;
  uint64_t num_symbols = 0;  // total symbols across rows, Δ included
  uint64_t alphabet_size = 0;
  BinarySection sections[kBinaryNumSections];
  uint64_t header_fnv = 0;
};

// Serializes `db` as a seqhidb image of version kBinaryFormatVersion.
// Deterministic: equal databases produce byte-identical images.
Result<std::string> WriteBinaryDatabaseToString(const SequenceDatabase& db);

// Writes atomically: <path>.tmp, fsync, then rename (plus a best-effort
// directory fsync). The destination is either the complete new file or
// whatever was there before — never a torn write — across both process
// crashes and power loss.
Status WriteBinaryDatabaseToFile(const SequenceDatabase& db,
                                 const std::string& path);

// True if the buffer starts with the seqhidb magic (format sniffing for
// --db-format auto; a positive does not imply the file is valid).
bool LooksLikeBinaryDatabase(const unsigned char* data, size_t size);
// Reads the first bytes of `path`; NotFound/IOError surface as-is.
Result<bool> FileLooksLikeBinaryDatabase(const std::string& path);

struct MappedOpenOptions {
  // When true, OpenMapped/FromBuffer additionally run VerifyChecksums()
  // — full O(file) integrity + structural validation — before returning.
  bool verify_checksums = false;
};

// A read-only sequence database served from a seqhidb image without
// materializing rows. Rows are zero-copy pointers into the mapping.
class MappedDatabase {
 public:
  MappedDatabase(MappedDatabase&&) noexcept = default;
  MappedDatabase& operator=(MappedDatabase&&) noexcept = default;
  MappedDatabase(const MappedDatabase&) = delete;
  MappedDatabase& operator=(const MappedDatabase&) = delete;

  // Maps `path` and validates header + alphabet. O(header + |Σ|): the
  // open cost does not grow with the number of rows.
  static Result<MappedDatabase> OpenMapped(const std::string& path,
                                           const MappedOpenOptions& opts = {});

  // Same validation over an in-memory image (copied into owned aligned
  // storage); used by tests, fuzzing, and streaming receivers.
  static Result<MappedDatabase> FromBuffer(const std::string& bytes,
                                           const MappedOpenOptions& opts = {});

  const BinaryHeader& header() const { return header_; }
  size_t size() const { return static_cast<size_t>(header_.num_rows); }
  bool empty() const { return header_.num_rows == 0; }
  size_t total_symbols() const {
    return static_cast<size_t>(header_.num_symbols);
  }
  size_t file_bytes() const { return size_; }
  const Alphabet& alphabet() const { return alphabet_; }

  // Row `t` as a zero-copy view. Offsets are clamped to the column
  // section (corrupt offsets yield a truncated or empty view, never an
  // out-of-bounds read); `t` must be < size().
  SequenceView row(size_t t) const {
    uint64_t begin = row_offsets_[t];
    uint64_t end = row_offsets_[t + 1];
    const uint64_t n = header_.num_symbols;
    if (begin > n) begin = n;
    if (end > n || end < begin) end = begin;
    return SequenceView(columns_ + begin, static_cast<size_t>(end - begin));
  }
  SequenceView operator[](size_t t) const { return row(t); }

  // Whole-database view for the src/match and src/hide kernels.
  DatabaseView view() const {
    return DatabaseView(columns_, row_offsets_, size(), total_symbols(),
                        &alphabet_);
  }

  // Structural row check, O(|D| + num_symbols) with no checksums: row
  // offsets start at 0, are monotone and end at num_symbols, and every
  // column symbol is Δ or in the alphabet. Corruption otherwise, naming
  // the first bad row or the lowest bad column. After it passes, row()
  // never needs to clamp. The same pass yields each row's symbol
  // signature (src/seq/signature.h) into *signatures when non-null. Runs
  // over row chunks of ThreadPool::Shared() with up to `max_threads`
  // threads (0 = all hardware threads); the result, error message
  // included, is the same at every thread count.
  Status ValidateRows(std::vector<uint64_t>* signatures = nullptr,
                      size_t max_threads = 0) const;

  // Materializes an in-memory SequenceDatabase (alphabet ids preserved).
  // Unlike row(), this runs ValidateRows() first and reports Corruption
  // instead of clamping.
  Result<SequenceDatabase> ToDatabase() const;

  // Equivalent of SequenceDatabase::Stats() computed off the mapping.
  DatabaseStats Stats() const;

  // Full O(file) validation: recomputes every section checksum (the v1
  // index sections included), runs ValidateRows(), and checks that the
  // alignment padding is zero.
  Status VerifyChecksums() const;

 private:
  MappedDatabase() = default;

  // Parses + validates the image at data_/size_ and sets every pointer.
  Status Init(const MappedOpenOptions& opts);

  MmapFile file_;                 // when opened from disk
  std::vector<uint64_t> buffer_;  // when opened from memory (8-aligned)
  const unsigned char* data_ = nullptr;
  size_t size_ = 0;

  BinaryHeader header_;
  Alphabet alphabet_;
  const uint64_t* row_offsets_ = nullptr;
  const SymbolId* columns_ = nullptr;
};

}  // namespace seqhide

#endif  // SEQHIDE_SEQ_BINARY_FORMAT_H_
