#include "src/seq/binary_format.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <mutex>
#include <utility>

#include "src/common/durable_file.h"
#include "src/common/thread_pool.h"
#include "src/obs/macros.h"
#include "src/seq/signature.h"

namespace seqhide {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a64(const unsigned char* p, size_t len) {
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

constexpr uint64_t Align8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

// Sanity ceiling on header element counts: large enough for any real
// database (2^47 elements), small enough that count*8+8 can never
// overflow a u64 during section-size arithmetic.
constexpr uint64_t kMaxCount = uint64_t{1} << 47;

// Names that survive the text round trip: non-empty, no whitespace or
// control bytes (the text reader splits on whitespace and rejects
// non-whitespace control characters), and not the Δ token.
Status ValidateSymbolName(std::string_view name) {
  if (name.empty()) {
    return Status::Corruption("alphabet contains an empty symbol name");
  }
  for (unsigned char c : name) {
    if (c <= 0x20 || c == 0x7F) {
      return Status::Corruption(
          "alphabet name contains whitespace or control bytes");
    }
  }
  if (name == Alphabet::DeltaToken()) {
    return Status::Corruption("alphabet name collides with the delta token");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> WriteBinaryDatabaseToString(const SequenceDatabase& db) {
  const Alphabet& alpha = db.alphabet();
  // Sections 4-8 (the v1 indexes) stay empty.
  std::string sections[kBinaryNumSections];

  // Alphabet: byte offsets into the concatenated names blob.
  {
    uint64_t off = 0;
    for (size_t i = 0; i < alpha.size(); ++i) {
      PutU64(&sections[kSecAlphaOffsets], off);
      const std::string& name = alpha.Name(static_cast<SymbolId>(i));
      sections[kSecAlphaNames] += name;
      off += name.size();
    }
    PutU64(&sections[kSecAlphaOffsets], off);
  }

  // Columnar rows.
  uint64_t num_symbols = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    PutU64(&sections[kSecRowOffsets], num_symbols);
    const Sequence& seq = db[t];
    for (size_t j = 0; j < seq.size(); ++j) {
      PutI32(&sections[kSecColumns], seq[j]);
    }
    num_symbols += seq.size();
  }
  PutU64(&sections[kSecRowOffsets], num_symbols);

  // Canonical layout: sections in enum order, each 8-aligned directly
  // after the previous one, zero padding between.
  uint64_t offsets[kBinaryNumSections];
  uint64_t cursor = kBinaryHeaderBytes;
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    offsets[i] = cursor;
    cursor = Align8(cursor + sections[i].size());
  }
  const uint64_t file_bytes = cursor;

  std::string out;
  out.reserve(static_cast<size_t>(file_bytes));
  out.append(reinterpret_cast<const char*>(kBinaryMagic), 8);
  PutU32(&out, kBinaryFormatVersion);
  PutU32(&out, kBinaryEndianTag);
  PutU64(&out, file_bytes);
  PutU64(&out, db.size());
  PutU64(&out, num_symbols);
  PutU64(&out, alpha.size());
  PutU64(&out, 0);  // reserved (v1: pair-index key length)
  PutU64(&out, 0);  // reserved (v1: pair-index key count)
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    PutU64(&out, offsets[i]);
    PutU64(&out, sections[i].size());
    PutU64(&out, Fnv1a64(
        reinterpret_cast<const unsigned char*>(sections[i].data()),
        sections[i].size()));
  }
  PutU64(&out, Fnv1a64(reinterpret_cast<const unsigned char*>(out.data()),
                       out.size()));
  SEQHIDE_CHECK_EQ(out.size(), kBinaryHeaderBytes);
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    out += sections[i];
    out.resize(static_cast<size_t>(Align8(out.size())), '\0');
  }
  SEQHIDE_CHECK_EQ(out.size(), file_bytes);
  SEQHIDE_COUNTER_INC("bindb.writes");
  SEQHIDE_COUNTER_ADD("bindb.write.bytes", out.size());
  return out;
}

Status WriteBinaryDatabaseToFile(const SequenceDatabase& db,
                                 const std::string& path) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string image, WriteBinaryDatabaseToString(db));
  // The destination is either the complete new image or whatever was
  // there before, across both process crashes and power loss.
  return WriteFileDurable(path, image,
                          {.open = "io.bindb.write.open",
                           .write = "io.bindb.write",
                           .rename = "io.bindb.write.rename"});
}

bool LooksLikeBinaryDatabase(const unsigned char* data, size_t size) {
  return size >= 8 && std::memcmp(data, kBinaryMagic, 8) == 0;
}

Result<bool> FileLooksLikeBinaryDatabase(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  unsigned char head[8] = {0};
  in.read(reinterpret_cast<char*>(head), 8);
  return LooksLikeBinaryDatabase(head, static_cast<size_t>(in.gcount()));
}

Result<MappedDatabase> MappedDatabase::OpenMapped(
    const std::string& path, const MappedOpenOptions& opts) {
  SEQHIDE_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  MappedDatabase db;
  db.data_ = file.data();
  db.size_ = file.size();
  db.file_ = std::move(file);
  SEQHIDE_RETURN_IF_ERROR(db.Init(opts));
  SEQHIDE_COUNTER_INC("bindb.opens");
  return db;
}

Result<MappedDatabase> MappedDatabase::FromBuffer(
    const std::string& bytes, const MappedOpenOptions& opts) {
  MappedDatabase db;
  // Copy into u64 storage so section pointers are 8-aligned no matter
  // where the caller's string lived (value-initialized, so the tail pad
  // bytes of the last word are zero).
  db.buffer_.resize((bytes.size() + 7) / 8);
  if (!bytes.empty()) {
    std::memcpy(db.buffer_.data(), bytes.data(), bytes.size());
  }
  db.data_ = reinterpret_cast<const unsigned char*>(db.buffer_.data());
  db.size_ = bytes.size();
  SEQHIDE_RETURN_IF_ERROR(db.Init(opts));
  SEQHIDE_COUNTER_INC("bindb.opens");
  return db;
}

Status MappedDatabase::Init(const MappedOpenOptions& opts) {
  if (std::endian::native != std::endian::little) {
    return Status::FailedPrecondition(
        "seqhidb mapped reads require a little-endian host");
  }
  if (size_ < kBinaryHeaderBytes) {
    return Status::Corruption("seqhidb file truncated: " +
                              std::to_string(size_) + " bytes is smaller " +
                              "than the " +
                              std::to_string(kBinaryHeaderBytes) +
                              "-byte header");
  }
  if (std::memcmp(data_, kBinaryMagic, 8) != 0) {
    return Status::Corruption("not a seqhidb file (bad magic)");
  }
  header_.version = GetU32(data_ + 8);
  const uint32_t endian_tag = GetU32(data_ + 12);
  if (endian_tag != kBinaryEndianTag) {
    if (endian_tag == __builtin_bswap32(kBinaryEndianTag)) {
      return Status::Corruption(
          "seqhidb file was written on a big-endian machine; re-export it "
          "from the text format");
    }
    return Status::Corruption("seqhidb endianness tag is corrupt");
  }
  if (header_.version == 0 || header_.version > kBinaryFormatVersion) {
    return Status::FailedPrecondition(
        "seqhidb version " + std::to_string(header_.version) +
        " is not supported by this build (max " +
        std::to_string(kBinaryFormatVersion) + ")");
  }
  const uint64_t stored_fnv = GetU64(data_ + kBinaryHeaderBytes - 8);
  if (Fnv1a64(data_, kBinaryHeaderBytes - 8) != stored_fnv) {
    return Status::Corruption("seqhidb header checksum mismatch");
  }
  header_.header_fnv = stored_fnv;
  header_.file_bytes = GetU64(data_ + 16);
  header_.num_rows = GetU64(data_ + 24);
  header_.num_symbols = GetU64(data_ + 32);
  header_.alphabet_size = GetU64(data_ + 40);
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const unsigned char* p = data_ + 64 + i * 24;
    header_.sections[i].offset = GetU64(p);
    header_.sections[i].bytes = GetU64(p + 8);
    header_.sections[i].fnv = GetU64(p + 16);
  }

  if (header_.file_bytes != size_) {
    return Status::Corruption(
        "seqhidb file truncated: header says " +
        std::to_string(header_.file_bytes) + " bytes, file has " +
        std::to_string(size_));
  }
  if (header_.num_rows > kMaxCount || header_.num_symbols > kMaxCount ||
      header_.alphabet_size > kMaxCount) {
    return Status::Corruption("seqhidb header counts are implausibly large");
  }
  // The one difference between the versions: v1 stored its index
  // parameters in header words 48/56 and its indexes in sections 4-8,
  // which v2 reserves as zero and empty.
  const bool v1 = header_.version == 1;
  if (!v1 && (GetU64(data_ + 48) != 0 || GetU64(data_ + 56) != 0)) {
    return Status::Corruption("seqhidb v2 reserved header words are not zero");
  }

  // Sections 0, 2 and 3 have sizes fully determined by the header
  // counts; the names and the v1 index sections are variable-length.
  // Every section sits 8-aligned directly after the previous one.
  const uint64_t expected[kSecFirstV1Index] = {
      (header_.alphabet_size + 1) * 8,
      0,
      (header_.num_rows + 1) * 8,
      header_.num_symbols * 4,
  };
  uint64_t cursor = kBinaryHeaderBytes;
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const BinarySection& sec = header_.sections[i];
    if (sec.offset != cursor) {
      return Status::Corruption("seqhidb section " + std::to_string(i) +
                                " is misplaced");
    }
    if (sec.offset > size_ || sec.bytes > size_ - sec.offset) {
      return Status::Corruption("seqhidb section " + std::to_string(i) +
                                " extends past the end of the file");
    }
    if (i < kSecFirstV1Index && i != kSecAlphaNames &&
        sec.bytes != expected[i]) {
      return Status::Corruption(
          "seqhidb section " + std::to_string(i) + " has " +
          std::to_string(sec.bytes) + " bytes, expected " +
          std::to_string(expected[i]));
    }
    if (i >= kSecFirstV1Index && !v1 && sec.bytes != 0) {
      return Status::Corruption("seqhidb v2 section " + std::to_string(i) +
                                " is not empty");
    }
    cursor = Align8(sec.offset + sec.bytes);
  }
  if (cursor != size_) {
    return Status::Corruption("seqhidb file has trailing bytes");
  }

  const auto sec_ptr = [&](size_t i) { return data_ + header_.sections[i].offset; };
  const uint64_t* alpha_offsets =
      reinterpret_cast<const uint64_t*>(sec_ptr(kSecAlphaOffsets));
  const char* alpha_names =
      reinterpret_cast<const char*>(sec_ptr(kSecAlphaNames));
  row_offsets_ = reinterpret_cast<const uint64_t*>(sec_ptr(kSecRowOffsets));
  columns_ = reinterpret_cast<const SymbolId*>(sec_ptr(kSecColumns));

  // Build the alphabet — the one per-element cost of opening, O(|Σ|).
  // The offsets cover the names section exactly, as the writer emits
  // them, so every image that opens has a single canonical encoding.
  const uint64_t names_bytes = header_.sections[kSecAlphaNames].bytes;
  if (alpha_offsets[0] != 0 ||
      alpha_offsets[header_.alphabet_size] != names_bytes) {
    return Status::Corruption(
        "seqhidb alphabet offsets do not cover the names section");
  }
  for (uint64_t i = 0; i < header_.alphabet_size; ++i) {
    const uint64_t begin = alpha_offsets[i];
    const uint64_t end = alpha_offsets[i + 1];
    if (begin > end || end > names_bytes) {
      return Status::Corruption("seqhidb alphabet offsets are corrupt");
    }
    const std::string_view name(alpha_names + begin,
                                static_cast<size_t>(end - begin));
    SEQHIDE_RETURN_IF_ERROR(ValidateSymbolName(name));
    alphabet_.Intern(name);
  }
  if (alphabet_.size() != header_.alphabet_size) {
    return Status::Corruption("seqhidb alphabet contains duplicate names");
  }

  if (opts.verify_checksums) {
    SEQHIDE_RETURN_IF_ERROR(VerifyChecksums());
  }
  return Status::OK();
}

Status MappedDatabase::ValidateRows(std::vector<uint64_t>* signatures,
                                    size_t max_threads) const {
  const uint64_t num_rows = header_.num_rows;
  const uint64_t num_symbols = header_.num_symbols;
  if (row_offsets_[0] != 0) {
    return Status::Corruption("seqhidb row offsets do not start at 0");
  }
  if (signatures != nullptr) signatures->assign(num_rows, 0);

  // One pass over row chunks: a chunk checks its rows' offsets, then
  // reads their columns, writes only its own signature slots, and keeps
  // its first bad row and first bad column. Errors are reported in a
  // fixed order (offsets, coverage, then the lowest bad column), so the
  // message is the same at every thread count.
  constexpr uint64_t kNone = ~uint64_t{0};
  const uint64_t sigma = alphabet_.size();
  std::mutex mu;
  uint64_t bad_row = kNone;
  uint64_t bad_column = kNone;
  ThreadPool::Shared().ParallelFor(
      static_cast<size_t>(num_rows), max_threads,
      [&](size_t begin, size_t end) {
        uint64_t chunk_bad_row = kNone;
        uint64_t chunk_bad_column = kNone;
        for (size_t t = begin; t < end; ++t) {
          if (row_offsets_[t] > row_offsets_[t + 1]) {
            chunk_bad_row = t;
            break;
          }
        }
        // Monotone here and ending inside the column section, so every
        // column read below is in range. A chunk ending past the section
        // implies an offsets error elsewhere, which outranks columns.
        if (chunk_bad_row == kNone && row_offsets_[end] <= num_symbols) {
          for (size_t t = begin; t < end && chunk_bad_column == kNone; ++t) {
            uint64_t sig = 0;
            for (uint64_t j = row_offsets_[t]; j < row_offsets_[t + 1]; ++j) {
              const SymbolId s = columns_[j];
              if (static_cast<uint64_t>(s) >= sigma && s != kDeltaSymbol) {
                chunk_bad_column = j;
                break;
              }
              sig |= SymbolSignatureBit(s);
            }
            if (signatures != nullptr) (*signatures)[t] = sig;
          }
        }
        if (chunk_bad_row != kNone || chunk_bad_column != kNone) {
          std::lock_guard<std::mutex> lock(mu);
          bad_row = std::min(bad_row, chunk_bad_row);
          bad_column = std::min(bad_column, chunk_bad_column);
        }
      });
  if (bad_row != kNone) {
    return Status::Corruption("seqhidb row " + std::to_string(bad_row) +
                              " has corrupt offsets (not monotone)");
  }
  if (row_offsets_[num_rows] != num_symbols) {
    return Status::Corruption(
        "seqhidb row offsets do not cover the column section");
  }
  if (bad_column != kNone) {
    return Status::Corruption("seqhidb column " + std::to_string(bad_column) +
                              " references symbol id " +
                              std::to_string(columns_[bad_column]) +
                              " outside the alphabet");
  }
  return Status::OK();
}

Result<SequenceDatabase> MappedDatabase::ToDatabase() const {
  SEQHIDE_RETURN_IF_ERROR(ValidateRows());
  SequenceDatabase out;
  for (uint64_t i = 0; i < header_.alphabet_size; ++i) {
    out.alphabet().Intern(alphabet_.Name(static_cast<SymbolId>(i)));
  }
  for (size_t t = 0; t < size(); ++t) out.Add(row(t).Materialize());
  return out;
}

DatabaseStats MappedDatabase::Stats() const {
  DatabaseStats stats;
  stats.num_sequences = size();
  stats.alphabet_size = alphabet_.size();
  if (empty()) return stats;
  stats.min_length = row(0).size();
  stats.max_length = row(0).size();
  for (size_t t = 0; t < size(); ++t) {
    const SequenceView seq = row(t);
    stats.total_symbols += seq.size();
    stats.total_marks += seq.MarkCount();
    stats.min_length = std::min(stats.min_length, seq.size());
    stats.max_length = std::max(stats.max_length, seq.size());
  }
  stats.mean_length = static_cast<double>(stats.total_symbols) /
                      static_cast<double>(stats.num_sequences);
  return stats;
}

Status MappedDatabase::VerifyChecksums() const {
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const BinarySection& sec = header_.sections[i];
    if (Fnv1a64(data_ + sec.offset, static_cast<size_t>(sec.bytes)) !=
        sec.fnv) {
      return Status::Corruption("seqhidb section " + std::to_string(i) +
                                " checksum mismatch");
    }
  }

  SEQHIDE_RETURN_IF_ERROR(ValidateRows());

  // Canonical padding: every gap between sections is zero bytes.
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const uint64_t end = header_.sections[i].offset + header_.sections[i].bytes;
    for (uint64_t j = end; j < Align8(end); ++j) {
      if (data_[j] != 0) {
        return Status::Corruption("seqhidb padding bytes are not zero");
      }
    }
  }
  return Status::OK();
}

}  // namespace seqhide
