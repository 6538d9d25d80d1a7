// Unit tests for the seqhidb binary format (src/seq/binary_format.h):
// layout pinning against docs/binary-format.md, text↔binary round trips,
// version 1 compatibility and version 2 strictness, corruption handling
// (truncation and bit-flip sweeps — never a crash, always a clean
// Corruption-class error), format sniffing, and the io.bindb.*
// fault-injection sites.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"
#include "src/seq/signature.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

// The worked example of docs/binary-format.md: three rows over {a, b, c}
// with one Δ mark. Keep the two in sync — the doc's hex dump is this db.
SequenceDatabase SpecExampleDb() {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "a", "c"});
  db.AddFromNames({"b", "c"});
  db.AddFromNames({"a"});
  db.mutable_sequence(0)->Mark(2);  // <a, b, Δ, c>
  return db;
}

// The worked example as the version 1 writer serialized it (the 520-byte
// hex dump earlier revisions of docs/binary-format.md printed), with its
// posting lists in sections 4-5 and its pair-prefix index in 6-8.
constexpr unsigned char kSpecV1Image[] = {
    0x53, 0x45, 0x51, 0x48, 0x49, 0x44, 0x42, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x4d, 0x3c, 0x2b, 0x1a, 0x08, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x20, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa5, 0xf1, 0x5b, 0xab,
    0xc3, 0xcb, 0xdb, 0x64, 0x40, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4b, 0x57, 0x41, 0x05,
    0x19, 0xa2, 0x1f, 0xe7, 0x48, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xd6, 0xd6, 0x7d,
    0xfa, 0x7c, 0xfc, 0x72, 0x68, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x1c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc1, 0x92, 0x77, 0x90,
    0xea, 0x38, 0x02, 0x0f, 0x88, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa5, 0xfd, 0xe8, 0x91,
    0xe1, 0x99, 0xce, 0x5b, 0xa8, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x87, 0x98, 0x12, 0x4c,
    0x03, 0xe0, 0xe2, 0xf0, 0xc0, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x95, 0xec, 0x24, 0xec,
    0x2d, 0xfa, 0x31, 0x69, 0xd8, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x42, 0x13, 0x8e, 0x8a,
    0xa8, 0x76, 0xeb, 0x07, 0xf8, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd4, 0xa7, 0xc9, 0x0a,
    0xb1, 0x73, 0x25, 0xe8, 0x84, 0xb9, 0x51, 0x80, 0x7d, 0x22, 0xaf, 0x23,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x61, 0x62, 0x63, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
    0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00,
};

std::string SpecV1Image() {
  return std::string(reinterpret_cast<const char*>(kSpecV1Image),
                     sizeof(kSpecV1Image));
}

// The worked example in the current (version 2) layout: the hex dump of
// docs/binary-format.md.
constexpr unsigned char kSpecV2Image[] = {
    0x53, 0x45, 0x51, 0x48, 0x49, 0x44, 0x42, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x4d, 0x3c, 0x2b, 0x1a, 0x88, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x20, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa5, 0xf1, 0x5b, 0xab,
    0xc3, 0xcb, 0xdb, 0x64, 0x40, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4b, 0x57, 0x41, 0x05,
    0x19, 0xa2, 0x1f, 0xe7, 0x48, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xd6, 0xd6, 0x7d,
    0xfa, 0x7c, 0xfc, 0x72, 0x68, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x1c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc1, 0x92, 0x77, 0x90,
    0xea, 0x38, 0x02, 0x0f, 0x88, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x25, 0x23, 0x22, 0x84,
    0xe4, 0x9c, 0xf2, 0xcb, 0x88, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x25, 0x23, 0x22, 0x84,
    0xe4, 0x9c, 0xf2, 0xcb, 0x88, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x25, 0x23, 0x22, 0x84,
    0xe4, 0x9c, 0xf2, 0xcb, 0x88, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x25, 0x23, 0x22, 0x84,
    0xe4, 0x9c, 0xf2, 0xcb, 0x88, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x25, 0x23, 0x22, 0x84,
    0xe4, 0x9c, 0xf2, 0xcb, 0x26, 0xd0, 0x14, 0xd8, 0x21, 0xa5, 0x7b, 0x6d,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x61, 0x62, 0x63, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
    0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
};

std::string SpecV2Image() {
  return std::string(reinterpret_cast<const char*>(kSpecV2Image),
                     sizeof(kSpecV2Image));
}

std::string MustWrite(const SequenceDatabase& db) {
  auto bytes = WriteBinaryDatabaseToString(db);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return std::move(bytes).value();
}

MappedDatabase MustOpen(const std::string& bytes,
                        const MappedOpenOptions& opts = {}) {
  auto mapped = MappedDatabase::FromBuffer(bytes, opts);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  return std::move(mapped).value();
}

// Little-endian patch helpers for corrupting specific image bytes.
void OverwriteU32(std::string* bytes, uint64_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[pos + i] = static_cast<char>(v >> (8 * i));
  }
}

void OverwriteU64(std::string* bytes, uint64_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[pos + i] = static_cast<char>(v >> (8 * i));
  }
}

// FNV-1a-64, mirroring the writer, for re-stamping patched headers.
uint64_t TestFnv(const char* p, size_t len) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void ExpectSameDb(const SequenceDatabase& a, const SequenceDatabase& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.alphabet().size(), b.alphabet().size());
  for (SymbolId s = 0; s < static_cast<SymbolId>(a.alphabet().size()); ++s) {
    EXPECT_EQ(a.alphabet().Name(s), b.alphabet().Name(s)) << "symbol " << s;
  }
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t], b[t]) << "row " << t;
  }
}

TEST(BinaryFormatTest, SpecExampleLayoutIsPinned) {
  const std::string bytes = MustWrite(SpecExampleDb());
  // Byte for byte the hex dump of docs/binary-format.md.
  EXPECT_EQ(bytes, SpecV2Image());

  // Magic + fixed header fields, exactly as docs/binary-format.md states.
  EXPECT_EQ(0, std::memcmp(bytes.data(), kBinaryMagic, 8));
  MappedDatabase db = MustOpen(bytes, {.verify_checksums = true});
  const BinaryHeader& h = db.header();
  EXPECT_EQ(h.version, 2u);
  EXPECT_EQ(h.version, kBinaryFormatVersion);
  EXPECT_EQ(h.file_bytes, 392u);
  EXPECT_EQ(h.num_rows, 3u);
  EXPECT_EQ(h.num_symbols, 7u);  // 4 + 2 + 1, Δ included
  EXPECT_EQ(h.alphabet_size, 3u);
  EXPECT_EQ(std::string(bytes.data() + 48, 16), std::string(16, '\0'))
      << "reserved header words 48 and 56";

  // Canonical section placement: enum order, 8-aligned, gap-free (modulo
  // alignment padding), starting right after the header.
  uint64_t cursor = kBinaryHeaderBytes;
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const BinarySection& s = h.sections[i];
    cursor = (cursor + 7) & ~uint64_t{7};
    EXPECT_EQ(s.offset, cursor) << "section " << i;
    cursor += s.bytes;
  }
  EXPECT_EQ((cursor + 7) & ~uint64_t{7}, bytes.size());

  // Known section sizes for this db; the v1 index sections are empty and
  // sit at the aligned end of the columns.
  EXPECT_EQ(h.sections[kSecAlphaOffsets].bytes, 4u * 8);  // |Σ|+1
  EXPECT_EQ(h.sections[kSecAlphaNames].bytes, 3u);        // "abc"
  EXPECT_EQ(h.sections[kSecRowOffsets].bytes, 4u * 8);    // |D|+1
  EXPECT_EQ(h.sections[kSecColumns].bytes, 7u * 4);
  for (size_t i = kSecFirstV1Index; i < kBinaryNumSections; ++i) {
    EXPECT_EQ(h.sections[i].offset, 392u) << "section " << i;
    EXPECT_EQ(h.sections[i].bytes, 0u) << "section " << i;
  }
}

TEST(BinaryFormatTest, V1SpecImageOpensAndUpgradesToV2) {
  const std::string v1 = SpecV1Image();
  MappedDatabase mapped = MustOpen(v1);
  EXPECT_EQ(mapped.header().version, 1u);
  EXPECT_EQ(mapped.header().file_bytes, 520u);
  std::vector<uint64_t> signatures;
  EXPECT_TRUE(mapped.ValidateRows(&signatures).ok());
  EXPECT_TRUE(mapped.VerifyChecksums().ok());
  auto back = mapped.ToDatabase();
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameDb(SpecExampleDb(), *back);
  // The upgrade path: materialize, then write with the current writer.
  EXPECT_EQ(MustWrite(*back), SpecV2Image());
}

TEST(BinaryFormatTest, V1IndexSectionsAreStillChecksummed) {
  const std::string v1 = SpecV1Image();
  const BinaryHeader h = MustOpen(v1).header();
  for (size_t i = kSecFirstV1Index; i < kBinaryNumSections; ++i) {
    ASSERT_GT(h.sections[i].bytes, 0u) << "section " << i;
    std::string corrupt = v1;
    corrupt[h.sections[i].offset] ^= 0x01;
    // The header does not cover payload sections: the image still opens,
    // and only the full checksum pass notices.
    MappedDatabase lax = MustOpen(corrupt);
    const Status status = lax.VerifyChecksums();
    EXPECT_TRUE(status.IsCorruption()) << status;
    EXPECT_EQ(status.message(),
              "seqhidb section " + std::to_string(i) + " checksum mismatch");
  }
}

// Re-stamps the header checksum after a patch to bytes [0, 280).
void ResealHeader(std::string* bytes) {
  OverwriteU64(bytes, kBinaryHeaderBytes - 8,
               TestFnv(bytes->data(), kBinaryHeaderBytes - 8));
}

// Splices 8 bytes into section `sec` of a canonical image and re-stamps
// everything else (section size and checksum, later section offsets,
// file size, header checksum), so only the version rules can object.
std::string WithIndexBytes(const std::string& bytes, size_t sec) {
  const BinaryHeader h = MustOpen(bytes).header();
  const uint64_t ins = h.sections[sec].offset + h.sections[sec].bytes;
  std::string out = bytes.substr(0, static_cast<size_t>(ins)) +
                    "\x01\x02\x03\x04\x05\x06\x07\x08" +
                    bytes.substr(static_cast<size_t>(ins));
  const uint64_t new_bytes = h.sections[sec].bytes + 8;
  OverwriteU64(&out, 16, h.file_bytes + 8);
  OverwriteU64(&out, 64 + sec * 24 + 8, new_bytes);
  OverwriteU64(&out, 64 + sec * 24 + 16,
               TestFnv(out.data() + h.sections[sec].offset, new_bytes));
  for (size_t i = sec + 1; i < kBinaryNumSections; ++i) {
    OverwriteU64(&out, 64 + i * 24, h.sections[i].offset + 8);
  }
  ResealHeader(&out);
  return out;
}

TEST(BinaryFormatTest, V2RejectsNonEmptyIndexSections) {
  const std::string v2 = SpecV2Image();
  for (size_t i = kSecFirstV1Index; i < kBinaryNumSections; ++i) {
    const std::string corrupt = WithIndexBytes(v2, i);
    auto mapped = MappedDatabase::FromBuffer(corrupt);
    ASSERT_FALSE(mapped.ok()) << "section " << i;
    EXPECT_TRUE(mapped.status().IsCorruption()) << mapped.status();
    EXPECT_EQ(mapped.status().message(),
              "seqhidb v2 section " + std::to_string(i) + " is not empty");
    // The same bytes under a v1 header are an (unparsed) index section.
    std::string as_v1 = corrupt;
    OverwriteU32(&as_v1, 8, 1);
    ResealHeader(&as_v1);
    EXPECT_TRUE(MappedDatabase::FromBuffer(as_v1, {.verify_checksums = true})
                    .ok())
        << "section " << i;
  }
}

TEST(BinaryFormatTest, V2RejectsNonZeroReservedHeaderWords) {
  for (const uint64_t word : {48u, 56u}) {
    std::string corrupt = SpecV2Image();
    OverwriteU64(&corrupt, word, 2);
    ResealHeader(&corrupt);
    auto mapped = MappedDatabase::FromBuffer(corrupt);
    ASSERT_FALSE(mapped.ok()) << "word " << word;
    EXPECT_TRUE(mapped.status().IsCorruption()) << mapped.status();
    EXPECT_EQ(mapped.status().message(),
              "seqhidb v2 reserved header words are not zero");
    // v1 kept its index parameters there; the reader ignores them.
    std::string as_v1 = corrupt;
    OverwriteU32(&as_v1, 8, 1);
    ResealHeader(&as_v1);
    EXPECT_TRUE(MappedDatabase::FromBuffer(as_v1).ok()) << "word " << word;
  }
}

TEST(BinaryFormatTest, UnknownVersionsAreRejectedAsUnsupported) {
  for (const uint32_t version : {0u, kBinaryFormatVersion + 1}) {
    std::string image = SpecV2Image();
    OverwriteU32(&image, 8, version);
    ResealHeader(&image);
    auto mapped = MappedDatabase::FromBuffer(image);
    EXPECT_TRUE(mapped.status().IsFailedPrecondition()) << mapped.status();
    EXPECT_EQ(mapped.status().message(),
              "seqhidb version " + std::to_string(version) +
                  " is not supported by this build (max 2)");
  }
}

TEST(BinaryFormatTest, AlphabetOffsetsMustCoverTheNames) {
  SequenceDatabase db;
  db.AddFromNames({"ab", "c"});
  std::string bytes = MustWrite(db);
  const uint64_t offsets = MustOpen(bytes).header().sections[0].offset;
  // alpha_offsets[0] := 1 leaves names "b", "c" — valid names, but the
  // leading byte of the names section belongs to no symbol.
  OverwriteU64(&bytes, offsets, 1);
  auto mapped = MappedDatabase::FromBuffer(bytes);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().message(),
            "seqhidb alphabet offsets do not cover the names section");
}

TEST(BinaryFormatTest, WriterIsDeterministic) {
  Rng rng(7);
  SequenceDatabase db = testutil::RandomDb(&rng, 25, 0, 14, 6);
  EXPECT_EQ(MustWrite(db), MustWrite(db));
}

TEST(BinaryFormatTest, RoundTripPreservesEverything) {
  Rng rng(11);
  SequenceDatabase db = testutil::RandomDb(&rng, 40, 0, 20, 8);
  db.mutable_sequence(3)->Mark(0);
  const std::string bytes = MustWrite(db);
  MappedDatabase mapped = MustOpen(bytes, {.verify_checksums = true});
  auto back = mapped.ToDatabase();
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameDb(db, *back);

  // Zero-copy rows agree with the materialized ones.
  for (size_t t = 0; t < db.size(); ++t) {
    SequenceView v = mapped.row(t);
    ASSERT_EQ(v.size(), db[t].size()) << t;
    for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], db[t][i]);
  }

  // And a re-serialization of the materialized db is byte-identical.
  EXPECT_EQ(MustWrite(*back), bytes);
}

TEST(BinaryFormatTest, EmptyDatabaseRoundTrips) {
  SequenceDatabase db;
  const std::string bytes = MustWrite(db);
  MappedDatabase mapped = MustOpen(bytes, {.verify_checksums = true});
  EXPECT_EQ(mapped.size(), 0u);
  EXPECT_TRUE(mapped.empty());
  auto back = mapped.ToDatabase();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->size(), 0u);
}

TEST(BinaryFormatTest, TextBinaryTextRoundTrip) {
  Rng rng(13);
  SequenceDatabase db = testutil::RandomDb(&rng, 30, 1, 10, 5);
  const std::string text = WriteDatabaseToString(db);
  auto reread = ReadDatabaseFromString(text);
  ASSERT_TRUE(reread.ok());
  const std::string bytes = MustWrite(*reread);
  MappedDatabase mapped = MustOpen(bytes);
  auto back = mapped.ToDatabase();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(WriteDatabaseToString(*back), text);
}

TEST(BinaryFormatTest, StatsMatchesInMemory) {
  Rng rng(17);
  SequenceDatabase db = testutil::RandomDb(&rng, 22, 0, 9, 4);
  db.mutable_sequence(1)->Mark(0);
  MappedDatabase mapped = MustOpen(MustWrite(db));
  DatabaseStats a = db.Stats();
  DatabaseStats b = mapped.Stats();
  EXPECT_EQ(a.num_sequences, b.num_sequences);
  EXPECT_EQ(a.total_symbols, b.total_symbols);
  EXPECT_EQ(a.total_marks, b.total_marks);
  EXPECT_EQ(a.min_length, b.min_length);
  EXPECT_EQ(a.max_length, b.max_length);
  EXPECT_DOUBLE_EQ(a.mean_length, b.mean_length);
  EXPECT_EQ(a.alphabet_size, b.alphabet_size);
}

TEST(BinaryFormatTest, SniffingRecognizesTheMagic) {
  const std::string bytes = MustWrite(SpecExampleDb());
  EXPECT_TRUE(LooksLikeBinaryDatabase(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()));
  const std::string text = "# seqhide sequence database\na b c\n";
  EXPECT_FALSE(LooksLikeBinaryDatabase(
      reinterpret_cast<const unsigned char*>(text.data()), text.size()));
  EXPECT_FALSE(LooksLikeBinaryDatabase(nullptr, 0));
}

TEST(BinaryFormatTest, TruncationSweepNeverCrashesAndNeverParses) {
  for (const std::string& bytes : {SpecV2Image(), SpecV1Image()}) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      auto mapped = MappedDatabase::FromBuffer(bytes.substr(0, len));
      EXPECT_FALSE(mapped.ok()) << "truncated to " << len << " bytes parsed";
      EXPECT_TRUE(mapped.status().IsCorruption() ||
                  mapped.status().IsInvalidArgument())
          << len << ": " << mapped.status();
    }
    // Trailing garbage is equally rejected (file_bytes pins the size).
    auto grown = MappedDatabase::FromBuffer(bytes + std::string(8, '\0'));
    EXPECT_FALSE(grown.ok());
  }
}

TEST(BinaryFormatTest, HeaderBitFlipsAreAlwaysDetectedAtOpen) {
  for (const std::string& bytes : {SpecV2Image(), SpecV1Image()}) {
    for (size_t pos = 0; pos < kBinaryHeaderBytes; ++pos) {
      for (unsigned char flip : {0x01, 0x80}) {
        std::string corrupt = bytes;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ flip);
        auto mapped = MappedDatabase::FromBuffer(corrupt);
        EXPECT_FALSE(mapped.ok())
            << "header byte " << pos << " flipped by " << int(flip)
            << " went unnoticed (" << bytes.size() << "-byte image)";
      }
    }
  }
}

TEST(BinaryFormatTest, AnyBitFlipIsDetectedByVerifyChecksums) {
  for (const std::string& bytes : {SpecV2Image(), SpecV1Image()}) {
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
      auto mapped =
          MappedDatabase::FromBuffer(corrupt, {.verify_checksums = true});
      EXPECT_FALSE(mapped.ok())
          << "byte " << pos << " of the " << bytes.size()
          << "-byte image flipped but full verification passed";
    }
  }
}

TEST(BinaryFormatTest, DatabaseViewClampsCorruptRowOffsets) {
  const std::string bytes = MustWrite(SpecExampleDb());
  MappedDatabase good = MustOpen(bytes);
  const uint64_t off = good.header().sections[kSecRowOffsets].offset;
  // row_offsets[1] := far past the column section. The header checksum
  // does not cover payload sections, so an unverified open still
  // succeeds — exactly the file a crash-corrupted serving path sees.
  std::string corrupt = bytes;
  OverwriteU64(&corrupt, off + 8, (uint64_t{1} << 47) - 1);
  auto lax = MappedDatabase::FromBuffer(corrupt);
  ASSERT_TRUE(lax.ok()) << lax.status();
  EXPECT_FALSE(lax->VerifyChecksums().ok());

  // The kernel-facing DatabaseView must clamp just like
  // MappedDatabase::row(): every row stays inside the column section and
  // the two read paths agree byte-for-byte.
  const DatabaseView view = lax->view();
  ASSERT_EQ(view.size(), lax->size());
  for (size_t t = 0; t < view.size(); ++t) {
    SequenceView row = view.row(t);
    EXPECT_LE(row.size(), lax->total_symbols()) << t;
    EXPECT_TRUE(row == lax->row(t)) << t;
    for (size_t i = 0; i < row.size(); ++i) (void)row[i];
  }
}

// A database of `rows` rows of 5 symbols over `sigma` symbols, every
// seventh position Δ-marked.
SequenceDatabase FixedWidthDb(size_t rows, size_t sigma) {
  SequenceDatabase db;
  for (size_t s = 0; s < sigma; ++s) {
    db.alphabet().Intern("s" + std::to_string(s));
  }
  Rng rng(rows * 31 + sigma);
  for (size_t t = 0; t < rows; ++t) {
    std::vector<SymbolId> symbols(5);
    for (size_t i = 0; i < symbols.size(); ++i) {
      symbols[i] = (t * 5 + i) % 7 == 3
                       ? kDeltaSymbol
                       : static_cast<SymbolId>(rng.NextBounded(sigma));
    }
    db.Add(Sequence(std::move(symbols)));
  }
  return db;
}

TEST(BinaryFormatTest, ValidateRowsSignaturesEqualSerialRecompute) {
  // 90 symbols: ids 64..89 fold onto the bits of 0..25, and Δ onto 63's.
  const SequenceDatabase db = FixedWidthDb(500, 90);
  MappedDatabase mapped = MustOpen(MustWrite(db));
  for (const size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    std::vector<uint64_t> signatures;
    ASSERT_TRUE(mapped.ValidateRows(&signatures, threads).ok()) << threads;
    ASSERT_EQ(signatures.size(), db.size());
    for (size_t t = 0; t < db.size(); ++t) {
      EXPECT_EQ(signatures[t], SequenceSignature(db[t]))
          << "row " << t << ", " << threads << " threads";
    }
  }
  std::vector<uint64_t> none;
  EXPECT_TRUE(MustOpen(MustWrite(SequenceDatabase())).ValidateRows(&none).ok());
  EXPECT_TRUE(none.empty());
}

TEST(BinaryFormatTest, ValidateRowsNamesTheLowestErrorAtEveryThreadCount) {
  // 400 rows × 5 symbols: columns 130 (row 26) and 1700 (row 340) sit in
  // different row chunks at every thread count above one.
  const std::string bytes = MustWrite(FixedWidthDb(400, 8));
  const BinaryHeader header = MustOpen(bytes).header();
  const uint64_t columns = header.sections[kSecColumns].offset;
  const uint64_t offsets = header.sections[kSecRowOffsets].offset;

  std::string bad_columns = bytes;
  OverwriteU32(&bad_columns, columns + 4 * 1700, 999);
  OverwriteU32(&bad_columns, columns + 4 * 130, 12345);
  // A non-monotone row outranks any bad column, however early the column.
  std::string bad_rows = bad_columns;
  OverwriteU64(&bad_rows, offsets + 8 * 301, 5 * 305);
  OverwriteU64(&bad_rows, offsets + 8 * 391, 5 * 395);

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<uint64_t> signatures;
    const Status columns_status =
        MustOpen(bad_columns).ValidateRows(&signatures, threads);
    EXPECT_TRUE(columns_status.IsCorruption()) << columns_status;
    EXPECT_EQ(columns_status.message(),
              "seqhidb column 130 references symbol id 12345 outside the "
              "alphabet")
        << threads << " threads";
    const Status rows_status = MustOpen(bad_rows).ValidateRows(nullptr, threads);
    EXPECT_TRUE(rows_status.IsCorruption()) << rows_status;
    EXPECT_EQ(rows_status.message(),
              "seqhidb row 301 has corrupt offsets (not monotone)")
        << threads << " threads";
  }
}

TEST(BinaryFormatTest, OpenMappedServesFilesAndReportsNotFound) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/binary_format_test.hidb";
  SequenceDatabase db = SpecExampleDb();
  ASSERT_TRUE(WriteBinaryDatabaseToFile(db, path).ok());
  auto mapped = MappedDatabase::OpenMapped(path, {.verify_checksums = true});
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto back = mapped->ToDatabase();
  ASSERT_TRUE(back.ok());
  ExpectSameDb(db, *back);
  std::remove(path.c_str());

  auto missing = MappedDatabase::OpenMapped(dir + "/no_such_file.hidb");
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
}

TEST(BinaryFormatTest, AtomicWriteFaultsLeaveDestinationUntouched) {
#ifdef SEQHIDE_FAULTS_DISABLED
  GTEST_SKIP() << "fault injection compiled out";
#endif
  const std::string path =
      ::testing::TempDir() + "/binary_format_fault.hidb";
  SequenceDatabase original = SpecExampleDb();
  ASSERT_TRUE(WriteBinaryDatabaseToFile(original, path).ok());
  const std::string before = [&] {
    auto m = MappedDatabase::OpenMapped(path);
    EXPECT_TRUE(m.ok());
    return MustWrite(*m->ToDatabase());
  }();

  Rng rng(41);
  SequenceDatabase bigger = testutil::RandomDb(&rng, 12, 1, 6, 3);
  FaultInjector& fi = FaultInjector::Default();
  for (const char* site :
       {"io.bindb.write.open", "io.bindb.write", "io.bindb.write.rename"}) {
    fi.Reset();
    ASSERT_TRUE(fi.ArmSite(site, 1).ok());
    Status s = WriteBinaryDatabaseToFile(bigger, path);
    EXPECT_TRUE(s.IsIOError()) << site << ": " << s;
    EXPECT_EQ(fi.FaultsFired(), 1u) << site;
    // The destination still holds the complete previous database.
    auto m = MappedDatabase::OpenMapped(path, {.verify_checksums = true});
    ASSERT_TRUE(m.ok()) << site << ": " << m.status();
    EXPECT_EQ(MustWrite(*m->ToDatabase()), before) << site;
  }
  fi.Reset();

  for (const char* site : {"io.bindb.open", "io.bindb.map"}) {
    fi.Reset();
    ASSERT_TRUE(fi.ArmSite(site, 1).ok());
    auto m = MappedDatabase::OpenMapped(path);
    EXPECT_TRUE(m.status().IsIOError()) << site << ": " << m.status();
  }
  fi.Reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seqhide
