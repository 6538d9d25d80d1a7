// libFuzzer harness for the seqhidb binary reader
// (src/seq/binary_format.h).
//
// Invariants checked on every input, beyond "does not crash under
// ASan/UBSan":
//   * FromBuffer — with and without full checksum verification — returns
//     OK or a Corruption/InvalidArgument/FailedPrecondition-class error,
//     never anything else and never an abort;
//   * verified open implies unverified open (verification only rejects
//     more);
//   * whatever opens is memory-safe to read: every row view and Stats()
//     runs within bounds (ASan is the judge);
//   * whatever passes ValidateRows answers a support query the same with
//     its row signatures attached as without them;
//   * whatever passes full verification materializes cleanly and
//     re-serializes to a verified v2 image: byte-identical to a v2 input
//     (a v2 image that verifies is canonical), and materializing to the
//     same database as a v1 input.
//
// Build (clang only):
//   cmake -B build-fuzz -DSEQHIDE_BUILD_FUZZERS=ON -DCMAKE_CXX_COMPILER=clang++
//   ./build-fuzz/tests/fuzz/fuzz_binary_db tests/fuzz/corpus/binary_db

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/constrained_count.h"
#include "src/seq/binary_format.h"

namespace {

void Check(bool cond, const char* what) {
  if (!cond) {
    __builtin_trap();
    (void)what;
  }
}

bool IsCleanFailure(const seqhide::Status& s) {
  return s.IsCorruption() || s.IsInvalidArgument() || s.IsFailedPrecondition();
}

bool SameDatabase(const seqhide::SequenceDatabase& a,
                  const seqhide::SequenceDatabase& b) {
  if (a.size() != b.size() || a.alphabet().size() != b.alphabet().size()) {
    return false;
  }
  for (size_t s = 0; s < a.alphabet().size(); ++s) {
    const auto id = static_cast<seqhide::SymbolId>(s);
    if (a.alphabet().Name(id) != b.alphabet().Name(id)) return false;
  }
  for (size_t t = 0; t < a.size(); ++t) {
    if (!(a[t] == b[t])) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  auto lax = seqhide::MappedDatabase::FromBuffer(bytes);
  Check(lax.ok() || IsCleanFailure(lax.status()),
        "unverified open: unexpected status class");

  auto strict = seqhide::MappedDatabase::FromBuffer(
      bytes, {.verify_checksums = true});
  Check(strict.ok() || IsCleanFailure(strict.status()),
        "verified open: unexpected status class");
  // Verification is strictly more suspicious, never less.
  Check(!strict.ok() || lax.ok(), "verified ok but unverified failed");

  if (lax.ok()) {
    // Every read path must be memory-safe even when row offsets are
    // garbage (open-time validation skips them).
    size_t touched = 0;
    for (size_t t = 0; t < lax->size(); ++t) {
      seqhide::SequenceView row = lax->row(t);
      for (size_t i = 0; i < row.size(); ++i) touched += row[i] >= 0;
    }
    // The kernel-facing DatabaseView reads the same unvalidated offsets
    // through its own clamp — exercise it separately from row() above.
    const seqhide::DatabaseView view = lax->view();
    for (size_t t = 0; t < view.size(); ++t) {
      seqhide::SequenceView row = view.row(t);
      for (size_t i = 0; i < row.size(); ++i) touched += row[i] >= 0;
    }
    (void)touched;
    // Rows that pass the structural check carry signatures, and the
    // screen they feed never changes an answer: the screened support
    // equals the same loop over the unscreened view.
    std::vector<uint64_t> signatures;
    if (lax->ValidateRows(&signatures).ok() && lax->alphabet().size() > 0) {
      seqhide::Sequence probe;
      probe.Append(0);
      probe.Append(static_cast<seqhide::SymbolId>(lax->alphabet().size() - 1));
      const seqhide::ConstraintSpec spec;
      Check(seqhide::ConstrainedSupport(
                probe, spec, lax->view().WithSignatures(signatures)) ==
                seqhide::ConstrainedSupport(probe, spec, lax->view()),
            "screened support differs from the unscreened loop");
    }
    (void)lax->Stats();
    (void)lax->VerifyChecksums();  // any verdict, just no crash
    auto db = lax->ToDatabase();
    Check(db.ok() || IsCleanFailure(db.status()),
          "ToDatabase: unexpected status class");
  }

  if (strict.ok()) {
    // A fully verified image materializes and round-trips through the
    // current writer.
    auto db = strict->ToDatabase();
    Check(db.ok(), "verified image failed to materialize");
    auto again = seqhide::WriteBinaryDatabaseToString(*db);
    Check(again.ok(), "re-serialization of a verified image failed");
    if (strict->header().version == seqhide::kBinaryFormatVersion) {
      Check(*again == bytes, "verified v2 image is not canonical");
    } else {
      auto reopened = seqhide::MappedDatabase::FromBuffer(
          *again, {.verify_checksums = true});
      Check(reopened.ok(), "re-serialized v1 image failed to open as v2");
      Check(reopened->header().version == seqhide::kBinaryFormatVersion,
            "re-serialized v1 image is not v2");
      auto back = reopened->ToDatabase();
      Check(back.ok() && SameDatabase(*back, *db),
            "v1 image and its v2 re-serialization differ");
    }
  }
  return 0;
}
