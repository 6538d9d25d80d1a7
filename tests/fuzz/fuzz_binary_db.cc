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
//   * whatever opens is memory-safe to read: every row view, posting
//     list, and Stats() runs within bounds (ASan is the judge);
//   * whatever passes ValidateRows answers a support query the same with
//     its row signatures attached as without them;
//   * whatever passes full verification materializes cleanly, and its
//     re-serialization parses back to a database of the same shape.
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
    // Every read path must be memory-safe even when row offsets, posting
    // lists, or prefix runs are garbage (open-time validation skips them).
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
    for (seqhide::SymbolId s = -1;
         s <= static_cast<seqhide::SymbolId>(lax->alphabet().size()); ++s) {
      auto span = lax->PostingList(s);
      for (uint32_t r : span) (void)r;
    }
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
    // A fully verified image materializes and round-trips.
    auto db = strict->ToDatabase();
    Check(db.ok(), "verified image failed to materialize");
    const uint64_t k = strict->header().prefix_k;
    seqhide::BinaryWriteOptions opts;
    opts.prefix_k = (k == 0 || k == 2) ? static_cast<size_t>(k) : 2;
    auto again = seqhide::WriteBinaryDatabaseToString(*db, opts);
    Check(again.ok(), "re-serialization of a verified image failed");
    auto reopened = seqhide::MappedDatabase::FromBuffer(
        *again, {.verify_checksums = true});
    Check(reopened.ok(), "re-serialized image failed to open");
    Check(reopened->size() == strict->size(), "round-trip row count");
    Check(reopened->total_symbols() == strict->total_symbols(),
          "round-trip symbol count");
  }
  return 0;
}
