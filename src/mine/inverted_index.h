// InvertedIndex: symbol → posting-list index over a sequence database.
//
// The paper's §8 lists efficiency on large datasets as future work. The
// dominant cost of Algorithm 1's first stage is touching every sequence
// for every pattern; an inverted index prunes that to the sequences that
// contain every pattern symbol with sufficient multiplicity (a superset
// of the true supporters, verified by the exact subsequence test).
// bench_kernels (BM_SupportIndexed) measures it. The sanitizer does
// not use it: its count stage screens rows by their 64-bit symbol
// signature instead (src/seq/signature.h), which needs no index build.
//
// The index is a snapshot: it refers to sequence ids of the database it
// was built from and must be rebuilt after mutations.

#ifndef SEQHIDE_MINE_INVERTED_INDEX_H_
#define SEQHIDE_MINE_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/telemetry/mem_tracker.h"
#include "src/seq/database.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

class InvertedIndex {
 public:
  // Indexes every real (non-Δ) symbol occurrence of `db` — in-memory or
  // mapped alike.
  explicit InvertedIndex(const DatabaseView& db);
  explicit InvertedIndex(const SequenceDatabase& db);

  // Sequence ids that contain every distinct symbol of `pattern` at least
  // as many times as the pattern does — a superset of the supporters of
  // `pattern` (under any occurrence constraints). Sorted ascending.
  // Patterns with symbols never seen in the database yield an empty list.
  std::vector<size_t> CandidateSupporters(const Sequence& pattern) const;

  // Union of candidates over several patterns (sorted, deduplicated):
  // every sequence with a chance of supporting any of them.
  std::vector<size_t> CandidateSupportersAny(
      const std::vector<Sequence>& patterns) const;

  // Exact support via candidate pruning + subsequence verification.
  // Equals Support(pattern, db) (tested).
  size_t Support(const Sequence& pattern, const SequenceDatabase& db) const;

  // Number of indexed symbol occurrences (diagnostics).
  size_t TotalPostings() const { return total_postings_; }

 private:
  struct Posting {
    uint32_t sequence_id;
    uint32_t count;  // occurrences of the symbol in that sequence
  };

  // Posting storage is charged to the posting_list memory pool
  // (obs/telemetry/mem_tracker.h) so --stats-json and BENCH JSON can
  // report the index's working set; plain std::allocator when
  // observability is compiled out.
  using PostingList =
      std::vector<Posting,
                  obs::telemetry::PoolAllocator<
                      Posting, obs::telemetry::MemPool::kPostingList>>;

  // postings_[symbol] sorted by sequence_id.
  std::vector<PostingList> postings_;
  size_t total_postings_ = 0;
};

}  // namespace seqhide

#endif  // SEQHIDE_MINE_INVERTED_INDEX_H_
