// Global stage of the sanitization algorithm (paper §4): when ψ > 0, only
// some of the supporting sequences need to be sanitized. The paper's
// heuristic sorts sequences in ascending order of matching-set size and
// sanitizes all but the last ψ (the ψ most expensive ones are disclosed
// unchanged); this guarantees that at most ψ sequences retain any matching,
// hence sup_{D'}(S_i) <= ψ for every sensitive pattern.

#ifndef SEQHIDE_HIDE_GLOBAL_H_
#define SEQHIDE_HIDE_GLOBAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/constraints/constraints.h"
#include "src/hide/options.h"
#include "src/match/kernel.h"
#include "src/match/scratch.h"
#include "src/obs/macros.h"
#include "src/seq/view.h"

namespace seqhide {

// Per-supporter statistics driving the global choice.
struct SequenceMatchInfo {
  size_t index = 0;           // row index in the database
  uint64_t matching_count = 0;  // |M_{S_h}^T| under constraints, > 0
  // pattern_support[i] is true iff this sequence has a constrained
  // matching of patterns[i] (drives the per-pattern-ψ extension); one
  // entry per pattern.
  std::vector<bool> pattern_support;
};

// Computes SequenceMatchInfo for the supporters of `db` — the rows with
// matching_count > 0 — in ascending row order; a row that supports no
// pattern has no entry, so the result grows with the supporters, never
// with |D|. `db` is a DatabaseView (in-memory or memory-mapped) counted
// by a MatchKernel, or a language's rows (LanguageRows,
// src/hide/pipeline.h) counted by its LanguageKernel
// (src/match/language.h). Rows are screened by their 64-bit symbol
// signature (src/seq/signature.h): db.signatures() when the view carries
// them, else computed from each row in the same pass. A (row, pattern)
// pair the signature does not admit counts 0 with no DP, and a row that
// admits no pattern is not scanned at all; the result is identical to
// counting every pair. Rows are partitioned across up to `num_threads`
// workers (0 = auto, 1 = serial; see thread_pool.h); each chunk lists its
// own supporters and the lists are joined in chunk order, so the result
// is bit-identical for any thread count. When `admitted_pairs` is
// non-null it receives the number of (row, pattern) pairs the signature
// screen let through to the kernel.
template <class Rows, class Kernel>
std::vector<SequenceMatchInfo> ComputeMatchInfo(const Rows& db,
                                                const Kernel& kernel,
                                                size_t num_threads,
                                                size_t* admitted_pairs) {
  SEQHIDE_TRACE_SPAN("compute_match_info");
  const size_t num_patterns = kernel.num_patterns();
  SEQHIDE_COUNTER_ADD("global.match_info_rows", db.size() * num_patterns);
  const uint64_t* signatures = db.signatures();
  // Each chunk lists its own supporters in row order; the lists are
  // joined in chunk order below, so the result is the same at every
  // thread count.
  std::mutex mu;
  std::vector<std::pair<size_t, std::vector<SequenceMatchInfo>>> chunks;
  const uint64_t admitted = ThreadPool::Shared().ParallelReduceSum(
      db.size(), num_threads, [&](size_t begin, size_t end) -> uint64_t {
        // One scratch per chunk: warm across the chunk's rows, and never
        // shared between workers. The kernel itself is immutable shared
        // state (the trie built once, read concurrently).
        MatchScratch scratch;
        std::vector<SequenceMatchInfo> supporters;
        uint64_t pairs = 0;
        for (size_t t = begin; t < end; ++t) {
          const auto& row = db.row(t);
          const uint64_t sig =
              signatures != nullptr ? signatures[t] : kernel.Signature(row);
          size_t row_pairs = 0;
          for (size_t p = 0; p < num_patterns; ++p) {
            if (kernel.Admits(p, sig)) ++row_pairs;
          }
          if (row_pairs == 0) continue;
          pairs += row_pairs;
          std::vector<uint64_t>& counts = scratch.pattern_counts;
          const uint64_t count = kernel.CountRow(row, sig, &scratch, &counts);
          if (count == 0) continue;
          SequenceMatchInfo& info = supporters.emplace_back();
          info.index = t;
          info.matching_count = count;
          info.pattern_support.resize(num_patterns);
          for (size_t p = 0; p < num_patterns; ++p) {
            info.pattern_support[p] = (counts[p] > 0);
          }
        }
        if (!supporters.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(begin, std::move(supporters));
        }
        return pairs;
      });
  if (admitted_pairs != nullptr) {
    *admitted_pairs = static_cast<size_t>(admitted);
  }
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<SequenceMatchInfo> info;
  for (auto& chunk : chunks) {
    std::move(chunk.second.begin(), chunk.second.end(),
              std::back_inserter(info));
  }
  return info;
}

// Serial convenience: a MatchKernel of its own over `patterns` and
// `constraints` (empty, or parallel to `patterns`).
std::vector<SequenceMatchInfo> ComputeMatchInfo(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints);

// Returns the row indices of the sequences to sanitize, ascending, so
// that at most `psi` sequences keep a matching. `info` is
// ComputeMatchInfo's supporter list (row order), and only its rows are
// ever selected. `rng` is needed only by GlobalStrategy::kRandom. `db` is
// consulted only by the length/autocorrelation tie-break strategies, and
// works zero-copy off a mapped database.
std::vector<size_t> SelectSequencesToSanitize(
    const DatabaseView& db, const std::vector<SequenceMatchInfo>& info,
    GlobalStrategy strategy, size_t psi, Rng* rng);

// Per-pattern disclosure thresholds (paper §8 future work): chooses a set
// to sanitize such that for every pattern i at most psi[i] supporters
// survive. Walks supporters in descending matching-set size (most
// expensive first) and keeps a supporter unsanitized only while every
// pattern it supports still has allowance left — for a uniform psi vector
// this degenerates to a set no larger than the paper's rule produces.
std::vector<size_t> SelectSequencesToSanitizeMultiThreshold(
    const std::vector<SequenceMatchInfo>& info,
    const std::vector<size_t>& per_pattern_psi);

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_GLOBAL_H_
