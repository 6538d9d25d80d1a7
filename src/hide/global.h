// Global stage of the sanitization algorithm (paper §4): when ψ > 0, only
// some of the supporting sequences need to be sanitized. The paper's
// heuristic sorts sequences in ascending order of matching-set size and
// sanitizes all but the last ψ (the ψ most expensive ones are disclosed
// unchanged); this guarantees that at most ψ sequences retain any matching,
// hence sup_{D'}(S_i) <= ψ for every sensitive pattern.

#ifndef SEQHIDE_HIDE_GLOBAL_H_
#define SEQHIDE_HIDE_GLOBAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/constraints/constraints.h"
#include "src/hide/options.h"
#include "src/match/kernel.h"
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
// with |D|. The view serves in-memory and memory-mapped databases alike.
// Rows are screened by their 64-bit symbol signature
// (src/seq/signature.h): db.signatures() when the view carries them, else
// computed from each row in the same pass. A (row, pattern) pair the
// signature does not admit counts 0 with no DP, and a row that admits no
// pattern is not scanned at all; the result is identical to counting
// every pair.
std::vector<SequenceMatchInfo> ComputeMatchInfo(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints);

// Parallel variant: partitions the database rows across up to
// `num_threads` workers (0 = auto, 1 = serial; see thread_pool.h). Each
// chunk lists its own supporters and the lists are joined in chunk
// order, so the result is bit-identical to the serial overload for any
// thread count.
std::vector<SequenceMatchInfo> ComputeMatchInfo(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, size_t num_threads);

// Kernel-explicit variant: Sanitize builds one MatchKernel per run and
// shares it with the verify stage; the overloads above delegate here with
// a kernel of their own. The result is bit-identical for every thread
// count. When `admitted_pairs` is non-null it receives the number of
// (row, pattern) pairs the signature screen let through to the kernel.
std::vector<SequenceMatchInfo> ComputeMatchInfo(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, size_t num_threads,
    const MatchKernel& kernel, size_t* admitted_pairs = nullptr);

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
