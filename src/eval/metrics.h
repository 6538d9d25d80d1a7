// Distortion measures of the paper's evaluation (§6).
//
//  M1 (data distortion): total number of marking symbols Δ in D'.
//  M2 (frequent pattern distortion):
//        (|F(D,σ)| − |F(D',σ)|) / |F(D,σ)|
//  M3 (frequent pattern support distortion):
//        (1/|F(D',σ)|) · Σ_{S ∈ F(D',σ)} (sup_D(S) − sup_D'(S)) / sup_D(S)
//
// Marking never increases a support, so F(D',σ) ⊆ F(D,σ) and both M2 and
// M3 lie in [0, 1]. M2/M3 are therefore computed without mining D′: only
// F(D,σ) is mined, MarkedSupports (src/mine/marked_supports.h) re-checks
// its patterns on the rows that gained a Δ, and F(D',σ) is the patterns
// whose derived support stays ≥ σ. The set-based forms over a
// mined F(D',σ) are kept as test oracles in src/testing/set_metrics.h.

#ifndef SEQHIDE_EVAL_METRICS_H_
#define SEQHIDE_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "src/common/result.h"
#include "src/seq/database.h"

namespace seqhide {

// M1 of a sanitized database (number of Δ symbols it contains).
size_t MeasureM1(const SequenceDatabase& sanitized);

// M2 and M3 from the supports of F(D,σ)'s patterns in D and in D′,
// parallel and in canonical order (as MarkedSupports provides them).
// F(D′,σ) is the patterns whose support in D′ is ≥ `min_support`; the
// sums run in canonical order, so the doubles equal those of the
// set-based measures on a mined F(D′,σ) bit for bit.
//
// FailedPrecondition when the measure is undefined: F(D,σ) empty for M2,
// F(D′,σ) empty for M3 (the paper's plots only cover thresholds where it
// is not). InvalidArgument when the inputs are inconsistent: arrays of
// different lengths, a zero original support, or a support that grew.
Result<double> MeasureM2(const std::vector<size_t>& supports_before,
                         const std::vector<size_t>& supports_after,
                         size_t min_support);
Result<double> MeasureM3(const std::vector<size_t>& supports_before,
                         const std::vector<size_t>& supports_after,
                         size_t min_support);

}  // namespace seqhide

#endif  // SEQHIDE_EVAL_METRICS_H_
