// Set-based M2/M3 over two mined pattern sets: the definitional form of
// the paper's §6 measures, kept as the oracle for the derived-support
// path in src/eval/metrics.h (which never mines D′).

#ifndef SEQHIDE_TESTING_SET_METRICS_H_
#define SEQHIDE_TESTING_SET_METRICS_H_

#include "src/common/result.h"
#include "src/mine/pattern_set.h"
#include "src/seq/database.h"

namespace seqhide {
namespace proptest {

// M2 from the two mined pattern sets. Errors when F(D,σ) is empty (the
// measure is undefined) or when F(D',σ) ⊄ F(D,σ) (caller mixed up inputs).
Result<double> OracleMeasureM2(const FrequentPatternSet& frequent_original,
                               const FrequentPatternSet& frequent_sanitized);

// M3: average relative support loss over the surviving frequent patterns.
// `frequent_sanitized` must carry supports w.r.t. D'; original supports
// are recounted against `original`. Errors when F(D',σ) is empty (the
// measure is undefined) or when a support grew.
Result<double> OracleMeasureM3(const SequenceDatabase& original,
                               const FrequentPatternSet& frequent_sanitized);

// M3 with the original supports looked up in F(D,σ) instead of recounted.
Result<double> OracleMeasureM3(const FrequentPatternSet& frequent_original,
                               const FrequentPatternSet& frequent_sanitized);

}  // namespace proptest
}  // namespace seqhide

#endif  // SEQHIDE_TESTING_SET_METRICS_H_
