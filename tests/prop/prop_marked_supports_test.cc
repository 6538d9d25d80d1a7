// Differential properties for the derived supports
// (mine/marked_supports.h): deriving F(D′,σ) from F(D,σ) on the rows that
// gained a Δ must equal mining D′ with PrefixSpan, for random Δ-markings
// and for the sanitizer's own output, over σ from 1 up, max_length in
// {0, 2, 4} and min_length > 1. The M2/M3 computed from the derived
// supports must equal the set-based oracles (src/testing/set_metrics.h)
// on the mined F(D′,σ) bit for bit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/eval/metrics.h"
#include "src/hide/sanitizer.h"
#include "src/match/subsequence.h"
#include "src/mine/marked_supports.h"
#include "src/mine/prefix_span.h"
#include "src/testing/set_metrics.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

// Marks each real position of `db` with probability `density`.
SequenceDatabase RandomMarking(const SequenceDatabase& db, uint64_t seed,
                               double density) {
  Rng rng(seed);
  SequenceDatabase marked = db;
  for (size_t i = 0; i < marked.size(); ++i) {
    Sequence* row = marked.mutable_sequence(i);
    for (size_t j = 0; j < row->size(); ++j) {
      if (IsRealSymbol((*row)[j]) && rng.NextDouble() < density) {
        row->Mark(j);
      }
    }
  }
  return marked;
}

std::string Describe(const MinerOptions& opts) {
  return " (sigma=" + std::to_string(opts.min_support) +
         " min_length=" + std::to_string(opts.min_length) +
         " max_length=" + std::to_string(opts.max_length) + ")";
}

// Both measures undefined, or both defined with identical bits.
std::string SameMeasure(const char* name, const Result<double>& derived,
                        const Result<double>& oracle) {
  if (derived.ok() != oracle.ok()) {
    return std::string(name) + " derived " +
           (derived.ok() ? "ok" : derived.status().ToString()) +
           " but oracle " + (oracle.ok() ? "ok" : oracle.status().ToString());
  }
  if (!derived.ok()) {
    if (!derived.status().IsFailedPrecondition() ||
        !oracle.status().IsFailedPrecondition()) {
      return std::string(name) + " failed with " +
             derived.status().ToString() + " / " + oracle.status().ToString();
    }
    return std::string();
  }
  if (*derived != *oracle) {
    return std::string(name) + " derived " + std::to_string(*derived) +
           " != oracle " + std::to_string(*oracle);
  }
  return std::string();
}

// Derived F(D′) and M2/M3 against mining `marked` for one option set.
std::string CheckDerivation(const SequenceDatabase& original,
                            const SequenceDatabase& marked,
                            const MinerOptions& opts) {
  auto before = MineFrequentSequences(original, opts);
  auto mined_after = MineFrequentSequences(marked, opts);
  if (!before.ok() || !mined_after.ok()) {
    return "mining failed" + Describe(opts);
  }
  MarkedSupports derive(*before, original);
  auto supports = derive.SupportsAfter(marked);
  if (!supports.ok()) {
    return "derivation failed: " + supports.status().ToString() +
           Describe(opts);
  }
  size_t k = 0;
  for (const auto& [pattern, support] : before->patterns()) {
    (void)support;
    const size_t truth = Support(pattern, marked);
    if ((*supports)[k] != truth) {
      return "derived sup_D'(" + pattern.DebugString() +
             ")=" + std::to_string((*supports)[k]) + " but recount " +
             std::to_string(truth) + Describe(opts);
    }
    ++k;
  }
  FrequentPatternSet derived =
      FrequentAfterMarking(*before, *supports, opts.min_support);
  if (!(derived == *mined_after)) {
    return "derived |F(D')|=" + std::to_string(derived.size()) +
           " != PrefixSpan(D') " + std::to_string(mined_after->size()) +
           Describe(opts);
  }
  std::string m2 = SameMeasure(
      "M2", MeasureM2(derive.supports_before(), *supports, opts.min_support),
      OracleMeasureM2(*before, *mined_after));
  if (!m2.empty()) return m2 + Describe(opts);
  std::string m3 = SameMeasure(
      "M3", MeasureM3(derive.supports_before(), *supports, opts.min_support),
      OracleMeasureM3(*before, *mined_after));
  if (!m3.empty()) return m3 + Describe(opts);
  return std::string();
}

// CheckDerivation over max_length {0, 2, 4} × min_length {1, 2, 3}
// (skipping empty windows) at each σ in `sigmas`.
std::string CheckGrid(const SequenceDatabase& original,
                      const SequenceDatabase& marked,
                      const std::vector<size_t>& sigmas) {
  for (size_t sigma : sigmas) {
    for (size_t max_length : {0u, 2u, 4u}) {
      for (size_t min_length : {1u, 2u, 3u}) {
        if (max_length != 0 && min_length > max_length) continue;
        MinerOptions opts;
        opts.min_support = sigma;
        opts.min_length = min_length;
        opts.max_length = max_length;
        std::string failure = CheckDerivation(original, marked, opts);
        if (!failure.empty()) return failure;
      }
    }
  }
  return std::string();
}

PropConfig Config(const char* name, uint64_t seed) {
  PropConfig config;
  config.name = name;
  config.seed = seed;
  return config;
}

TEST(MarkedSupportsProps, RandomMarkingEqualsMining) {
  EXPECT_PROP_OK(CheckProperty(
      Config("derive/random-marking-equals-mining", 0x5eed0d01),
      [](const PropInstance& inst) {
        const double density = 0.05 + 0.1 * (inst.options.seed % 4);
        SequenceDatabase marked =
            RandomMarking(inst.db, inst.options.seed, density);
        return CheckGrid(inst.db, marked, {1, 2, 3, 5});
      }));
}

TEST(MarkedSupportsProps, SanitizerOutputEqualsMining) {
  EXPECT_PROP_OK(CheckProperty(
      Config("derive/sanitizer-output-equals-mining", 0x5eed0d02),
      [](const PropInstance& inst) {
        SequenceDatabase marked = inst.db;
        auto report =
            Sanitize(&marked, inst.patterns, inst.constraints, inst.options);
        if (!report.ok()) {
          return "sanitize failed: " + report.status().ToString();
        }
        const size_t sigma = std::max<size_t>(inst.options.psi, 1);
        return CheckGrid(inst.db, marked, {1, sigma});
      }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
