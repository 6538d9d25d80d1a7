#include "src/eval/experiment.h"

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "src/common/logging.h"
#include "src/eval/metrics.h"
#include "src/hide/sanitizer.h"
#include "src/mine/pattern_set.h"
#include "src/mine/prefix_span.h"

namespace seqhide {
namespace {

// Adds one run's M2 or M3 to its cell's running sum. An undefined measure
// (FailedPrecondition) leaves the run out of the average; any other error
// is a broken invariant and propagates.
Status AddMeasure(const Result<double>& measure, double* sum, size_t* runs) {
  if (!measure.ok()) {
    return measure.status().IsFailedPrecondition() ? Status::OK()
                                                   : measure.status();
  }
  *sum += *measure;
  ++*runs;
  return Status::OK();
}

}  // namespace

std::vector<AlgorithmSpec> AlgorithmSpec::PaperFour() {
  return {HH(), HR(), RH(), RR()};
}

Result<SweepResult> RunSweep(const ExperimentWorkload& workload,
                             const SweepOptions& options) {
  if (options.psi_values.empty()) {
    return Status::InvalidArgument("sweep needs at least one psi value");
  }
  if (options.algorithms.empty()) {
    return Status::InvalidArgument("sweep needs at least one algorithm");
  }
  if (options.random_runs == 0) {
    return Status::InvalidArgument("random_runs must be >= 1");
  }

  SweepResult result;
  result.workload_name = workload.name;
  result.psi_values = options.psi_values;
  for (const auto& alg : options.algorithms) {
    result.algorithm_labels.push_back(alg.label);
  }
  result.cells.assign(
      options.algorithms.size(),
      std::vector<SweepCell>(options.psi_values.size(), SweepCell{}));

  const DatabaseView original(workload.db);
  for (size_t pi = 0; pi < options.psi_values.size(); ++pi) {
    const size_t psi = options.psi_values[pi];
    const size_t sigma = std::max<size_t>(psi, 1);

    // F(D, σ) is mined once and shared by every run at this ψ: each run
    // derives its F(D', σ) ⊆ F(D, σ) from it instead of mining D'.
    std::optional<FrequentPatternSet> frequent_original;
    if (options.compute_pattern_measures) {
      MinerOptions miner;
      miner.min_support = sigma;
      miner.max_length = options.miner_max_length;
      SEQHIDE_ASSIGN_OR_RETURN(frequent_original,
                               MineFrequentSequences(workload.db, miner));
    }

    for (size_t ai = 0; ai < options.algorithms.size(); ++ai) {
      const AlgorithmSpec& alg = options.algorithms[ai];
      const size_t runs = alg.IsRandomized() ? options.random_runs : 1;

      double m1_sum = 0.0;
      double m2_sum = 0.0;
      double m3_sum = 0.0;
      size_t m2_runs = 0;
      size_t m3_runs = 0;

      for (size_t run = 0; run < runs; ++run) {
        SanitizeOptions opts;
        opts.local = alg.local;
        opts.global = alg.global;
        opts.psi = psi;
        opts.seed = options.base_seed + 7919 * run + 104729 * ai;

        std::vector<ConstraintSpec> constraints;
        if (!alg.constraint.IsUnconstrained()) {
          constraints.assign(workload.sensitive.size(), alg.constraint);
        }
        // The sanitized copy is read through the overlay; D is not copied.
        SEQHIDE_ASSIGN_OR_RETURN(
            SanitizeResult sanitized,
            SanitizeView(original, workload.sensitive, constraints, opts));
        m1_sum += static_cast<double>(sanitized.report.marks_introduced);

        if (frequent_original.has_value()) {
          const std::vector<size_t>& before = frequent_original->supports();
          SEQHIDE_ASSIGN_OR_RETURN(
              std::vector<size_t> after,
              frequent_original->SupportsAfter(
                  original, original.Overlay(sanitized.overlay)));
          SEQHIDE_RETURN_IF_ERROR(AddMeasure(
              MeasureM2(before, after, sigma), &m2_sum, &m2_runs));
          SEQHIDE_RETURN_IF_ERROR(AddMeasure(
              MeasureM3(before, after, sigma), &m3_sum, &m3_runs));
        }
      }

      SweepCell& cell = result.cells[ai][pi];
      cell.m1 = m1_sum / static_cast<double>(runs);
      if (m2_runs > 0) cell.m2 = m2_sum / static_cast<double>(m2_runs);
      if (m3_runs > 0) cell.m3 = m3_sum / static_cast<double>(m3_runs);
    }
  }
  return result;
}

}  // namespace seqhide
