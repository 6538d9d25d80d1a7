// Experiment runner: reproduces the paper's §6 sweeps.
//
// A sweep runs a set of algorithm configurations (local × global strategy,
// optionally with a uniform occurrence constraint on the sensitive
// patterns) over a range of disclosure thresholds ψ, measuring M1 and —
// when requested — M2/M3 with the mining threshold σ tied to ψ as in the
// paper (σ = max(ψ, 1) so F(D,σ) stays finite at ψ = 0). Configurations
// that use a Random strategy are averaged over `random_runs` seeded runs
// (the paper uses 10).

#ifndef SEQHIDE_EVAL_EXPERIMENT_H_
#define SEQHIDE_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/constraints/constraints.h"
#include "src/data/workload.h"
#include "src/hide/options.h"

namespace seqhide {

// One algorithm configuration (one curve in a figure panel).
struct AlgorithmSpec {
  std::string label;  // e.g. "HH", "RR", "HH mingap>=2"
  LocalStrategy local = LocalStrategy::kHeuristic;
  GlobalStrategy global = GlobalStrategy::kHeuristic;
  // Uniform constraint applied to every sensitive pattern (fig 1g-i);
  // default unconstrained.
  ConstraintSpec constraint;

  static AlgorithmSpec HH() { return {"HH", LocalStrategy::kHeuristic, GlobalStrategy::kHeuristic, {}}; }
  static AlgorithmSpec HR() { return {"HR", LocalStrategy::kHeuristic, GlobalStrategy::kRandom, {}}; }
  static AlgorithmSpec RH() { return {"RH", LocalStrategy::kRandom, GlobalStrategy::kHeuristic, {}}; }
  static AlgorithmSpec RR() { return {"RR", LocalStrategy::kRandom, GlobalStrategy::kRandom, {}}; }
  // The four paper algorithms in presentation order.
  static std::vector<AlgorithmSpec> PaperFour();

  bool IsRandomized() const {
    return local == LocalStrategy::kRandom ||
           global == GlobalStrategy::kRandom;
  }
};

struct SweepOptions {
  std::vector<size_t> psi_values;
  std::vector<AlgorithmSpec> algorithms;
  size_t random_runs = 10;
  uint64_t base_seed = 99;
  // Compute M2/M3: F(D, σ) is mined once per ψ, and each run derives
  // F(D', σ) from it (src/eval/metrics.h). When false the m2/m3 cells
  // are NaN.
  bool compute_pattern_measures = false;
  // Cap on mined pattern length (0 = unlimited); the distortion measures
  // are dominated by short patterns, and a cap keeps low-σ sweeps fast.
  size_t miner_max_length = 0;
};

// Measures for one (algorithm, ψ) cell, averaged over runs.
struct SweepCell {
  double m1 = 0.0;
  double m2 = std::numeric_limits<double>::quiet_NaN();
  double m3 = std::numeric_limits<double>::quiet_NaN();
};

struct SweepResult {
  std::string workload_name;
  std::vector<size_t> psi_values;
  std::vector<std::string> algorithm_labels;
  // cells[a][p] for algorithm a at psi_values[p].
  std::vector<std::vector<SweepCell>> cells;
};

// Runs the sweep. The workload database is copied per run; the input
// workload is never modified. A run whose M2 or M3 is undefined
// (FailedPrecondition: F(D, σ) or F(D', σ) empty) is left out of that
// cell's average, and the cell is NaN when no run defines it; any other
// measure error breaks an invariant and is returned.
Result<SweepResult> RunSweep(const ExperimentWorkload& workload,
                             const SweepOptions& options);

}  // namespace seqhide

#endif  // SEQHIDE_EVAL_EXPERIMENT_H_
