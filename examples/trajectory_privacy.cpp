// Trajectory privacy (the paper's motivating scenario, §1 and §7.3):
// a fleet operator wants to publish vehicle movement data for traffic
// research, but two origin→destination movements are commercially
// sensitive. The pipeline mirrors the paper's evaluation: simulate
// trajectories, discretize on a 10×10 grid, hide the sensitive cell
// transitions, and quantify what the release preserves (M1/M2/M3).

#include <iostream>

#include "src/data/generators.h"
#include "src/data/grid.h"
#include "src/data/workload.h"
#include "src/eval/metrics.h"
#include "src/hide/sanitizer.h"
#include "src/match/subsequence.h"
#include "src/mine/pattern_set.h"
#include "src/mine/prefix_span.h"

int main() {
  using namespace seqhide;

  // 1. Fleet data: depot round trips, GPS-sampled, grid-discretized.
  //    (MakeTrucksWorkload bundles simulation + discretization + the two
  //    sensitive patterns of the paper's TRUCKS experiment.)
  ExperimentWorkload workload = MakeTrucksWorkload();
  DatabaseStats stats = workload.db.Stats();
  std::cout << "fleet database: " << stats.num_sequences
            << " trajectories, mean " << stats.mean_length
            << " grid cells, alphabet " << stats.alphabet_size << "\n";
  for (size_t i = 0; i < workload.sensitive.size(); ++i) {
    std::cout << "sensitive movement " << i + 1 << ": <"
              << workload.sensitive[i].ToString(workload.db.alphabet())
              << "> observed in " << workload.sensitive_supports[i]
              << " trajectories\n";
  }

  // 2. Mine the mobility patterns an analyst would extract from the
  //    original data (support >= 30 trajectories).
  MinerOptions miner;
  miner.min_support = 30;
  miner.max_length = 5;
  Result<FrequentPatternSet> before =
      MineFrequentSequences(workload.db, miner);
  if (!before.ok()) {
    std::cerr << "mining failed: " << before.status() << "\n";
    return 1;
  }
  std::cout << "\nfrequent movement patterns before hiding: "
            << before->size() << "\n";

  // 3. Hide both sensitive movements completely (psi = 0) with HH.
  SequenceDatabase released = workload.db;
  Result<SanitizeReport> report =
      Sanitize(&released, workload.sensitive, SanitizeOptions::HH());
  if (!report.ok()) {
    std::cerr << "sanitization failed: " << report.status() << "\n";
    return 1;
  }
  std::cout << "sanitization marked " << report->marks_introduced
            << " cells in " << report->sequences_sanitized
            << " trajectories (of " << report->sequences_supporting_before
            << " supporting)\n";

  // 4. What does the released data still support? Marking only removes
  //    embeddings, so F(released) is derived from F(original) without a
  //    second mining pass.
  Result<std::vector<size_t>> supports_after = before->SupportsAfter(
      DatabaseView(workload.db), DatabaseView(released));
  if (!supports_after.ok()) {
    std::cerr << "support derivation failed: " << supports_after.status()
              << "\n";
    return 1;
  }
  Result<double> m2 =
      MeasureM2(before->supports(), *supports_after, miner.min_support);
  Result<double> m3 =
      MeasureM3(before->supports(), *supports_after, miner.min_support);
  std::cout << "\nrelease quality:\n";
  std::cout << "  M1 (cells marked)             : " << MeasureM1(released)
            << "\n";
  if (m2.ok()) {
    std::cout << "  M2 (patterns lost)            : " << *m2 << "\n";
  }
  if (m3.ok()) {
    std::cout << "  M3 (avg support distortion)   : " << *m3 << "\n";
  }
  for (size_t i = 0; i < workload.sensitive.size(); ++i) {
    std::cout << "  sup(sensitive " << i + 1 << ") after release : "
              << Support(workload.sensitive[i], released) << "\n";
  }
  return 0;
}
