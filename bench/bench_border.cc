// Border-damage evaluation (extension beyond the paper's M1/M2/M3,
// motivated by the border-based hiding literature of §2): fraction of the
// positive border Bd+(F(D,σ)) destroyed by sanitization, versus ψ, for the
// four algorithms on TRUCKS (σ = max(ψ,1), mining capped at length 4).
// F(D,σ) is mined once per ψ; each sanitized copy's F(D',σ) is derived
// from it (src/mine/marked_supports.h).

#include <iomanip>
#include <iostream>

#include "src/data/workload.h"
#include "src/eval/bench_harness.h"
#include "src/eval/border.h"
#include "src/hide/sanitizer.h"
#include "src/mine/marked_supports.h"
#include "src/mine/prefix_span.h"

namespace seqhide {
namespace {

void Run(const bench::SectionRun& run) {
  bench::SectionOutput out(run);
  ExperimentWorkload w = MakeTrucksWorkload();
  out.out() << "workload " << w.name << ": |D|=" << w.db.size() << "\n\n";
  out.out() << "== Border damage vs psi (sigma = psi), TRUCKS ==\n";
  out.out() << std::setw(6) << "psi" << std::setw(10) << "|Bd+|";
  const char* labels[] = {"HH", "HR", "RH", "RR"};
  for (const char* l : labels) out.out() << std::setw(10) << l;
  out.out() << "\n";

  for (size_t psi = 5; psi <= 60; psi += 5) {
    MinerOptions miner;
    miner.min_support = psi;
    miner.max_length = 4;
    auto before = MineFrequentSequences(w.db, miner);
    if (!before.ok()) {
      out.out() << "mining error: " << before.status() << "\n";
      return;
    }
    // Miner output is downward closed within the length cap, so the
    // insertion-based fast path applies.
    FrequentPatternSet border = PositiveBorderOfClosedSet(*before);
    // F(D', σ) ⊆ F(D, σ): each run derives it instead of mining D'.
    MarkedSupports derive(*before, w.db);
    out.out() << std::setw(6) << psi << std::setw(10) << border.size();

    SanitizeOptions configs[] = {SanitizeOptions::HH(),
                                 SanitizeOptions::HR(1),
                                 SanitizeOptions::RH(1),
                                 SanitizeOptions::RR(1)};
    for (auto base : configs) {
      const bool randomized = base.local == LocalStrategy::kRandom ||
                              base.global == GlobalStrategy::kRandom;
      const size_t runs = randomized ? 10 : 1;
      double total = 0.0;
      for (size_t rep = 0; rep < runs; ++rep) {
        SanitizeOptions opts = base;
        opts.psi = psi;
        opts.seed = 3000 + rep;
        SequenceDatabase db = w.db;
        auto report = Sanitize(&db, w.sensitive, opts);
        if (!report.ok()) {
          out.out() << "\nerror: " << report.status() << "\n";
          return;
        }
        auto supports_after = derive.SupportsAfter(db);
        if (!supports_after.ok()) {
          out.out() << "\nderive error: " << supports_after.status() << "\n";
          return;
        }
        auto damage = BorderDamageAgainst(
            border, FrequentAfterMarking(*before, *supports_after, psi));
        total += damage.ok() ? *damage : 0.0;
      }
      out.out() << std::setw(10) << std::fixed << std::setprecision(4)
                << total / static_cast<double>(runs);
    }
    out.out() << "\n";
  }
  out.out() << "\nExpected shape: damage decreases in psi; the heuristic\n"
               "algorithms (H local) preserve the border at least as well\n"
               "as their random counterparts.\n";
}

}  // namespace
}  // namespace seqhide

int main(int argc, char** argv) {
  seqhide::bench::BenchHarness harness("bench_border", argc, argv);
  harness.MeasureSection("border_damage", [](const seqhide::bench::SectionRun& run) {
    seqhide::Run(run);
  });
  return harness.Finish();
}
