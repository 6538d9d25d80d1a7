// Spatio-temporal hiding (paper §7.2/§7.3): the TRUCKS workload with real
// time tags. A sensitive movement is only telling when it happens
// *quickly* (the paper's events-with-real-time-tags extension expresses
// gap/window constraints in time units); the tighter the time window, the
// fewer occurrences are sensitive and the less distortion hiding costs —
// the temporal analogue of Figure 1(i).

#include <iomanip>
#include <iostream>
#include <limits>

#include "src/data/timed_workload.h"
#include "src/eval/bench_harness.h"
#include "src/hide/pipeline.h"
#include "src/temporal/timed_match.h"

namespace seqhide {
namespace {

void Run(const bench::SectionRun& run) {
  bench::SectionOutput out(run);
  TimedWorkload w = MakeTimedTrucksWorkload();
  out.out() << "workload " << w.name << ": |D|=" << w.sequences.size()
            << "\n";
  for (size_t i = 0; i < w.sensitive.size(); ++i) {
    out.out() << "  sensitive S" << i + 1 << " = <"
              << w.sensitive[i].ToString(w.alphabet) << ">\n";
  }

  struct Level {
    const char* label;
    double window_minutes;
  };
  const Level levels[] = {
      {"no-time-window", std::numeric_limits<double>::infinity()},
      {"window<=60min", 60.0},
      {"window<=20min", 20.0},
      {"window<=8min", 8.0},
  };

  out.out() << "\n== Temporal analogue of Fig 1(i): M1 vs psi, HH with "
               "real-time max-window ==\n";
  out.out() << std::setw(8) << "psi";
  for (const auto& level : levels) out.out() << std::setw(18) << level.label;
  out.out() << "\n";

  for (size_t psi = 0; psi <= 60; psi += 10) {
    out.out() << std::setw(8) << psi;
    for (const auto& level : levels) {
      TimeConstraintSpec spec;
      spec.max_window_time = level.window_minutes;
      SanitizeOptions opts;
      opts.psi = psi;
      std::vector<TimedSequence> db = w.sequences;  // fresh copy
      auto report = SanitizeRows<TimedLanguage>(
          &db, w.sensitive,
          std::vector<TimeConstraintSpec>(w.sensitive.size(), spec), opts);
      if (!report.ok()) {
        out.out() << "\nerror: " << report.status() << "\n";
        return;
      }
      out.out() << std::setw(18) << report->marks_introduced;
    }
    out.out() << "\n";
  }
  out.out() << "\n(at psi=0 with no window this matches the untimed "
               "fig1a/1i baseline; supports differ slightly because the\n"
               " timed discretization keeps per-cell entry events)\n";
}

}  // namespace
}  // namespace seqhide

int main(int argc, char** argv) {
  seqhide::bench::BenchHarness harness("bench_temporal", argc, argv);
  harness.MeasureSection("temporal_window", [](const seqhide::bench::SectionRun& run) {
    seqhide::Run(run);
  });
  return harness.Finish();
}
