// perfbench: the repository benchmark's measuring program. run.py builds
// it and calls it three ways, each in the run's own work directory:
//
//   perfbench selfcheck
//       checks the benchmark's arithmetic (stats.h); exit 1 on a failure.
//   perfbench gen --workload W --seed N --seconds S
//       writes the workload's inputs for seed N into the current directory.
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//       measures the workload on those inputs and prints one JSON line:
//       {"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
//       with the end-to-end metrics, plus the per-layer ones with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench selfcheck\n"
               "       perfbench gen --workload W --seed N --seconds S\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

void PrintOutcome(const perfbench::RunOutcome& out) {
  std::printf("{\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i > 0 ? "," : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "selfcheck") {
    const auto failures = perfbench::SelfCheck();
    for (const std::string& f : failures) {
      std::fprintf(stderr, "selfcheck: %s\n", f.c_str());
    }
    return failures.empty() ? 0 : 1;
  }
  if (command != "gen" && command != "run") return Usage();

  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  perfbench::RunOptions opts;
  opts.workload = flags["workload"];
  if (!perfbench::KnownWorkload(opts.workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  opts.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  opts.seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str())
                                        : 10.0;
  opts.trace = flags["trace"] == "1";

  if (command == "gen") {
    const seqhide::Status s = perfbench::Generate(opts);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench gen: %s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  auto outcome = perfbench::Run(opts);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench run: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  PrintOutcome(*outcome);
  return 0;
}
