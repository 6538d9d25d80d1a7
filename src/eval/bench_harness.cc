#include "src/eval/bench_harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "src/common/string_util.h"
#include "src/obs/telemetry/telemetry.h"
#include "src/obs/stats_json.h"

namespace seqhide {
namespace bench {

std::string BenchUsage(std::string_view bench_name) {
  std::string name(bench_name);
  return "usage: " + name +
         " [--json FILE] [--trace-json FILE] [--repeats N] [--warmup N]"
         " [--quick]\n"
         "  --json FILE        write machine-readable BENCH report"
         " (docs/benchmarking.md)\n"
         "  --trace-json FILE  write Chrome trace-event spans"
         " (load in Perfetto)\n"
         "  --repeats N        measured repetitions per section"
         " (default 3)\n"
         "  --warmup N         unmeasured warmup runs per section"
         " (default 1)\n"
         "  --quick            repeats=1, warmup=0 (CI quick mode)\n";
}

Result<BenchConfig> ParseBenchArgs(std::string_view bench_name, int* argc,
                                   char** argv, bool allow_unknown) {
  BenchConfig config;
  config.bench_name = bench_name;
  std::optional<size_t> repeats;
  std::optional<size_t> warmup;

  auto parse_count = [](const char* flag,
                        const char* text) -> Result<size_t> {
    auto v = ParseInt64(text);
    if (!v.has_value() || *v < 1) {
      return Status::InvalidArgument(std::string(flag) +
                                     " needs a positive integer");
    }
    return static_cast<size_t>(*v);
  };

  int out = 1;  // argv[0] stays
  for (int i = 1; i < *argc; ++i) {
    std::string_view arg = argv[i];
    auto take_value = [&]() -> Result<const char*> {
      if (i + 1 >= *argc) {
        return Status::InvalidArgument(std::string(arg) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--json") {
      SEQHIDE_ASSIGN_OR_RETURN(const char* v, take_value());
      config.json_path = v;
    } else if (arg == "--trace-json") {
      SEQHIDE_ASSIGN_OR_RETURN(const char* v, take_value());
      config.trace_json_path = v;
    } else if (arg == "--repeats") {
      SEQHIDE_ASSIGN_OR_RETURN(const char* v, take_value());
      SEQHIDE_ASSIGN_OR_RETURN(size_t n, parse_count("--repeats", v));
      repeats = n;
    } else if (arg == "--warmup") {
      SEQHIDE_ASSIGN_OR_RETURN(const char* v, take_value());
      auto parsed = ParseInt64(v);
      if (!parsed.has_value() || *parsed < 0) {
        return Status::InvalidArgument("--warmup needs a non-negative int");
      }
      warmup = static_cast<size_t>(*parsed);
    } else if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      config.help = true;
    } else if (allow_unknown) {
      argv[out++] = argv[i];
    } else {
      return Status::InvalidArgument("unknown flag: " + std::string(arg));
    }
  }
  if (!allow_unknown) {
    // Everything was consumed; keep argv consistent anyway.
    out = 1;
  }
  *argc = out;

  if (config.quick) {
    config.repeats = 1;
    config.warmup = 0;
  }
  if (repeats.has_value()) config.repeats = *repeats;
  if (warmup.has_value()) config.warmup = *warmup;
  return config;
}

TimingStats ComputeTimingStats(std::vector<uint64_t> samples_ns) {
  TimingStats stats;
  if (samples_ns.empty()) return stats;
  std::sort(samples_ns.begin(), samples_ns.end());
  stats.repeats = samples_ns.size();
  stats.min_ns = samples_ns.front();
  stats.max_ns = samples_ns.back();
  size_t mid = samples_ns.size() / 2;
  stats.median_ns = samples_ns.size() % 2 == 1
                        ? samples_ns[mid]
                        : (samples_ns[mid - 1] + samples_ns[mid]) / 2;
  double sum = 0.0;
  for (uint64_t s : samples_ns) sum += static_cast<double>(s);
  stats.mean_ns = sum / static_cast<double>(samples_ns.size());
  double var = 0.0;
  for (uint64_t s : samples_ns) {
    double d = static_cast<double>(s) - stats.mean_ns;
    var += d * d;
  }
  stats.stddev_ns = std::sqrt(var / static_cast<double>(samples_ns.size()));
  return stats;
}

BenchEnvironment BenchEnvironment::Capture() {
  BenchEnvironment env;
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + __VERSION__;
#else
  env.compiler = "unknown";
#endif
#if defined(SEQHIDE_BUILD_TYPE)
  env.build_type = SEQHIDE_BUILD_TYPE;
#else
  env.build_type = "unknown";
#endif
#if defined(SEQHIDE_GIT_SHA)
  env.git_sha = SEQHIDE_GIT_SHA;
#else
  env.git_sha = "unknown";
#endif
  env.cpu_count = std::thread::hardware_concurrency();
#if defined(SEQHIDE_OBS_DISABLED)
  env.observability = false;
#else
  env.observability = true;
#endif
  return env;
}

std::string BenchReportToJson(const BenchReport& report) {
  obs::JsonWriter json;
  json.BeginObject();
  json.KeyInt("schema_version", 1);
  json.KeyString("kind", "bench");
  json.KeyString("name", report.name);

  json.Key("environment").BeginObject();
  json.KeyString("compiler", report.environment.compiler);
  json.KeyString("build_type", report.environment.build_type);
  json.KeyString("git_sha", report.environment.git_sha);
  json.KeyUint("cpu_count", report.environment.cpu_count);
  json.KeyBool("observability", report.environment.observability);
  json.EndObject();

  json.Key("config").BeginObject();
  json.KeyUint("repeats", report.config.repeats);
  json.KeyUint("warmup", report.config.warmup);
  json.KeyBool("quick", report.config.quick);
  json.EndObject();

  json.Key("sections").BeginArray();
  for (const BenchSection& section : report.sections) {
    json.BeginObject();
    json.KeyString("name", section.name);
    json.KeyUint("repeats", section.timing.repeats);
    json.KeyUint("median_ns", section.timing.median_ns);
    json.KeyUint("min_ns", section.timing.min_ns);
    json.KeyUint("max_ns", section.timing.max_ns);
    json.KeyDouble("mean_ns", section.timing.mean_ns);
    json.KeyDouble("stddev_ns", section.timing.stddev_ns);
    json.Key("counters").BeginObject();
    for (const auto& [name, value] : section.counters) {
      json.KeyDouble(name, value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.Key("memory").BeginObject();
  obs::telemetry::WriteMemoryMembers(report.memory, &json);
  json.EndObject();

  if (report.registry.has_value()) {
    obs::WriteSnapshotMembers(*report.registry, &json);
  }
  json.EndObject();
  return json.str();
}

Status WriteBenchReportJson(const BenchReport& report,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open --json file for writing: " +
                                   path);
  }
  out << BenchReportToJson(report) << "\n";
  if (!out.good()) {
    return Status::Internal("failed writing --json file: " + path);
  }
  return Status::OK();
}

BenchHarness::BenchHarness(std::string_view bench_name, int argc,
                           char** argv) {
  Result<BenchConfig> config = ParseBenchArgs(bench_name, &argc, argv);
  if (!config.ok()) {
    std::cerr << "error: " << config.status() << "\n"
              << BenchUsage(bench_name);
    std::exit(1);
  }
  if (config->help) {
    std::cout << BenchUsage(bench_name);
    std::exit(0);
  }
  config_ = *std::move(config);
  if (!config_.trace_json_path.empty()) {
    recorder_ = std::make_unique<obs::TraceEventRecorder>();
    recorder_->Install();
  }
}

BenchHarness::BenchHarness(BenchConfig config) : config_(std::move(config)) {
  if (!config_.trace_json_path.empty()) {
    recorder_ = std::make_unique<obs::TraceEventRecorder>();
    recorder_->Install();
  }
}

BenchHarness::~BenchHarness() {
  if (recorder_ != nullptr) recorder_->Uninstall();
}

void BenchHarness::MeasureSection(
    std::string_view name, const std::function<void(const SectionRun&)>& fn) {
  using Clock = std::chrono::steady_clock;
  SectionRun run;
  run.repeats = config_.repeats;
  for (size_t w = 0; w < config_.warmup; ++w) {
    run.repeat = w;
    run.warmup = true;
    run.last = false;
    fn(run);
  }
  obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  std::vector<uint64_t> samples;
  samples.reserve(config_.repeats);
  for (size_t r = 0; r < config_.repeats; ++r) {
    run.repeat = config_.warmup + r;
    run.warmup = false;
    run.last = r + 1 == config_.repeats;
    Clock::time_point start = Clock::now();
    fn(run);
    samples.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
  }
  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Default().Snapshot());

  BenchSection section;
  section.name = name;
  section.timing = ComputeTimingStats(std::move(samples));
  // Every measured repeat performs identical work, so delta / repeats is
  // the per-repeat value — exact in double for any realistic magnitude.
  for (const auto& [counter, value] : delta.counters) {
    if (value == 0) continue;
    section.counters[counter] =
        static_cast<double>(value) / static_cast<double>(config_.repeats);
  }
  sections_.push_back(std::move(section));
}

void BenchHarness::MeasureSection(std::string_view name,
                                  const std::function<void()>& fn) {
  MeasureSection(name, [&fn](const SectionRun&) { fn(); });
}

void BenchHarness::AddSection(BenchSection section) {
  sections_.push_back(std::move(section));
}

int BenchHarness::Finish(bool registry_dump) {
  finished_ = true;
  if (!config_.json_path.empty()) {
    BenchReport report;
    report.name = config_.bench_name;
    report.environment = BenchEnvironment::Capture();
    report.config = config_;
    report.sections = sections_;
    if (registry_dump) {
      report.registry = obs::MetricsRegistry::Default().Snapshot();
    }
    report.memory = obs::telemetry::MemorySnapshot::Capture();
    Status status = WriteBenchReportJson(report, config_.json_path);
    if (!status.ok()) {
      std::cerr << "error: " << status << "\n";
      return 2;
    }
    std::cout << "wrote " << config_.json_path << "\n";
  }
  if (recorder_ != nullptr) {
    recorder_->Uninstall();
    Status status = recorder_->WriteChromeTrace(config_.trace_json_path);
    if (!status.ok()) {
      std::cerr << "error: " << status << "\n";
      return 2;
    }
    std::cout << "wrote " << config_.trace_json_path << " ("
              << recorder_->size() << " events";
    if (recorder_->dropped() > 0) {
      std::cout << ", " << recorder_->dropped() << " dropped";
    }
    std::cout << ")\n";
  }
  return 0;
}

}  // namespace bench
}  // namespace seqhide
