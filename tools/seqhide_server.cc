// seqhide_server — long-running sanitization service over one database.
//
//   seqhide_server --db FILE (--socket PATH | --port N)
//                  [--workers N] [--threads N]
//                  [--queue-limit N] [--max-inflight-bytes N]
//                  [--cache-entries N] [--default-deadline-ms MS]
//                  [--drain-grace-ms MS] [--state-dir DIR]
//                  [--round-size N] [--checkpoint-every N]
//                  [--ledger FILE] [--metrics-prom FILE]
//                  [--telemetry-interval-ms MS]
//                  [--inject-fault site:k,...]
//
// Serves newline-delimited JSON requests (src/serve/protocol.h) on a
// Unix-domain socket or loopback TCP port (--port 0 lets the kernel
// pick; the chosen port is printed). --workers N request workers run
// side by side; 0 (the default) starts one per hardware thread. On
// startup, leftover durable jobs in --state-dir are re-run to completion
// before the endpoint binds.
//
// The first stdout line once the server is ready is
//   listening <endpoint>
// so scripts can wait for readiness by reading one line.
//
// SIGTERM / SIGINT start the drain sequence: stop accepting, shed new
// work with explicit `unavailable` responses, give in-flight requests
// --drain-grace-ms to finish, cancel the rest (durable jobs checkpoint),
// flush the run ledger, exit 0. A second signal exits immediately.
//
// --ledger opens the run ledger in append mode (one file across server
// restarts — the restart story is the point of this tool), records
// run_start/run_end plus one "request" record per terminal response.
//
// Exit code 0 on clean drain, 1 on usage errors, 2 on startup failures.

#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry/run_ledger.h"
#include "src/obs/telemetry/sampler.h"
#include "src/obs/telemetry/telemetry.h"
#include "src/serve/server.h"

namespace seqhide {
namespace {

int g_signal_pipe[2] = {-1, -1};

void OnDrainSignal(int /*signum*/) {
  // Async-signal-safe: one byte down the self-pipe wakes the main
  // thread; a second signal while draining force-exits.
  static volatile sig_atomic_t seen = 0;
  if (seen != 0) _exit(1);
  seen = 1;
  const char byte = 1;
  (void)!write(g_signal_pipe[1], &byte, 1);
}

struct Flags {
  std::map<std::string, std::string> values;

  bool Has(const std::string& name) const { return values.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  Result<size_t> GetSize(const std::string& name, size_t fallback) const {
    auto it = values.find(name);
    if (it == values.end()) return fallback;
    auto v = ParseInt64(it->second);
    if (!v.has_value() || *v < 0) {
      return Status::InvalidArgument("--" + name +
                                     " needs a non-negative int");
    }
    return static_cast<size_t>(*v);
  }
  Result<double> GetDouble(const std::string& name, double fallback) const {
    auto it = values.find(name);
    if (it == values.end()) return fallback;
    auto v = ParseDouble(it->second);
    if (!v.has_value() || *v < 0.0) {
      return Status::InvalidArgument("--" + name +
                                     " needs a non-negative number");
    }
    return *v;
  }
};

constexpr const char* kKnownFlags[] = {
    "db",          "socket",        "port",
    "workers",     "threads",       "queue-limit",
    "max-inflight-bytes",           "cache-entries",
    "default-deadline-ms",          "drain-grace-ms",
    "state-dir",   "round-size",    "checkpoint-every",
    "ledger",      "metrics-prom",  "telemetry-interval-ms",
    "inject-fault",
};

bool ParseFlags(int argc, char** argv, Flags* out) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.size() < 3 || flag[0] != '-' || flag[1] != '-') return false;
    flag = flag.substr(2);
    bool known = false;
    for (const char* k : kKnownFlags) {
      if (flag == k) known = true;
    }
    if (!known || i + 1 >= argc) return false;
    out->values[flag] = argv[++i];
  }
  return true;
}

void Usage() {
  std::cerr
      << "usage: seqhide_server --db FILE (--socket PATH | --port N)\n"
         "           [--workers N] [--threads N] [--queue-limit N]\n"
         "           [--max-inflight-bytes N] [--cache-entries N]\n"
         "           [--default-deadline-ms MS] [--drain-grace-ms MS]\n"
         "           [--state-dir DIR] [--round-size N]\n"
         "           [--checkpoint-every N] [--ledger FILE]\n"
         "           [--metrics-prom FILE] [--telemetry-interval-ms MS]\n"
         "           [--inject-fault site:k,...]\n"
         "  --workers N  request worker threads; 0 (default) = one per\n"
         "               hardware thread\n";
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags) || !flags.Has("db") ||
      flags.Has("socket") == flags.Has("port")) {
    Usage();
    return 1;
  }
  if (flags.Has("inject-fault")) {
    const Status armed =
        FaultInjector::Default().Arm(flags.values["inject-fault"]);
    if (!armed.ok()) {
      std::cerr << "error: " << armed << "\n";
      return 1;
    }
  }

  serve::ServerOptions opts;
  opts.db_path = flags.Get("db", "");
  if (flags.Has("socket")) {
    opts.socket_path = flags.values["socket"];
  } else {
    auto port = flags.GetSize("port", 0);
    if (!port.ok() || *port > 65535) {
      std::cerr << "error: --port needs an int in [0, 65535]\n";
      return 1;
    }
    opts.tcp_port = static_cast<uint16_t>(*port);
  }

  const Status parsed = [&]() -> Status {
    SEQHIDE_ASSIGN_OR_RETURN(opts.num_workers,
                             flags.GetSize("workers", opts.num_workers));
    SEQHIDE_ASSIGN_OR_RETURN(opts.num_threads,
                             flags.GetSize("threads", opts.num_threads));
    SEQHIDE_ASSIGN_OR_RETURN(
        opts.admission.queue_limit,
        flags.GetSize("queue-limit", opts.admission.queue_limit));
    SEQHIDE_ASSIGN_OR_RETURN(
        opts.admission.max_inflight_table_bytes,
        flags.GetSize("max-inflight-bytes",
                      opts.admission.max_inflight_table_bytes));
    SEQHIDE_ASSIGN_OR_RETURN(opts.cache_entries,
                             flags.GetSize("cache-entries",
                                           opts.cache_entries));
    SEQHIDE_ASSIGN_OR_RETURN(
        opts.default_deadline_ms,
        flags.GetDouble("default-deadline-ms", opts.default_deadline_ms));
    SEQHIDE_ASSIGN_OR_RETURN(
        opts.drain_grace_ms,
        flags.GetSize("drain-grace-ms", opts.drain_grace_ms));
    SEQHIDE_ASSIGN_OR_RETURN(opts.mark_round_size,
                             flags.GetSize("round-size",
                                           opts.mark_round_size));
    SEQHIDE_ASSIGN_OR_RETURN(
        opts.checkpoint_every_rounds,
        flags.GetSize("checkpoint-every", opts.checkpoint_every_rounds));
    return Status::OK();
  }();
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed << "\n";
    return 1;
  }
  opts.state_dir = flags.Get("state-dir", "");

  // The ledger opens in append mode: one audit stream across restarts.
  // Telemetry failure policy: warn and serve without it.
  std::unique_ptr<obs::telemetry::RunLedger> ledger;
  if (flags.Has("ledger")) {
    auto opened = obs::telemetry::RunLedger::Open(flags.values["ledger"],
                                                  /*append=*/true);
    if (!opened.ok()) {
      SEQHIDE_LOG(Warn) << "--ledger disabled: " << opened.status();
    } else {
      ledger = std::move(opened).value();
      ledger->Install();
      ledger->AppendRunStart("serve", opts.db_path, opts.num_threads);
    }
  }
  opts.ledger = ledger.get();

  std::unique_ptr<obs::telemetry::TelemetrySampler> sampler;
  const std::string prom_path = flags.Get("metrics-prom", "");
  if (ledger != nullptr || !prom_path.empty()) {
    obs::telemetry::TelemetrySampler::Options sampler_opts;
    auto interval = flags.GetSize("telemetry-interval-ms",
                                  sampler_opts.interval_ms);
    if (!interval.ok()) {
      std::cerr << "error: " << interval.status() << "\n";
      return 1;
    }
    sampler_opts.interval_ms = *interval;
    sampler_opts.prom_path = prom_path;
    sampler = std::make_unique<obs::telemetry::TelemetrySampler>(sampler_opts);
    sampler->Start();
  }

  auto created = serve::Server::Create(opts);
  if (!created.ok()) {
    std::cerr << "error: " << created.status() << "\n";
    return 2;
  }
  serve::Server& server = **created;
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started << "\n";
    return 2;
  }

  if (!opts.socket_path.empty()) {
    std::cout << "listening unix:" << opts.socket_path << "\n" << std::flush;
  } else {
    std::cout << "listening tcp:127.0.0.1:" << server.port() << "\n"
              << std::flush;
  }

  if (pipe(g_signal_pipe) != 0) {
    std::cerr << "error: pipe: " << std::strerror(errno) << "\n";
    return 2;
  }
  struct sigaction action {};
  action.sa_handler = OnDrainSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  SEQHIDE_LOG(Info) << "drain requested; shedding new work";
  server.RequestDrain();
  server.Join();
  if (sampler != nullptr) sampler->Stop();

  const serve::ServerStats stats = server.stats();
  std::cout << "drained ok=" << stats.requests_ok
            << " error=" << stats.requests_error << " shed=" << stats.sheds
            << " deadline=" << stats.deadline_exceeded
            << " cancelled=" << stats.cancelled
            << " recovered=" << stats.recovered_jobs << "\n"
            << std::flush;

  if (ledger != nullptr) {
    ledger->AppendRunEnd("kOk", obs::MetricsRegistry::Default().Snapshot(),
                         obs::telemetry::MemorySnapshot::Capture());
    ledger->Uninstall();
  }
  return 0;
}

}  // namespace
}  // namespace seqhide

int main(int argc, char** argv) { return seqhide::Run(argc, argv); }
