// Benchmarks for the serving layer (src/serve/): request round-trip
// latency over a real Unix socket, the match-info cache's hit/miss
// spread, sanitize-request service time, and the admission controller's
// shed arithmetic. BM_PingRoundTrip is the wire+framing floor every
// other number sits on; BM_SupportHitCache vs BM_SupportMissCache is the
// price the cache saves per repeated query. The deterministic counters
// (shed counts, cache hit/miss totals per iteration) let
// tools/bench_compare --counters-only catch behavioural regressions —
// an admission change that sheds more or fewer requests for the same
// offered load fails the baseline gate even if timings drift.
//
// The in-process server is started once per benchmark over a scratch
// database in the temp directory; clients use no retries so a shed or
// error would surface as SkipWithError rather than being silently
// absorbed.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "bench/gbench_json.h"
#include "src/common/random.h"
#include "src/seq/database.h"
#include "src/seq/io.h"
#include "src/serve/admission.h"
#include "src/serve/client.h"
#include "src/serve/match_cache.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"

namespace seqhide {
namespace {

using serve::AdmissionController;
using serve::AdmissionLimits;
using serve::Method;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServeClient;
using serve::ServerOptions;

// A small synthetic database: big enough that support queries do real
// matching work, small enough that server startup stays out of the
// timed region's noise floor.
constexpr size_t kRows = 2048;

// Written once per process, never reused from an earlier run: a file of
// that name left in the temp directory may describe another database.
// The rows go to a pid-named file renamed into place, so a concurrent
// run never reads a half-written one.
std::string TextDbPath() {
  static std::filesystem::path dir = std::filesystem::temp_directory_path();
  static bool written = false;
  std::string path = (dir / "seqhide_bench_serve_db.txt").string();
  if (!written) {
    written = true;
    Rng rng(kRows);
    SequenceDatabase db;
    const size_t alphabet = 32;
    for (size_t s = 0; s < alphabet; ++s) {
      db.alphabet().Intern("s" + std::to_string(s));
    }
    for (size_t t = 0; t < kRows; ++t) {
      Sequence seq;
      const size_t len = 8 + rng.NextBounded(16);
      for (size_t i = 0; i < len; ++i) {
        seq.Append(static_cast<SymbolId>(rng.NextBounded(alphabet)));
      }
      db.Add(std::move(seq));
    }
    const std::string tmp = path + "." + std::to_string(::getpid());
    Status s = WriteDatabaseToFile(db, tmp);
    std::error_code renamed;
    if (s.ok()) std::filesystem::rename(tmp, path, renamed);
    if (s.ok() && renamed) s = Status::IOError("rename: " + renamed.message());
    if (!s.ok()) {
      std::fprintf(stderr, "bench setup failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  return path;
}

// One live server + connected client per benchmark run. The socket path
// embeds the pid so parallel bench invocations never collide.
struct LiveServer {
  std::unique_ptr<Server> server;
  std::unique_ptr<ServeClient> client;
  std::string socket_path;

  ~LiveServer() {
    if (server != nullptr) {
      server->RequestDrain();
      server->Join();
    }
    if (!socket_path.empty()) std::remove(socket_path.c_str());
  }
};

std::unique_ptr<LiveServer> StartServer(benchmark::State& state,
                                        size_t cache_entries) {
  auto live = std::make_unique<LiveServer>();
  live->socket_path =
      (std::filesystem::temp_directory_path() /
       ("seqhide_bench_serve_" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::remove(live->socket_path.c_str());

  ServerOptions opts;
  opts.db_path = TextDbPath();
  opts.socket_path = live->socket_path;
  opts.num_workers = 2;
  opts.cache_entries = cache_entries;
  auto server = Server::Create(opts);
  if (!server.ok()) {
    state.SkipWithError("Server::Create failed");
    return nullptr;
  }
  live->server = std::move(*server);
  Status started = live->server->Start();
  if (!started.ok()) {
    state.SkipWithError("Server::Start failed");
    return nullptr;
  }
  auto client = ServeClient::ConnectUnix(live->socket_path);
  if (!client.ok()) {
    state.SkipWithError("ConnectUnix failed");
    return nullptr;
  }
  live->client = std::move(*client);
  return live;
}

// The floor: parse + dispatch + serialize over the socket, no matching.
void BM_PingRoundTrip(benchmark::State& state) {
  auto live = StartServer(state, /*cache_entries=*/8);
  if (live == nullptr) return;
  Request req;
  req.method = Method::kPing;
  uint64_t ok = 0;
  for (auto _ : state) {
    req.id = ok + 1;
    auto resp = live->client->Call(req);
    if (!resp.ok() || resp->status != "ok") {
      state.SkipWithError("ping failed");
      break;
    }
    ++ok;
  }
  state.counters["db_rows"] =
      benchmark::Counter(static_cast<double>(live->server->db_rows()));
}
BENCHMARK(BM_PingRoundTrip);

// Repeated identical support query: after the first iteration every
// request is served from the match-info cache.
void BM_SupportHitCache(benchmark::State& state) {
  auto live = StartServer(state, /*cache_entries=*/8);
  if (live == nullptr) return;
  Request req;
  req.method = Method::kSupport;
  req.patterns = {"s3 -> s17 -> s29"};
  uint64_t ok = 0;
  for (auto _ : state) {
    req.id = ok + 1;
    auto resp = live->client->Call(req);
    if (!resp.ok() || resp->status != "ok") {
      state.SkipWithError("support failed");
      break;
    }
    ++ok;
  }
  // Deterministic up to iteration count: everything but the first
  // request hits, so the hit fraction must stay ~1.
  const uint64_t hits = live->server->cache().hits();
  state.counters["cache_hit"] =
      benchmark::Counter(ok > 0 && hits + 1 == ok ? 1.0 : 0.0);
}
BENCHMARK(BM_SupportHitCache);

// Same query with the cache cleared before every request: the full
// parse + match path, the cost a hit avoids.
void BM_SupportMissCache(benchmark::State& state) {
  auto live = StartServer(state, /*cache_entries=*/8);
  if (live == nullptr) return;
  Request req;
  req.method = Method::kSupport;
  req.patterns = {"s3 -> s17 -> s29"};
  uint64_t ok = 0;
  for (auto _ : state) {
    live->server->cache().Clear();
    req.id = ok + 1;
    auto resp = live->client->Call(req);
    if (!resp.ok() || resp->status != "ok") {
      state.SkipWithError("support failed");
      break;
    }
    ++ok;
  }
  const uint64_t hits = live->server->cache().hits();
  state.counters["cache_all_miss"] =
      benchmark::Counter(hits == 0 ? 1.0 : 0.0);
}
BENCHMARK(BM_SupportMissCache);

// End-to-end sanitize request: private database copy, full HH run,
// output written to a scratch file. The dominant serving cost.
void BM_SanitizeRequest(benchmark::State& state) {
  auto live = StartServer(state, /*cache_entries=*/8);
  if (live == nullptr) return;
  const std::string out =
      (std::filesystem::temp_directory_path() /
       ("seqhide_bench_serve_out_" + std::to_string(::getpid()) + ".txt"))
          .string();
  Request req;
  req.method = Method::kSanitize;
  req.patterns = {"s3 -> s17 -> s29"};
  req.psi = 1;
  req.seed = 1;
  req.out = out;
  uint64_t marks = 0;
  uint64_t ok = 0;
  for (auto _ : state) {
    req.id = ok + 1;
    auto resp = live->client->Call(req);
    if (!resp.ok() || resp->status != "ok" || !resp->has_sanitize) {
      state.SkipWithError("sanitize failed");
      break;
    }
    marks = resp->sanitize.marks_introduced;
    ++ok;
  }
  std::remove(out.c_str());
  // Same database, same seed, same psi: the mark count is a behavioural
  // fingerprint of the whole sanitize path.
  state.counters["marks_introduced"] =
      benchmark::Counter(static_cast<double>(marks));
}
BENCHMARK(BM_SanitizeRequest);

// The admission controller alone, no sockets: offer a fixed burst
// against a fixed queue limit and count sheds. Pure arithmetic — the
// counters are exact and the time is the controller's lock + bookkeeping
// overhead per decision.
void BM_AdmissionShedDeterministic(benchmark::State& state) {
  constexpr size_t kQueueLimit = 8;
  constexpr size_t kBurst = 32;
  uint64_t sheds = 0;
  for (auto _ : state) {
    AdmissionLimits limits;
    limits.queue_limit = kQueueLimit;
    AdmissionController ctl(limits);
    size_t admitted = 0;
    for (size_t i = 0; i < kBurst; ++i) {
      if (ctl.Offer(/*est_bytes=*/1024).admitted) ++admitted;
    }
    sheds = ctl.sheds();
    benchmark::DoNotOptimize(admitted);
    // Release what was admitted so WaitIdle-style invariants hold.
    for (size_t i = 0; i < admitted; ++i) {
      ctl.OnDispatched();
      ctl.OnFinished(1024);
    }
  }
  // 32 offered against queue_limit 8 must shed exactly 24, always.
  state.counters["sheds_per_burst"] =
      benchmark::Counter(static_cast<double>(sheds));
}
BENCHMARK(BM_AdmissionShedDeterministic);

// Eight pipelined match-count clients per iteration — the concurrency-8
// shape of the overload smoke test, with the cache off so every request
// really counts through the signature screen. The per-iteration
// value_sum is the identity check, and `stable` asserts it held on every
// iteration.
void BM_MatchCountConcurrent8(benchmark::State& state) {
  constexpr size_t kClients = 8;
  auto live = StartServer(state, /*cache_entries=*/0);
  if (live == nullptr) return;

  std::vector<std::unique_ptr<ServeClient>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    auto client = ServeClient::ConnectUnix(live->socket_path);
    if (!client.ok()) {
      state.SkipWithError("ConnectUnix failed");
      return;
    }
    clients.push_back(std::move(*client));
  }
  std::vector<Request> reqs(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    reqs[i].method = Method::kMatchCount;
    reqs[i].patterns = {"s" + std::to_string(i) + " -> s" +
                        std::to_string(8 + i) + " -> s" +
                        std::to_string(16 + i)};
  }

  uint64_t id = 0;
  uint64_t first_sum = 0;
  double stable = 1.0;
  bool first = true;
  for (auto _ : state) {
    for (size_t i = 0; i < kClients; ++i) {
      reqs[i].id = ++id;
      const Status sent = clients[i]->Send(reqs[i]);
      if (!sent.ok()) {
        state.SkipWithError("send failed");
        return;
      }
    }
    uint64_t sum = 0;
    for (size_t i = 0; i < kClients; ++i) {
      auto resp = clients[i]->Receive();
      if (!resp.ok() || resp->status != "ok" || resp->values.size() != 1) {
        state.SkipWithError("match-count failed");
        return;
      }
      sum += resp->values[0];
    }
    if (first) {
      first_sum = sum;
      first = false;
    } else if (sum != first_sum) {
      stable = 0.0;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kClients));
  state.counters["value_sum"] =
      benchmark::Counter(static_cast<double>(first_sum));
  state.counters["stable_across_iters"] = benchmark::Counter(stable);
}
// Real time, not CPU time: the work happens on the server's worker
// threads, so the driving thread's CPU clock would hide the speedup.
BENCHMARK(BM_MatchCountConcurrent8)->UseRealTime();

}  // namespace
}  // namespace seqhide

int main(int argc, char** argv) {
  return seqhide::bench::RunGoogleBenchmark("bench_server", argc, argv);
}
