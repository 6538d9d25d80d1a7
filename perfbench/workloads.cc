#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "src/common/random.h"
#include "src/constraints/constraints.h"
#include "src/data/workload.h"
#include "src/eval/experiment.h"
#include "src/hide/sanitizer.h"
#include "src/match/count.h"
#include "src/match/scratch.h"
#include "src/match/subsequence.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_events.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "stats.h"

namespace perfbench {
namespace {

using seqhide::Result;
using seqhide::Rng;
using seqhide::Sequence;
using seqhide::SequenceDatabase;
using seqhide::Status;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- sizes
//
// Op counts are per 10 s of --seconds. On a 4-CPU x86-64 host the timed
// phase then takes about 10 s, except paper_sweep's (about 40 s): its
// tail rank must fall inside the group of 16 ψ = 5 ops, not on the edge
// between two ψ groups, where single-op timing noise moves it by 20%.

// paper_sweep: the fig1b grid, ψ 5..60 step 5 × HH/HR/RH/RR.
constexpr size_t kSweepPsiMin = 5;
constexpr size_t kSweepPsiStep = 5;
constexpr size_t kSweepPsiCount = 12;
constexpr size_t kSweepGridPassesPer10s = 4;
constexpr size_t kSweepMinerMaxLength = 4;
constexpr size_t kSweepWarmupOps = 2;

// long_rows: one sanitize file of kLongRows rows per op.
constexpr size_t kLongRows = 32;
constexpr size_t kLongMinLength = 128;
constexpr size_t kLongMaxLength = 256;
constexpr size_t kLongAlphabet = 16;
constexpr size_t kLongOpsPer10s = 100;
constexpr size_t kLongWarmupOps = 2;

// serve_*: one seqhidb image, four closed-loop connections.
constexpr size_t kServeRows = 50000;
constexpr size_t kServeMinLength = 8;
constexpr size_t kServeMaxLength = 40;
constexpr size_t kServeAlphabet = 64;
constexpr size_t kServeConnections = 4;
constexpr size_t kServeHotSet = 16;
constexpr size_t kServeHotEvery = 4;       // every 4th query is hot
constexpr size_t kServeSanitizeEvery = 10;  // serve_mixed: every 10th op
constexpr uint64_t kServePsi = 8;
constexpr size_t kServeQueryOpsPer10s = 3000;
constexpr size_t kServeMixedOpsPer10s = 1600;
constexpr size_t kServeWarmupOps = 10;  // per connection
constexpr size_t kServeSetupRepeats = 40;

// Set-up is timed kSetupLoads times (kServeSetupRepeats for a server)
// after one untimed round, half just before the timed phase and half just
// after it, and reported as the interquartile mean (stats.h). One load
// takes well under a millisecond, and the host runs a process up to 1.6×
// slower for seconds at a time; two windows far apart rarely both land in
// such a stretch.
constexpr size_t kSetupLoads = 1000;

constexpr char kSocket[] = "pb.sock";
constexpr char kImage[] = "serve.sdb";

// Independent streams of one workload seed: the timed ops, the warm-up
// (never the same draws as the timed stream), the serve hot set.
enum StreamTag : uint64_t {
  kStreamData = 1,
  kStreamOps = 2,
  kStreamWarmup = 3,
  kStreamHot = 4,
};

Rng Stream(uint64_t seed, uint64_t tag, uint64_t index = 0) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ull ^ (tag << 32) ^ index;
  return Rng(seqhide::SplitMix64(&state));
}

// ---------------------------------------------------------------- helpers

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Appends the wall time of each of `times` calls of `setup` to `samples`.
template <typename Setup>
Status TimeSetups(size_t times, Setup&& setup, std::vector<double>* samples) {
  for (size_t r = 0; r < times; ++r) {
    const Clock::time_point start = Clock::now();
    SEQHIDE_RETURN_IF_ERROR(setup());
    samples->push_back(SecondsSince(start));
  }
  return Status::OK();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The benchmark's own span around one public call; only traced runs open
// them, so untraced runs time the program alone.
class BenchSpan {
 public:
  BenchSpan(bool on, std::string_view name) {
    if (on) span_.emplace(name);
  }

 private:
  std::optional<seqhide::obs::Span> span_;
};

std::string SymbolName(size_t s) { return "s" + std::to_string(s); }

// "s3 -> s17 -> s9": the CLI / wire pattern syntax.
std::string RandomPatternText(Rng* rng, size_t length, size_t alphabet) {
  std::string text;
  for (size_t i = 0; i < length; ++i) {
    if (i > 0) text += " -> ";
    text += SymbolName(rng->NextBounded(alphabet));
  }
  return text;
}

// The same with no symbol repeated. Rows of uniform random symbols look
// alike under any renaming of the alphabet, so every such pattern of one
// length has the same match-count distribution over them: ops then differ
// only by their random rows, not by how many repeats a pattern drew.
std::string DistinctPatternText(Rng* rng, size_t length, size_t alphabet) {
  std::vector<size_t> symbols(alphabet);
  for (size_t s = 0; s < alphabet; ++s) symbols[s] = s;
  rng->Shuffle(&symbols);
  std::string text;
  for (size_t i = 0; i < length; ++i) {
    if (i > 0) text += " -> ";
    text += SymbolName(symbols[i]);
  }
  return text;
}

Status WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

Result<std::vector<Sequence>> ParsePatterns(
    seqhide::Alphabet* alphabet, const std::vector<std::string>& texts) {
  std::vector<Sequence> patterns;
  for (const std::string& text : texts) {
    SEQHIDE_ASSIGN_OR_RETURN(seqhide::ConstrainedPattern p,
                             seqhide::ParseConstrainedPattern(alphabet, text));
    patterns.push_back(std::move(p.pattern));
  }
  return patterns;
}

// The long_rows output check, also applied to serve_mixed's last output
// per connection: `sanitized` is `original` with some symbols replaced by
// Δ and nothing else, it holds exactly `marks` Δs, and every pattern's
// support is at most ψ. Symbols are compared by name, since the two files
// intern their alphabets independently.
bool SanitizedCopyIsValid(const SequenceDatabase& original,
                          const SequenceDatabase& sanitized,
                          const std::vector<std::string>& pattern_texts,
                          uint64_t psi, uint64_t marks) {
  if (original.size() != sanitized.size()) return false;
  uint64_t deltas = 0;
  for (size_t t = 0; t < original.size(); ++t) {
    const Sequence& a = original[t];
    const Sequence& b = sanitized[t];
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (b.IsMarked(i)) {
        if (a.IsMarked(i)) return false;
        ++deltas;
      } else if (original.alphabet().Name(a[i]) !=
                 sanitized.alphabet().Name(b[i])) {
        return false;
      }
    }
  }
  if (deltas != marks) return false;
  seqhide::Alphabet alphabet = sanitized.alphabet();
  auto patterns = ParsePatterns(&alphabet, pattern_texts);
  if (!patterns.ok()) return false;
  for (const Sequence& p : *patterns) {
    if (seqhide::Support(p, sanitized) > psi) return false;
  }
  return true;
}

// ------------------------------------------------------- measurement core

// Per-op timings a serve workload adds to its Measurement.
struct ServeOpTiming {
  double rtt_us = 0.0;
  double queue_us = 0.0;
  double work_us = 0.0;
  bool sanitize = false;
};

// Everything one run measured, in the shape every workload shares.
struct Measurement {
  std::vector<double> setup_s;  // one entry per repeated set-up
  std::vector<double> op_ms;    // per timed op
  double timed_s = 0.0;         // wall time of the timed phase
  double peak_rss_mb = 0.0;     // read before the output checks run
  seqhide::obs::MetricsSnapshot setup_delta;  // registry over the set-ups
  seqhide::obs::MetricsSnapshot timed_delta;  // registry over the timed ops
  std::vector<seqhide::obs::TraceEvent> events;  // traced runs only
  uint64_t trace_dropped = 0;
  std::vector<ServeOpTiming> serve_ops;
};

// Brackets the phases of a run: registry snapshots around set-up and the
// timed phase, and, in traced runs, a recorder over the timed phase.
class Phases {
 public:
  explicit Phases(bool trace) : trace_(trace) { mark_ = Snap(); }

  void EndSetup(Measurement* m) {
    m->setup_delta = seqhide::obs::SnapshotDelta(mark_, Snap());
  }
  void BeginTimed() {
    if (trace_) {
      recorder_ = std::make_unique<seqhide::obs::TraceEventRecorder>();
      recorder_->Install();
    }
    mark_ = Snap();
    start_ = Clock::now();
  }
  void EndTimed(Measurement* m) {
    m->timed_s = SecondsSince(start_);
    m->peak_rss_mb = PeakRssMb();
    m->timed_delta = seqhide::obs::SnapshotDelta(mark_, Snap());
    if (recorder_ != nullptr) {
      recorder_->Uninstall();
      m->events = recorder_->Events();
      m->trace_dropped = recorder_->dropped();
    }
  }

 private:
  static seqhide::obs::MetricsSnapshot Snap() {
    return seqhide::obs::MetricsRegistry::Default().Snapshot();
  }

  const bool trace_;
  seqhide::obs::MetricsSnapshot mark_;
  Clock::time_point start_;
  std::unique_ptr<seqhide::obs::TraceEventRecorder> recorder_;
};

std::vector<Metric> EndToEnd(const Measurement& m) {
  const size_t n = m.op_ms.size();
  return {
      {"setup_s", InterquartileMean(m.setup_s), "s"},
      {"op_p50_ms", Median(m.op_ms), "ms"},
      {"op_tail_ms", OrderStatistic(m.op_ms, TailRank(n)), "ms"},
      {"throughput_per_s", static_cast<double>(n) / m.timed_s, "1/s"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
  };
}

// True when `path` is `leaf` or ends in "/leaf" (the same span nested
// under any parent).
bool PathEndsWith(std::string_view path, std::string_view leaf) {
  if (path == leaf) return true;
  return path.size() > leaf.size() &&
         path.substr(path.size() - leaf.size()) == leaf &&
         path[path.size() - leaf.size() - 1] == '/';
}

struct SpanSum {
  double count = 0.0;
  double total_ms = 0.0;
};

SpanSum SumSpans(const seqhide::obs::MetricsSnapshot& s,
                 std::string_view leaf) {
  SpanSum sum;
  for (const auto& [path, data] : s.spans) {
    if (!PathEndsWith(path, leaf)) continue;
    sum.count += static_cast<double>(data.count);
    sum.total_ms += static_cast<double>(data.total_ns) / 1e6;
  }
  return sum;
}

double CounterValue(const seqhide::obs::MetricsSnapshot& s,
                    const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

seqhide::obs::MetricsSnapshot::HistogramData HistogramValue(
    const seqhide::obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end()
             ? seqhide::obs::MetricsSnapshot::HistogramData{}
             : it->second;
}

// Mean self time (ms) of the benchmark's `root` spans: each span's
// duration minus the interval its direct children on the same thread
// cover.
double MeanSelfMs(const std::vector<seqhide::obs::TraceEvent>& events,
                  const std::string& root) {
  const std::string prefix = root + "/";
  double total_ns = 0.0;
  size_t roots = 0;
  for (const auto& parent : events) {
    if (parent.path != root) continue;
    const Interval outer{parent.start_ns, parent.start_ns + parent.dur_ns};
    std::vector<Interval> children;
    for (const auto& e : events) {
      if (e.tid != parent.tid || e.path.rfind(prefix, 0) != 0 ||
          e.path.find('/', prefix.size()) != std::string::npos ||
          e.start_ns < outer.begin || e.start_ns >= outer.end) {
        continue;
      }
      children.push_back({e.start_ns, e.start_ns + e.dur_ns});
    }
    total_ns += static_cast<double>(SelfTimeNs(outer, std::move(children)));
    ++roots;
  }
  return roots == 0 ? 0.0 : total_ns / 1e6 / static_cast<double>(roots);
}

// The per-layer table, identical in shape on every workload: a layer that
// does not run on a workload reports 0 (and so does its ratio's base).
std::vector<Metric> PerLayer(const Measurement& m, const std::string& root) {
  const auto& t = m.timed_delta;
  const double ops = static_cast<double>(m.op_ms.size());
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out.push_back({name, value, unit});
  };
  auto per_op = [&](double v) { return v / ops; };

  double op_total_ms = 0.0;
  for (double ms : m.op_ms) op_total_ms += ms;
  add("op.mean_ms", op_total_ms / ops, "ms");

  // mine: PrefixSpan (RunSweep's F(D) and F(D') mining).
  const SpanSum mine = SumSpans(t, "mine_prefix_span");
  add("mine.prefixspan_ms", per_op(mine.total_ms), "ms");
  add("mine.calls_per_op", per_op(mine.count), "count");
  add("mine.patterns_per_op",
      per_op(CounterValue(t, "mine.prefixspan.patterns")), "count");
  add("mine.projected_rows_per_op",
      per_op(CounterValue(t, "mine.prefixspan.projected_rows")), "count");

  // eval: RunSweep minus its mine and sanitize children.
  add("eval.self_ms", root == "sweep" ? MeanSelfMs(m.events, root) : 0.0,
      "ms");

  // hide: Algorithm 1's stages, wherever Sanitize() ran.
  const SpanSum sanitize = SumSpans(t, "sanitize");
  double stages_ms = 0.0;
  for (const char* stage : {"count", "select", "mark", "verify"}) {
    const double ms = SumSpans(t, std::string("sanitize/") + stage).total_ms;
    stages_ms += ms;
    add(std::string("hide.") + stage + "_ms", per_op(ms), "ms");
  }
  add("hide.other_ms", per_op(sanitize.total_ms - stages_ms), "ms");
  add("hide.sanitize_calls_per_op", per_op(sanitize.count), "count");
  const double marks = CounterValue(t, "local.marks");
  const Ratio delta_per_mark =
      MakeRatio(CounterValue(t, "local.delta_recomputations"), marks);
  add("hide.delta_per_mark", delta_per_mark.value, "ratio");
  add("hide.marks_per_op", per_op(delta_per_mark.base), "count");
  add("match.count_dp_cells_per_op",
      per_op(CounterValue(t, "match.count.dp_cells")), "count");

  // seq: input load (the benchmark's "read" spans: text read or server
  // Create) and output write, as the mean of one call.
  const SpanSum timed_reads = SumSpans(t, "read");
  const SpanSum reads =
      timed_reads.count > 0 ? timed_reads : SumSpans(m.setup_delta, "read");
  add("seq.load_ms", reads.count > 0 ? reads.total_ms / reads.count : 0.0,
      "ms");
  const SpanSum writes = SumSpans(t, "write");
  add("seq.write_ms", writes.count > 0 ? writes.total_ms / writes.count : 0.0,
      "ms");
  const double pruned = CounterValue(t, "bindb.candidate.pruned");
  const Ratio prune =
      MakeRatio(pruned, pruned + CounterValue(t, "bindb.candidate.rows"));
  add("seq.candidate_prune_ratio", prune.value, "ratio");
  add("seq.candidate_rows_per_op", per_op(prune.base), "count");

  // serve: client-side split of each round trip, and the server's batch,
  // cache and admission counters.
  double queries = 0.0;
  double sanitizes = 0.0;
  double wire_us = 0.0;
  double queue_us = 0.0;
  double query_work_us = 0.0;
  double sanitize_work_us = 0.0;
  for (const ServeOpTiming& op : m.serve_ops) {
    wire_us += op.rtt_us - op.queue_us - op.work_us;
    queue_us += op.queue_us;
    if (op.sanitize) {
      sanitizes += 1;
      sanitize_work_us += op.work_us;
    } else {
      queries += 1;
      query_work_us += op.work_us;
    }
  }
  const double serve_ops = static_cast<double>(m.serve_ops.size());
  add("serve.wire_us", MakeRatio(wire_us, serve_ops).value, "us");
  add("serve.queue_us", MakeRatio(queue_us, serve_ops).value, "us");
  add("serve.work_us", MakeRatio(query_work_us, queries).value, "us");
  add("serve.queries_per_op", MakeRatio(queries, ops).value, "count");
  add("serve.sanitize_work_us", MakeRatio(sanitize_work_us, sanitizes).value,
      "us");
  add("serve.sanitizes_per_op", MakeRatio(sanitizes, ops).value, "count");
  add("match.trie_union_rows_per_query",
      MakeRatio(CounterValue(t, "match.trie.union_rows"), queries).value,
      "count");

  const auto wait = HistogramValue(t, "serve.batch.wait_us");
  const auto size = HistogramValue(t, "serve.batch.size");
  add("serve.batch_wait_us",
      MakeRatio(static_cast<double>(wait.sum), static_cast<double>(wait.count))
          .value,
      "us");
  const Ratio batch_size = MakeRatio(static_cast<double>(size.sum),
                                     static_cast<double>(size.count));
  add("serve.batch_size_mean", batch_size.value, "count");
  add("serve.batches_per_op", per_op(batch_size.base), "count");
  const Ratio coalesced = MakeRatio(CounterValue(t, "serve.batch.coalesced"),
                                    static_cast<double>(size.sum));
  add("serve.coalesced_share", coalesced.value, "ratio");
  add("serve.batched_queries_per_op", per_op(coalesced.base), "count");
  const double hits = CounterValue(t, "serve.cache.hit");
  const Ratio hit_ratio =
      MakeRatio(hits, hits + CounterValue(t, "serve.cache.miss"));
  add("serve.cache_hit_ratio", hit_ratio.value, "ratio");
  add("serve.cache_lookups_per_op", per_op(hit_ratio.base), "count");
  const double sheds = CounterValue(t, "serve.admission.shed_queue") +
                       CounterValue(t, "serve.admission.shed_bytes") +
                       CounterValue(t, "serve.admission.shed_draining");
  const Ratio shed = MakeRatio(
      sheds, sheds + CounterValue(t, "serve.admission.admitted"));
  add("serve.shed_share", shed.value, "ratio");
  add("serve.offers_per_op", per_op(shed.base), "count");

  add("trace.events_per_op", per_op(static_cast<double>(m.events.size())),
      "count");
  add("trace.dropped", static_cast<double>(m.trace_dropped), "count");
  return out;
}

RunOutcome Finish(const RunOptions& opts, const Measurement& m,
                  uint64_t failed, const std::string& root) {
  RunOutcome out;
  out.attempted = m.op_ms.size();
  out.failed = failed;
  out.metrics = EndToEnd(m);
  if (opts.trace) {
    for (Metric& metric : PerLayer(m, root)) {
      out.metrics.push_back(std::move(metric));
    }
  }
  return out;
}

// ------------------------------------------------------------ paper_sweep
//
// One op = one RunSweep call for a single (ψ, algorithm) cell of the
// fig1b grid, M2/M3 on. Each run walks the whole grid the same number of
// times, in a seeded order with a seeded per-op RunSweep seed. The
// database is the calibrated TRUCKS substitute every figure uses: other
// simulator seeds give databases with up to twice the frequent patterns,
// which would make the seed, not the code, decide the mining time.

constexpr char kSweepDb[] = "sweep_db.txt";
constexpr char kSweepPatterns[] = "sweep_patterns.txt";

Status GenerateSweep() {
  const seqhide::ExperimentWorkload w = seqhide::MakeTrucksWorkload();
  SEQHIDE_RETURN_IF_ERROR(seqhide::WriteDatabaseToFile(w.db, kSweepDb));
  std::vector<std::string> lines;
  for (const Sequence& p : w.sensitive) {
    std::string text;
    for (size_t i = 0; i < p.size(); ++i) {
      if (i > 0) text += " -> ";
      text += w.db.alphabet().Name(p[i]);
    }
    lines.push_back(std::move(text));
  }
  return WriteLines(kSweepPatterns, lines);
}

struct SweepOp {
  size_t psi = 0;
  size_t algorithm = 0;  // index into AlgorithmSpec::PaperFour()
  uint64_t seed = 0;
};

seqhide::SweepOptions SweepOptionsFor(const SweepOp& op) {
  seqhide::SweepOptions s;
  s.psi_values = {op.psi};
  s.algorithms = {seqhide::AlgorithmSpec::PaperFour()[op.algorithm]};
  s.random_runs = 1;
  s.base_seed = op.seed;
  s.compute_pattern_measures = true;
  s.miner_max_length = kSweepMinerMaxLength;
  return s;
}

std::vector<SweepOp> SweepGrid() {
  std::vector<SweepOp> grid;
  for (size_t i = 0; i < kSweepPsiCount; ++i) {
    for (size_t a = 0; a < 4; ++a) {
      grid.push_back({kSweepPsiMin + i * kSweepPsiStep, a, 0});
    }
  }
  return grid;
}

Result<RunOutcome> RunPaperSweep(const RunOptions& opts) {
  Measurement m;
  Phases phases(opts.trace);

  seqhide::ExperimentWorkload w;
  w.name = "trucks";
  SEQHIDE_ASSIGN_OR_RETURN(w.db, seqhide::ReadDatabaseFromFile(kSweepDb));
  auto load = [&] {
    BenchSpan span(opts.trace, "read");
    return seqhide::ReadDatabaseFromFile(kSweepDb).status();
  };
  SEQHIDE_RETURN_IF_ERROR(TimeSetups(kSetupLoads / 2, load, &m.setup_s));
  phases.EndSetup(&m);
  SEQHIDE_ASSIGN_OR_RETURN(const std::vector<std::string> texts,
                           ReadLines(kSweepPatterns));
  SEQHIDE_ASSIGN_OR_RETURN(w.sensitive,
                           ParsePatterns(&w.db.alphabet(), texts));
  // Algorithm 1 leaves ψ of the rows supporting any sensitive pattern
  // untouched, so it marks nothing exactly when ψ >= that count.
  const size_t supporters = seqhide::SupportAny(w.sensitive, w.db);

  const size_t n = OpsFor(opts.workload, opts.seconds);
  Rng rng = Stream(opts.seed, kStreamOps);
  std::vector<SweepOp> ops;
  while (ops.size() < n) {
    std::vector<SweepOp> pass = SweepGrid();
    rng.Shuffle(&pass);
    for (SweepOp& op : pass) op.seed = rng.NextU64();
    ops.insert(ops.end(), pass.begin(), pass.end());
  }

  // Warm-up: the lowest-ψ cells, whose mining grows the heap to its peak,
  // with algorithms and seeds from their own stream.
  Rng warm = Stream(opts.seed, kStreamWarmup);
  for (size_t i = 0; i < kSweepWarmupOps; ++i) {
    const SweepOp op{kSweepPsiMin + i * kSweepPsiStep, warm.NextBounded(4),
                     warm.NextU64()};
    SEQHIDE_ASSIGN_OR_RETURN(auto unused,
                             seqhide::RunSweep(w, SweepOptionsFor(op)));
    (void)unused;
  }

  std::vector<std::optional<seqhide::SweepCell>> cells(n);
  phases.BeginTimed();
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point start = Clock::now();
    {
      BenchSpan span(opts.trace, "sweep");
      auto result = seqhide::RunSweep(w, SweepOptionsFor(ops[i]));
      if (result.ok()) cells[i] = result->cells[0][0];
    }
    m.op_ms.push_back(SecondsSince(start) * 1e3);
  }
  phases.EndTimed(&m);
  SEQHIDE_RETURN_IF_ERROR(TimeSetups(kSetupLoads / 2, load, &m.setup_s));

  // M2/M3 are shares of F(D) and lie in [0,1]; M1 is 0 exactly when ψ
  // covers every supporting row.
  uint64_t failed = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& c = cells[i];
    const bool in_unit = c.has_value() && std::isfinite(c->m2) &&
                         std::isfinite(c->m3) && c->m2 >= 0 && c->m2 <= 1 &&
                         c->m3 >= 0 && c->m3 <= 1;
    if (!in_unit || (c->m1 == 0) != (ops[i].psi >= supporters)) ++failed;
  }
  return Finish(opts, m, failed, "sweep");
}

// -------------------------------------------------------------- long_rows
//
// One op = the file-to-file path of `seqhide_cli sanitize --algo HH
// --threads 1`: read a text database, parse three patterns (lengths 2, 3
// and 4, no symbol repeated within one), sanitize at ψ = rows / 10, write
// the result. Every op has its own
// seeded input file. Row lengths are spread evenly over 128..256 in a
// seeded order, so every file carries the same length mix.

constexpr uint64_t kLongPsi = kLongRows / 10;

std::string LongInput(const std::string& kind, size_t i) {
  return "lr_" + kind + "_" + std::to_string(i) + ".txt";
}

Status WriteLongInput(Rng* rng, const std::string& kind, size_t i) {
  std::vector<size_t> lengths;
  for (size_t r = 0; r < kLongRows; ++r) {
    lengths.push_back(kLongMinLength +
                      r * (kLongMaxLength - kLongMinLength + 1) / kLongRows);
  }
  rng->Shuffle(&lengths);
  std::vector<std::string> rows;
  for (size_t len : lengths) {
    std::string row;
    for (size_t k = 0; k < len; ++k) {
      if (k > 0) row += ' ';
      row += SymbolName(rng->NextBounded(kLongAlphabet));
    }
    rows.push_back(std::move(row));
  }
  SEQHIDE_RETURN_IF_ERROR(WriteLines(LongInput(kind, i), rows));
  std::vector<std::string> patterns;
  for (size_t len = 2; len <= 4; ++len) {
    patterns.push_back(DistinctPatternText(rng, len, kLongAlphabet));
  }
  return WriteLines(LongInput(kind + "pat", i), patterns);
}

Status GenerateLong(const RunOptions& opts) {
  Rng data = Stream(opts.seed, kStreamData);
  for (size_t i = 0; i < OpsFor(opts.workload, opts.seconds); ++i) {
    SEQHIDE_RETURN_IF_ERROR(WriteLongInput(&data, "in", i));
  }
  Rng warm = Stream(opts.seed, kStreamWarmup);
  for (size_t i = 0; i < kLongWarmupOps; ++i) {
    SEQHIDE_RETURN_IF_ERROR(WriteLongInput(&warm, "warm", i));
  }
  return Status::OK();
}

struct LongResult {
  Status status;
  uint64_t marks = 0;
};

// The CLI's sanitize path, file to file.
LongResult LongOp(bool trace, const std::string& in,
                  const std::vector<std::string>& pattern_texts,
                  const std::string& out) {
  BenchSpan op_span(trace, "cli_sanitize");
  LongResult r;
  Result<SequenceDatabase> db = [&] {
    BenchSpan span(trace, "read");
    return seqhide::ReadDatabaseFromFile(in);
  }();
  if (!db.ok()) return {db.status()};
  auto patterns = ParsePatterns(&db->alphabet(), pattern_texts);
  if (!patterns.ok()) return {patterns.status()};
  seqhide::SanitizeOptions sanitize = seqhide::SanitizeOptions::HH();
  sanitize.psi = kLongPsi;
  sanitize.num_threads = 1;
  auto report = seqhide::Sanitize(&*db, *patterns, sanitize);
  if (!report.ok()) return {report.status()};
  r.marks = report->marks_introduced;
  BenchSpan span(trace, "write");
  r.status = seqhide::WriteDatabaseToFile(*db, out);
  return r;
}

Result<RunOutcome> RunLong(const RunOptions& opts) {
  const size_t n = OpsFor(opts.workload, opts.seconds);
  std::vector<std::vector<std::string>> patterns(n);
  for (size_t i = 0; i < n; ++i) {
    SEQHIDE_ASSIGN_OR_RETURN(patterns[i], ReadLines(LongInput("inpat", i)));
  }

  // Set-up is the load of an op's input, cycling over the op files.
  Measurement m;
  Phases phases(opts.trace);
  size_t next_input = 0;
  auto load = [&] {
    BenchSpan span(opts.trace, "read");
    return seqhide::ReadDatabaseFromFile(LongInput("in", next_input++ % n))
        .status();
  };
  SEQHIDE_RETURN_IF_ERROR(load());
  SEQHIDE_RETURN_IF_ERROR(TimeSetups(kSetupLoads / 2, load, &m.setup_s));
  phases.EndSetup(&m);

  for (size_t i = 0; i < kLongWarmupOps; ++i) {
    SEQHIDE_ASSIGN_OR_RETURN(auto texts,
                             ReadLines(LongInput("warmpat", i)));
    const LongResult r =
        LongOp(false, LongInput("warm", i), texts, LongInput("out", i));
    SEQHIDE_RETURN_IF_ERROR(r.status);
  }

  std::vector<LongResult> results(n);
  phases.BeginTimed();
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point start = Clock::now();
    results[i] = LongOp(opts.trace, LongInput("in", i), patterns[i],
                        LongInput("out", i));
    m.op_ms.push_back(SecondsSince(start) * 1e3);
  }
  phases.EndTimed(&m);
  SEQHIDE_RETURN_IF_ERROR(TimeSetups(kSetupLoads / 2, load, &m.setup_s));

  uint64_t failed = 0;
  for (size_t i = 0; i < n; ++i) {
    auto in = seqhide::ReadDatabaseFromFile(LongInput("in", i));
    auto out = seqhide::ReadDatabaseFromFile(LongInput("out", i));
    if (!results[i].status.ok() || !in.ok() || !out.ok() ||
        !SanitizedCopyIsValid(*in, *out, patterns[i], kLongPsi,
                              results[i].marks)) {
      ++failed;
    }
  }
  return Finish(opts, m, failed, "cli_sanitize");
}

// ---------------------------------------------------------------- serve_*
//
// An in-process seqhide_server with default options over a seqhidb image,
// driven by kServeConnections closed-loop clients, one thread each. Every
// request stream is generated up front as NDJSON request lines.
//   serve_query: support and match-count alternate; every kServeHotEvery-th
//     query repeats one of kServeHotSet hot requests, so the match-cache
//     hit ratio is set by the stream, not by warm-up.
//   serve_mixed: the same queries, with every kServeSanitizeEvery-th op an
//     HH sanitize at ψ = kServePsi into the connection's own output file.

std::string RequestFile(const std::string& kind, size_t conn) {
  return "req_" + kind + "_" + std::to_string(conn) + ".ndjson";
}

std::string SanitizeOut(size_t conn) {
  return "out_" + std::to_string(conn) + ".txt";
}

seqhide::serve::Request RandomQuery(Rng* rng, seqhide::serve::Method method) {
  seqhide::serve::Request req;
  req.method = method;
  const size_t count = 1 + rng->NextBounded(3);
  for (size_t i = 0; i < count; ++i) {
    req.patterns.push_back(
        RandomPatternText(rng, 2 + rng->NextBounded(3), kServeAlphabet));
  }
  return req;
}

std::vector<std::string> RequestStream(
    Rng* rng, size_t ops, size_t conn, bool mixed,
    const std::vector<seqhide::serve::Request>& hot) {
  using seqhide::serve::Method;
  std::vector<std::string> lines;
  size_t queries = 0;
  size_t cold = 0;
  for (size_t k = 0; k < ops; ++k) {
    seqhide::serve::Request req;
    if (mixed && k % kServeSanitizeEvery == kServeSanitizeEvery - 1) {
      req.method = Method::kSanitize;
      req.patterns = {RandomPatternText(rng, 2, kServeAlphabet),
                      RandomPatternText(rng, 3, kServeAlphabet)};
      req.psi = kServePsi;
      req.algo = "HH";
      req.out = SanitizeOut(conn);
    } else if (queries++ % kServeHotEvery == kServeHotEvery - 1) {
      req = hot[rng->NextBounded(hot.size())];
    } else {
      req = RandomQuery(rng, cold++ % 2 == 0 ? Method::kSupport
                                             : Method::kMatchCount);
    }
    req.id = k + 1;
    lines.push_back(seqhide::serve::SerializeRequest(req));
  }
  return lines;
}

Status GenerateServe(const RunOptions& opts) {
  Rng data = Stream(opts.seed, kStreamData);
  SequenceDatabase db;
  for (size_t s = 0; s < kServeAlphabet; ++s) {
    db.alphabet().Intern(SymbolName(s));
  }
  for (size_t t = 0; t < kServeRows; ++t) {
    Sequence seq;
    const size_t len =
        kServeMinLength +
        data.NextBounded(kServeMaxLength - kServeMinLength + 1);
    for (size_t i = 0; i < len; ++i) {
      seq.Append(static_cast<seqhide::SymbolId>(data.NextBounded(
          kServeAlphabet)));
    }
    db.Add(std::move(seq));
  }
  SEQHIDE_RETURN_IF_ERROR(seqhide::WriteBinaryDatabaseToFile(db, kImage));

  const bool mixed = opts.workload == "serve_mixed";
  Rng hot_rng = Stream(opts.seed, kStreamHot);
  std::vector<seqhide::serve::Request> hot;
  for (size_t h = 0; h < kServeHotSet; ++h) {
    const auto method = h % 2 == 0 ? seqhide::serve::Method::kSupport
                                   : seqhide::serve::Method::kMatchCount;
    hot.push_back(RandomQuery(&hot_rng, method));
  }
  const size_t per_conn =
      OpsFor(opts.workload, opts.seconds) / kServeConnections;
  for (size_t c = 0; c < kServeConnections; ++c) {
    Rng ops = Stream(opts.seed, kStreamOps, c);
    SEQHIDE_RETURN_IF_ERROR(WriteLines(
        RequestFile("ops", c), RequestStream(&ops, per_conn, c, mixed, hot)));
    // Warm-up draws its own queries and hot set.
    Rng warm = Stream(opts.seed, kStreamWarmup, c);
    std::vector<seqhide::serve::Request> warm_hot = {RandomQuery(
        &warm, seqhide::serve::Method::kSupport)};
    SEQHIDE_RETURN_IF_ERROR(
        WriteLines(RequestFile("warm", c),
                   RequestStream(&warm, kServeWarmupOps, c, mixed, warm_hot)));
  }
  return Status::OK();
}

struct ServeCall {
  seqhide::serve::Request req;
  std::optional<seqhide::serve::Response> resp;  // empty if the call failed
  double rtt_ms = 0.0;
};

Result<std::vector<std::vector<ServeCall>>> LoadStreams(
    const std::string& kind) {
  std::vector<std::vector<ServeCall>> streams(kServeConnections);
  for (size_t c = 0; c < kServeConnections; ++c) {
    SEQHIDE_ASSIGN_OR_RETURN(auto lines, ReadLines(RequestFile(kind, c)));
    for (const std::string& line : lines) {
      SEQHIDE_ASSIGN_OR_RETURN(auto req, seqhide::serve::ParseRequest(line));
      streams[c].push_back({std::move(req), std::nullopt, 0.0});
    }
  }
  return streams;
}

// Runs every connection's stream to completion, one thread per connection,
// each sending its next request only after the previous answer arrived.
void DriveClosedLoop(
    bool trace,
    const std::vector<std::unique_ptr<seqhide::serve::ServeClient>>& clients,
    std::vector<std::vector<ServeCall>>* streams) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (ServeCall& call : (*streams)[c]) {
        const Clock::time_point start = Clock::now();
        {
          BenchSpan span(trace, "request");
          auto resp = clients[c]->Call(call.req);
          if (resp.ok()) call.resp = std::move(resp).value();
        }
        call.rtt_ms = SecondsSince(start) * 1e3;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// Expected values of one query, from direct kernel calls on the
// materialized database.
std::vector<uint64_t> DirectValues(const SequenceDatabase& db,
                                   const seqhide::serve::Request& req) {
  seqhide::Alphabet alphabet = db.alphabet();
  auto patterns = ParsePatterns(&alphabet, req.patterns);
  std::vector<uint64_t> values;
  if (!patterns.ok()) return values;
  seqhide::MatchScratch scratch;
  for (const Sequence& p : *patterns) {
    if (req.method == seqhide::serve::Method::kSupport) {
      values.push_back(seqhide::Support(p, db));
      continue;
    }
    // A row without the pattern as a subsequence has no matching, so the
    // counting DP only runs on rows that support it.
    uint64_t total = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (!seqhide::IsSubsequence(p, db[t])) continue;
      total = seqhide::SatAdd(
          total, seqhide::CountMatchingsTotal({p}, db[t], &scratch));
    }
    values.push_back(total);
  }
  return values;
}

// Returns the number of calls with a wrong or failed answer, plus one for
// each connection whose last sanitize output fails the file check.
uint64_t CheckServeCalls(std::vector<std::vector<ServeCall>>* streams) {
  auto mapped = seqhide::MappedDatabase::OpenMapped(kImage);
  if (!mapped.ok()) return 1;
  auto materialized = mapped->ToDatabase();
  if (!materialized.ok()) return 1;
  const SequenceDatabase& db = *materialized;

  // Distinct queries, each checked once against the kernels.
  std::map<std::string, std::vector<const ServeCall*>> distinct;
  for (const auto& stream : *streams) {
    for (const ServeCall& call : stream) {
      if (call.req.method == seqhide::serve::Method::kSanitize) continue;
      std::string key(seqhide::serve::MethodName(call.req.method));
      for (const std::string& p : call.req.patterns) key += "\n" + p;
      distinct[key].push_back(&call);
    }
  }
  std::vector<const std::vector<const ServeCall*>*> groups;
  for (const auto& [key, calls] : distinct) groups.push_back(&calls);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kServeConnections; ++w) {
    workers.emplace_back([&] {
      for (size_t g; (g = next.fetch_add(1)) < groups.size();) {
        const auto& calls = *groups[g];
        const std::vector<uint64_t> want = DirectValues(db, calls[0]->req);
        for (const ServeCall* call : calls) {
          if (!call->resp || call->resp->status != "ok" ||
              call->resp->values != want || want.empty()) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // Sanitizes: every answer under ψ and not degraded; the last output of
  // each connection is a valid sanitized copy of the image.
  uint64_t failed = wrong.load();
  for (size_t c = 0; c < streams->size(); ++c) {
    const ServeCall* last = nullptr;
    for (const ServeCall& call : (*streams)[c]) {
      if (call.req.method != seqhide::serve::Method::kSanitize) continue;
      last = &call;
      bool ok = call.resp && call.resp->status == "ok" &&
                call.resp->has_sanitize && !call.resp->sanitize.degraded;
      if (ok) {
        for (uint64_t s : call.resp->sanitize.supports_after) {
          ok = ok && s <= call.req.psi;
        }
      }
      if (!ok) ++failed;
    }
    if (last != nullptr && last->resp && last->resp->has_sanitize) {
      auto out = seqhide::ReadDatabaseFromFile(SanitizeOut(c));
      if (!out.ok() ||
          !SanitizedCopyIsValid(db, *out, last->req.patterns, last->req.psi,
                                last->resp->sanitize.marks_introduced)) {
        ++failed;
      }
    }
  }
  return failed;
}

Result<std::unique_ptr<seqhide::serve::Server>> StartServer(bool trace) {
  seqhide::serve::ServerOptions options;
  options.db_path = kImage;
  options.socket_path = kSocket;
  std::unique_ptr<seqhide::serve::Server> server;
  {
    BenchSpan span(trace, "read");
    SEQHIDE_ASSIGN_OR_RETURN(server, seqhide::serve::Server::Create(options));
  }
  SEQHIDE_RETURN_IF_ERROR(server->Start());
  return server;
}

Result<RunOutcome> RunServe(const RunOptions& opts) {
  SEQHIDE_ASSIGN_OR_RETURN(auto warmup, LoadStreams("warm"));
  SEQHIDE_ASSIGN_OR_RETURN(auto streams, LoadStreams("ops"));

  // Set-up: Create (open the image, materialize the master copy) and
  // Start (bind, spawn workers). Each timed start first stops the previous
  // server, untimed; the server the ops use is the last one started before
  // the timed phase.
  Measurement m;
  Phases phases(opts.trace);
  std::unique_ptr<seqhide::serve::Server> server;
  auto stop = [&] {
    if (server == nullptr) return;
    server->RequestDrain();
    server->Join();
    server.reset();
  };
  auto time_starts = [&](size_t times) -> Status {
    for (size_t r = 0; r < times; ++r) {
      stop();
      const Clock::time_point start = Clock::now();
      BenchSpan span(opts.trace, "server_start");
      SEQHIDE_ASSIGN_OR_RETURN(server, StartServer(opts.trace));
      m.setup_s.push_back(SecondsSince(start));
    }
    return Status::OK();
  };
  SEQHIDE_ASSIGN_OR_RETURN(server, StartServer(false));
  SEQHIDE_RETURN_IF_ERROR(time_starts(kServeSetupRepeats / 2));
  phases.EndSetup(&m);

  std::vector<std::unique_ptr<seqhide::serve::ServeClient>> clients;
  for (size_t c = 0; c < kServeConnections; ++c) {
    SEQHIDE_ASSIGN_OR_RETURN(auto client,
                             seqhide::serve::ServeClient::ConnectUnix(kSocket));
    clients.push_back(std::move(client));
  }
  DriveClosedLoop(false, clients, &warmup);
  for (const auto& stream : warmup) {
    for (const ServeCall& call : stream) {
      if (!call.resp || call.resp->status != "ok") {
        return Status::Internal("warm-up request failed");
      }
    }
  }

  phases.BeginTimed();
  DriveClosedLoop(opts.trace, clients, &streams);
  phases.EndTimed(&m);

  clients.clear();
  SEQHIDE_RETURN_IF_ERROR(time_starts(kServeSetupRepeats / 2));
  stop();

  for (const auto& stream : streams) {
    for (const ServeCall& call : stream) {
      m.op_ms.push_back(call.rtt_ms);
      ServeOpTiming timing;
      timing.rtt_us = call.rtt_ms * 1e3;
      timing.sanitize = call.req.method == seqhide::serve::Method::kSanitize;
      if (call.resp) {
        timing.queue_us = static_cast<double>(call.resp->queue_us);
        timing.work_us = static_cast<double>(call.resp->work_us);
      }
      m.serve_ops.push_back(timing);
    }
  }
  const uint64_t failed = CheckServeCalls(&streams);
  return Finish(opts, m, failed, "request");
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "paper_sweep" || name == "long_rows" ||
         name == "serve_query" || name == "serve_mixed";
}

size_t OpsFor(const std::string& workload, double seconds) {
  const double scale = std::max(seconds, 1.0) / 10.0;
  auto scaled = [&](size_t per10s, size_t unit) {
    const double units = std::round(scale * static_cast<double>(per10s) /
                                    static_cast<double>(unit));
    return std::max<size_t>(1, static_cast<size_t>(units)) * unit;
  };
  if (workload == "paper_sweep") {
    return scaled(kSweepGridPassesPer10s * kSweepPsiCount * 4,
                  kSweepPsiCount * 4);
  }
  if (workload == "long_rows") return scaled(kLongOpsPer10s, 10);
  if (workload == "serve_query") {
    return scaled(kServeQueryOpsPer10s, kServeConnections * 10);
  }
  return scaled(kServeMixedOpsPer10s, kServeConnections * kServeSanitizeEvery);
}

Status Generate(const RunOptions& opts) {
  if (opts.workload == "paper_sweep") return GenerateSweep();
  if (opts.workload == "long_rows") return GenerateLong(opts);
  return GenerateServe(opts);
}

Result<RunOutcome> Run(const RunOptions& opts) {
  if (opts.workload == "paper_sweep") return RunPaperSweep(opts);
  if (opts.workload == "long_rows") return RunLong(opts);
  return RunServe(opts);
}

}  // namespace perfbench
