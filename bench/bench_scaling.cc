// End-to-end scaling of the full sanitization pipeline (paper §8 calls
// out efficiency on large datasets as future work): wall time of
// Sanitize() as each workload dimension grows — database size |D|,
// sequence length |T|, number of sensitive patterns |S_h|, and alphabet
// size |Σ| (smaller alphabets mean denser matching sets).

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"
#include "src/common/random.h"
#include "src/data/workload.h"
#include "src/hide/sanitizer.h"
#include "src/obs/metrics.h"

namespace seqhide {
namespace {

std::vector<Sequence> MakePatterns(size_t count, size_t alphabet,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Sequence> out;
  while (out.size() < count) {
    Sequence p;
    size_t len = 2 + rng.NextBounded(2);
    for (size_t i = 0; i < len; ++i) {
      p.Append(static_cast<SymbolId>(rng.NextBounded(alphabet)));
    }
    bool duplicate = false;
    for (const auto& q : out) {
      if (q == p) duplicate = true;
    }
    if (!duplicate) out.push_back(std::move(p));
  }
  return out;
}

void BM_SanitizeVsDatabaseSize(benchmark::State& state) {
  RandomDatabaseOptions gen;
  gen.num_sequences = static_cast<size_t>(state.range(0));
  gen.min_length = 10;
  gen.max_length = 30;
  gen.alphabet_size = 50;
  gen.seed = 11;
  SequenceDatabase base = MakeRandomDatabase(gen);
  std::vector<Sequence> patterns = MakePatterns(2, gen.alphabet_size, 7);
  for (auto _ : state) {
    SequenceDatabase db = base;
    auto report = Sanitize(&db, patterns, SanitizeOptions::HH());
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(gen.num_sequences));
}
BENCHMARK(BM_SanitizeVsDatabaseSize)->Range(64, 8192);

void BM_SanitizeVsSequenceLength(benchmark::State& state) {
  RandomDatabaseOptions gen;
  gen.num_sequences = 200;
  gen.min_length = static_cast<size_t>(state.range(0));
  gen.max_length = static_cast<size_t>(state.range(0));
  gen.alphabet_size = 20;
  gen.seed = 13;
  SequenceDatabase base = MakeRandomDatabase(gen);
  std::vector<Sequence> patterns = MakePatterns(2, gen.alphabet_size, 7);
  // 0 when observability is compiled out.
  const obs::Counter* delta_rounds = obs::MetricsRegistry::Default().GetCounter(
      "local.delta_recomputations");
  size_t marks = 0;
  uint64_t rounds = 0;
  for (auto _ : state) {
    SequenceDatabase db = base;
    const uint64_t rounds_before = delta_rounds->Value();
    auto report = Sanitize(&db, patterns, SanitizeOptions::HH());
    benchmark::DoNotOptimize(report.ok());
    marks = report->marks_introduced;
    rounds = delta_rounds->Value() - rounds_before;
  }
  // Deterministic outputs of one run, not rates: a mark-stage change that
  // moves a single mark or δ round drifts these against the baseline.
  state.counters["marks"] = benchmark::Counter(static_cast<double>(marks));
  state.counters["delta_recomputations"] =
      benchmark::Counter(static_cast<double>(rounds));
}
BENCHMARK(BM_SanitizeVsSequenceLength)->RangeMultiplier(2)->Range(8, 256);

void BM_SanitizeVsPatternCount(benchmark::State& state) {
  RandomDatabaseOptions gen;
  gen.num_sequences = 300;
  gen.min_length = 10;
  gen.max_length = 25;
  gen.alphabet_size = 30;
  gen.seed = 17;
  SequenceDatabase base = MakeRandomDatabase(gen);
  std::vector<Sequence> patterns = MakePatterns(
      static_cast<size_t>(state.range(0)), gen.alphabet_size, 7);
  for (auto _ : state) {
    SequenceDatabase db = base;
    auto report = Sanitize(&db, patterns, SanitizeOptions::HH());
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_SanitizeVsPatternCount)->RangeMultiplier(2)->Range(1, 16);

void BM_SanitizeVsAlphabetSize(benchmark::State& state) {
  RandomDatabaseOptions gen;
  gen.num_sequences = 300;
  gen.min_length = 15;
  gen.max_length = 25;
  gen.alphabet_size = static_cast<size_t>(state.range(0));
  gen.seed = 19;
  SequenceDatabase base = MakeRandomDatabase(gen);
  std::vector<Sequence> patterns = MakePatterns(2, gen.alphabet_size, 7);
  for (auto _ : state) {
    SequenceDatabase db = base;
    auto report = Sanitize(&db, patterns, SanitizeOptions::HH());
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_SanitizeVsAlphabetSize)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Thread sweep on one large synthetic config: same work at 1/2/4/8
// threads. The marks/victims/supports counters are emitted per run so
// the BENCH JSON itself proves the outputs are thread-count-invariant
// (tools/bench_compare holds them bit-stable across baselines); only the
// wall time may change. verify=false: the full-rescan cross-check is a
// debugging net, not part of the pipeline being measured.
void BM_SanitizeThreadSweep(benchmark::State& state) {
  RandomDatabaseOptions gen;
  gen.num_sequences = 2000;
  gen.min_length = 20;
  gen.max_length = 40;
  gen.alphabet_size = 30;
  gen.seed = 23;
  SequenceDatabase base = MakeRandomDatabase(gen);
  std::vector<Sequence> patterns = MakePatterns(4, gen.alphabet_size, 7);
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 50;
  opts.verify = false;
  opts.num_threads = static_cast<size_t>(state.range(0));
  size_t marks = 0, victims = 0, supports_before = 0, supports_after = 0;
  for (auto _ : state) {
    SequenceDatabase db = base;
    auto report = Sanitize(&db, patterns, opts);
    benchmark::DoNotOptimize(report.ok());
    marks = report->marks_introduced;
    victims = report->sequences_sanitized;
    supports_before = supports_after = 0;
    for (size_t s : report->supports_before) supports_before += s;
    for (size_t s : report->supports_after) supports_after += s;
  }
  // Deterministic outputs (identical for every Arg), not rates.
  state.counters["marks"] = benchmark::Counter(static_cast<double>(marks));
  state.counters["victims"] = benchmark::Counter(static_cast<double>(victims));
  state.counters["supports_before"] =
      benchmark::Counter(static_cast<double>(supports_before));
  state.counters["supports_after"] =
      benchmark::Counter(static_cast<double>(supports_after));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(gen.num_sequences));
}
BENCHMARK(BM_SanitizeThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_SanitizeTrucksWorkload(benchmark::State& state) {
  ExperimentWorkload w = MakeTrucksWorkload();
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    SequenceDatabase db = w.db;
    auto report = Sanitize(&db, w.sensitive, opts);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_SanitizeTrucksWorkload)->Arg(0)->Arg(20)->Arg(40);

}  // namespace
}  // namespace seqhide

int main(int argc, char** argv) {
  return seqhide::bench::RunGoogleBenchmark("bench_scaling", argc, argv);
}
