// Micro-benchmarks of the algorithmic kernels (paper §8 lists efficiency
// as future work; these quantify the implementation choices documented in
// DESIGN.md §5):
//   * Lemma 2 count DP,
//   * Lemma 3 prefix table — paper O(n²m) recurrence vs our O(nm)
//     prefix-sum variant,
//   * δ(T[i]) — paper's deletion method (Thm. 2) vs forward×backward,
//   * constrained counting (gaps / window),
//   * single-sequence sanitization,
//   * PrefixSpan vs level-wise mining.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/gbench_json.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/data/workload.h"
#include "src/hide/local.h"
#include "src/hide/sanitizer.h"
#include "src/match/bitset_match.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/kernel.h"
#include "src/match/pattern_trie.h"
#include "src/match/position_delta.h"
#include "src/match/prefix_table.h"
#include "src/match/scratch.h"
#include "src/match/subsequence.h"
#include "src/mine/inverted_index.h"
#include "src/mine/level_wise.h"
#include "src/mine/prefix_span.h"

namespace seqhide {
namespace {

// Current value of an obs counter (0 when observability is compiled out
// or the counter has not been touched yet).
uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

Sequence MakeSeq(size_t n, size_t alphabet, uint64_t seed) {
  Rng rng(seed);
  Sequence out;
  for (size_t i = 0; i < n; ++i) {
    out.Append(static_cast<SymbolId>(rng.NextBounded(alphabet)));
  }
  return out;
}

void BM_CountMatchings(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(3, 10, 2);
  const uint64_t rows_before = CounterValue("match.count.dp_rows");
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMatchings(s, t));
  }
  // Attribute time to DP rows, not guesses: rows per iteration shows up
  // in the report next to the wall time.
  state.counters["dp_rows"] = benchmark::Counter(
      static_cast<double>(CounterValue("match.count.dp_rows") - rows_before),
      benchmark::Counter::kAvgIterations);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_CountMatchings)->Range(16, 4096)->Complexity(benchmark::oN);

void BM_PrefixTableFast(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(3, 10, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPrefixEndTable(s, t));
  }
}
BENCHMARK(BM_PrefixTableFast)->Range(16, 1024);

void BM_PrefixTableNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(3, 10, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPrefixEndTableNaive(s, t));
  }
}
BENCHMARK(BM_PrefixTableNaive)->Range(16, 1024);

void BM_PositionDeltasFast(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(3, 10, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PositionDeltas(s, ConstraintSpec(), t));
  }
}
BENCHMARK(BM_PositionDeltasFast)->Range(16, 1024);

void BM_PositionDeltasByDeletion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(3, 10, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PositionDeltasByDeletion(s, t));
  }
}
BENCHMARK(BM_PositionDeltasByDeletion)->Range(16, 1024);

void BM_ConstrainedCountGap(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(3, 10, 2);
  ConstraintSpec spec = ConstraintSpec::UniformGap(0, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountConstrainedMatchings(s, spec, t));
  }
}
BENCHMARK(BM_ConstrainedCountGap)->Range(16, 1024);

void BM_ConstrainedCountWindow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(3, 10, 2);
  ConstraintSpec spec = ConstraintSpec::Window(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountConstrainedMatchings(s, spec, t));
  }
}
BENCHMARK(BM_ConstrainedCountWindow)->Range(16, 512);

void BM_SanitizeSequenceHeuristic(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  // Dense in sensitive symbols so there is real work to do.
  Sequence base = MakeSeq(n, 4, 1);
  std::vector<Sequence> patterns = {MakeSeq(2, 4, 2), MakeSeq(3, 4, 3)};
  for (auto _ : state) {
    Sequence t = base;
    LocalSanitizeResult r = SanitizeSequence(
        &t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
    benchmark::DoNotOptimize(r.marks_introduced);
  }
}
BENCHMARK(BM_SanitizeSequenceHeuristic)->Range(16, 512);

void BM_MinePrefixSpanTrucks(benchmark::State& state) {
  ExperimentWorkload w = MakeTrucksWorkload();
  MinerOptions opts;
  opts.min_support = static_cast<size_t>(state.range(0));
  opts.max_length = 6;
  for (auto _ : state) {
    auto result = MineFrequentSequences(w.db, opts);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_MinePrefixSpanTrucks)->Arg(10)->Arg(20)->Arg(40);

void BM_SupportScan(benchmark::State& state) {
  RandomDatabaseOptions gen;
  gen.num_sequences = static_cast<size_t>(state.range(0));
  gen.min_length = 10;
  gen.max_length = 30;
  gen.alphabet_size = 100;
  gen.seed = 21;
  SequenceDatabase db = MakeRandomDatabase(gen);
  Sequence pattern = MakeSeq(2, 100, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Support(pattern, db));
  }
}
BENCHMARK(BM_SupportScan)->Range(256, 16384);

void BM_SupportIndexed(benchmark::State& state) {
  RandomDatabaseOptions gen;
  gen.num_sequences = static_cast<size_t>(state.range(0));
  gen.min_length = 10;
  gen.max_length = 30;
  gen.alphabet_size = 100;
  gen.seed = 21;
  SequenceDatabase db = MakeRandomDatabase(gen);
  InvertedIndex index(db);
  Sequence pattern = MakeSeq(2, 100, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Support(pattern, db));
  }
}
BENCHMARK(BM_SupportIndexed)->Range(256, 16384);

// Algorithm 1 end to end with the row-signature screen in the count and
// verify stages (src/seq/signature.h). count_rows and rescan_rows are the
// (row, pattern) pairs the screen let through, pruned_rows the pairs it
// skipped in both stages.
void BM_SanitizeScreened(benchmark::State& state) {
  RandomDatabaseOptions gen;
  gen.num_sequences = 4096;
  gen.min_length = 10;
  gen.max_length = 30;
  gen.alphabet_size = 100;
  gen.seed = 23;
  SequenceDatabase base = MakeRandomDatabase(gen);
  std::vector<Sequence> patterns = {MakeSeq(2, 100, 24),
                                    MakeSeq(3, 100, 25)};
  const uint64_t pruned_before =
      CounterValue("sanitize.count_screen_pruned") +
      CounterValue("sanitize.verify_screen_pruned");
  size_t count_rows = 0, rescan_rows = 0;
  for (auto _ : state) {
    SequenceDatabase db = base;
    auto report = Sanitize(&db, patterns, SanitizeOptions::HH());
    benchmark::DoNotOptimize(report.ok());
    if (report.ok()) {
      count_rows = report->count_rows;
      rescan_rows = report->verify_rescan_rows;
    }
  }
  state.counters["count_rows"] =
      benchmark::Counter(static_cast<double>(count_rows));
  state.counters["rescan_rows"] =
      benchmark::Counter(static_cast<double>(rescan_rows));
  state.counters["pruned_rows"] = benchmark::Counter(
      static_cast<double>(CounterValue("sanitize.count_screen_pruned") +
                          CounterValue("sanitize.verify_screen_pruned") -
                          pruned_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SanitizeScreened);

// --- Bit-parallel / multi-pattern kernels (docs/kernels.md) ---

// Shift-And existence scan vs the greedy scalar subsequence scan, on a
// text that does NOT contain the pattern (both must walk the whole text).
void BM_ShiftAndScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(8, 10, 2);
  s.Append(static_cast<SymbolId>(10));  // one symbol the text never has
  const SymbolMasks masks(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HasSubsequenceBitParallel(masks, t));
  }
}
BENCHMARK(BM_ShiftAndScan)->Range(16, 4096);

void BM_GreedySubsequenceScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(8, 10, 2);
  s.Append(static_cast<SymbolId>(10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsSubsequence(s, t));
  }
}
BENCHMARK(BM_GreedySubsequenceScan)->Range(16, 4096);

// Cache-blocked counting DP; same shape as BM_CountMatchings above so the
// two tables read side by side.
void BM_CountMatchingsBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Sequence t = MakeSeq(n, 10, 1);
  Sequence s = MakeSeq(3, 10, 2);
  const SymbolMasks masks(s);
  MatchScratch scratch;
  const uint64_t rows_before = CounterValue("match.bitset.dp_rows");
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMatchingsBlocked(s, masks, t, &scratch));
  }
  state.counters["dp_rows"] = benchmark::Counter(
      static_cast<double>(CounterValue("match.bitset.dp_rows") - rows_before),
      benchmark::Counter::kAvgIterations);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_CountMatchingsBlocked)->Range(16, 4096)->Complexity(benchmark::oN);

// The headline multi-pattern section: total matching count of a 16-pattern
// sensitive set over a database, per engine. The trie engine replaces the
// |S| DP passes per row with one shared-prefix pass.
void BM_MultiPatternCount(benchmark::State& state) {
  const KernelEngine engine = static_cast<KernelEngine>(state.range(0) + 1);
  RandomDatabaseOptions gen;
  gen.num_sequences = 256;
  gen.min_length = 40;
  gen.max_length = 80;
  gen.alphabet_size = 8;
  gen.seed = 31;
  const SequenceDatabase db = MakeRandomDatabase(gen);
  // Sixteen patterns in four shared-prefix families of four.
  std::vector<Sequence> patterns;
  for (uint64_t family = 0; family < 4; ++family) {
    const Sequence prefix = MakeSeq(3, 8, 32 + family);
    for (uint64_t leaf = 0; leaf < 4; ++leaf) {
      Sequence s = prefix;
      Sequence tail = MakeSeq(2, 8, 64 + 4 * family + leaf);
      for (size_t i = 0; i < tail.size(); ++i) s.Append(tail[i]);
      patterns.push_back(std::move(s));
    }
  }
  const std::vector<ConstraintSpec> none;
  const MatchKernel kernel(patterns, none, engine);
  MatchScratch scratch;
  std::vector<uint64_t> counts;
  const uint64_t node_updates_before = CounterValue("match.trie.node_updates");
  const uint64_t dp_rows_before = CounterValue("match.count.dp_rows") +
                                  CounterValue("match.bitset.dp_rows");
  for (auto _ : state) {
    uint64_t total = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      total = SatAdd(total, kernel.CountRow(db[t], &scratch, &counts));
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["dp_rows"] = benchmark::Counter(
      static_cast<double>(CounterValue("match.count.dp_rows") +
                          CounterValue("match.bitset.dp_rows") -
                          dp_rows_before),
      benchmark::Counter::kAvgIterations);
  state.counters["trie_node_updates"] = benchmark::Counter(
      static_cast<double>(CounterValue("match.trie.node_updates") -
                          node_updates_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MultiPatternCount)
    ->Arg(0)  // scalar
    ->Arg(1)  // bitset
    ->Arg(2)  // trie
    ->ArgNames({"engine"});

// Engine sweep over the full pipeline. The semantic counters recorded
// here — marks, supports-after, stage-1 rows — must be identical in every
// engine × thread section of the checked-in baseline: the engine and the
// thread count are speed knobs, never result knobs. bench_compare's
// bit-stable counter gate enforces that on every CI run.
void BM_SanitizeEngineSweep(benchmark::State& state) {
  const KernelEngine engine = static_cast<KernelEngine>(state.range(0) + 1);
  const size_t threads = static_cast<size_t>(state.range(1));
  RandomDatabaseOptions gen;
  gen.num_sequences = 512;
  gen.min_length = 10;
  gen.max_length = 30;
  gen.alphabet_size = 12;
  gen.seed = 41;
  const SequenceDatabase base = MakeRandomDatabase(gen);
  const std::vector<Sequence> patterns = {
      MakeSeq(2, 12, 42), MakeSeq(3, 12, 43), MakeSeq(3, 12, 44),
      MakeSeq(4, 12, 45)};
  size_t marks = 0, supports_after = 0, count_rows = 0;
  for (auto _ : state) {
    SequenceDatabase db = base;
    SanitizeOptions opts = SanitizeOptions::HH();
    opts.psi = 4;
    opts.kernel = engine;
    opts.num_threads = threads;
    auto report = Sanitize(&db, patterns, opts);
    benchmark::DoNotOptimize(report.ok());
    if (report.ok()) {
      marks = report->marks_introduced;
      count_rows = report->count_rows;
      supports_after = 0;
      for (size_t s : report->supports_after) supports_after += s;
    }
  }
  state.counters["marks"] =
      benchmark::Counter(static_cast<double>(marks));
  state.counters["supports_after"] =
      benchmark::Counter(static_cast<double>(supports_after));
  state.counters["count_rows"] =
      benchmark::Counter(static_cast<double>(count_rows));
}
BENCHMARK(BM_SanitizeEngineSweep)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({2, 8})
    ->ArgNames({"engine", "threads"});

void BM_MineLevelWiseTrucks(benchmark::State& state) {
  ExperimentWorkload w = MakeTrucksWorkload();
  MinerOptions opts;
  opts.min_support = static_cast<size_t>(state.range(0));
  opts.max_length = 6;
  for (auto _ : state) {
    auto result = MineFrequentSequencesLevelWise(w.db, opts);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_MineLevelWiseTrucks)->Arg(10)->Arg(20)->Arg(40);

}  // namespace
}  // namespace seqhide

// Custom main (instead of BENCHMARK_MAIN) so the run is harness-wrapped
// (--json/--trace-json/--quick) and the cumulative obs counter dump
// lands after the benchmark table: time can be attributed to DP rows /
// index pruning instead of guessed at.
int main(int argc, char** argv) {
  return seqhide::bench::RunGoogleBenchmark("bench_kernels", argc, argv, [] {
    std::cout << "\n== obs counters (cumulative over all benchmarks) ==\n"
              << seqhide::obs::MetricsRegistry::Default().Snapshot().ToText();
  });
}
