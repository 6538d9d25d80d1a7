// Benchmarks for the seqhidb binary database (src/seq/binary_format.h).
// The headline claim — and the reason the format exists — is that
// OpenMapped() does O(header + |Σ|) work regardless of database size:
// it checksums the 288-byte header, validates section geometry and the
// alphabet, and maps everything else lazily. BM_OpenMapped sweeps the row
// count across two orders of magnitude to make that visible next to the
// linear text reader (BM_ReadTextDb) and full materialization
// (BM_MaterializeMapped). The deterministic `file_bytes` counter pins the
// input sizes so tools/bench_compare --counters-only catches layout
// regressions (a format change that grows files shows up here before it
// shows up as time).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "bench/gbench_json.h"
#include "src/common/random.h"
#include "src/match/constrained_count.h"
#include "src/match/subsequence.h"
#include "src/seq/binary_format.h"
#include "src/seq/database.h"
#include "src/seq/io.h"
#include "src/seq/signature.h"

namespace seqhide {
namespace {

SequenceDatabase MakeDb(size_t rows, size_t mean_len, uint64_t seed) {
  Rng rng(seed);
  SequenceDatabase db;
  const size_t alphabet = 32;
  for (size_t s = 0; s < alphabet; ++s) {
    db.alphabet().Intern("s" + std::to_string(s));
  }
  for (size_t t = 0; t < rows; ++t) {
    Sequence seq;
    const size_t len = mean_len / 2 + rng.NextBounded(mean_len);
    for (size_t i = 0; i < len; ++i) {
      seq.Append(static_cast<SymbolId>(rng.NextBounded(alphabet)));
    }
    db.Add(std::move(seq));
  }
  return db;
}

// One scratch file per row count and format, written on first use in
// this process and reused across the benchmarks so BM_OpenMapped and
// BM_ReadTextDb time reading, not setup. A file left by an earlier run
// is overwritten: it may hold an older seqhidb layout.
std::string ScratchPathFor(size_t rows, const std::string& ext) {
  static std::filesystem::path dir = std::filesystem::temp_directory_path();
  static std::set<std::string> written;
  std::string path =
      (dir / ("seqhide_bench_" + std::to_string(rows) + ext)).string();
  if (written.insert(path).second) {
    const SequenceDatabase db = MakeDb(rows, 16, rows);
    Status s = ext == ".hidb" ? WriteBinaryDatabaseToFile(db, path)
                              : WriteDatabaseToFile(db, path);
    if (!s.ok()) {
      std::fprintf(stderr, "bench setup failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  return path;
}

std::string BinaryPathFor(size_t rows) { return ScratchPathFor(rows, ".hidb"); }
std::string TextPathFor(size_t rows) { return ScratchPathFor(rows, ".txt"); }

// The headline: open time must stay flat as file_bytes grows ~64x.
void BM_OpenMapped(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const std::string path = BinaryPathFor(rows);
  size_t file_bytes = 0;
  for (auto _ : state) {
    auto mapped = MappedDatabase::OpenMapped(path);
    if (!mapped.ok()) state.SkipWithError("OpenMapped failed");
    file_bytes = mapped->file_bytes();
    benchmark::DoNotOptimize(mapped->size());
  }
  state.counters["file_bytes"] =
      benchmark::Counter(static_cast<double>(file_bytes));
}
BENCHMARK(BM_OpenMapped)->Arg(512)->Arg(4096)->Arg(32768);

// The contrast: the text reader parses every row, so it scales linearly
// where BM_OpenMapped stays flat.
void BM_ReadTextDb(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const std::string path = TextPathFor(rows);
  for (auto _ : state) {
    auto db = ReadDatabaseFromFile(path);
    if (!db.ok()) state.SkipWithError("ReadDatabaseFromFile failed");
    benchmark::DoNotOptimize(db->size());
  }
}
BENCHMARK(BM_ReadTextDb)->Arg(512)->Arg(4096)->Arg(32768);

// Full checksum verification and full materialization both touch every
// byte: the prices OpenMapped defers.
void BM_VerifyChecksums(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  auto mapped = MappedDatabase::OpenMapped(BinaryPathFor(rows));
  if (!mapped.ok()) {
    state.SkipWithError("OpenMapped failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapped->VerifyChecksums().ok());
  }
}
BENCHMARK(BM_VerifyChecksums)->Arg(512)->Arg(4096)->Arg(32768);

void BM_MaterializeMapped(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  auto mapped = MappedDatabase::OpenMapped(BinaryPathFor(rows));
  if (!mapped.ok()) {
    state.SkipWithError("OpenMapped failed");
    return;
  }
  for (auto _ : state) {
    auto db = mapped->ToDatabase();
    if (!db.ok()) state.SkipWithError("ToDatabase failed");
    benchmark::DoNotOptimize(db->size());
  }
}
BENCHMARK(BM_MaterializeMapped)->Arg(512)->Arg(4096)->Arg(32768);

void BM_WriteBinary(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  SequenceDatabase db = MakeDb(rows, 16, rows);
  size_t file_bytes = 0;
  for (auto _ : state) {
    auto image = WriteBinaryDatabaseToString(db);
    if (!image.ok()) state.SkipWithError("serialization failed");
    file_bytes = image->size();
    benchmark::DoNotOptimize(image->data());
  }
  state.counters["file_bytes"] =
      benchmark::Counter(static_cast<double>(file_bytes));
}
BENCHMARK(BM_WriteBinary)->Arg(512)->Arg(4096)->Arg(32768);

// Support over the mapping through the screened loop the server and the
// CLI use, versus the in-memory full scan on the materialized copy of the
// same database. The row signatures are built once, outside the timed
// loop, as the server builds them at load; the deterministic counter
// records how many rows the signature screen lets through.
void BM_SupportMapped(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  auto mapped = MappedDatabase::OpenMapped(BinaryPathFor(rows));
  if (!mapped.ok()) {
    state.SkipWithError("OpenMapped failed");
    return;
  }
  std::vector<uint64_t> signatures;
  if (!mapped->ValidateRows(&signatures).ok()) {
    state.SkipWithError("ValidateRows failed");
    return;
  }
  const DatabaseView db = mapped->view().WithSignatures(signatures);
  Sequence pattern;  // rare-ish 3-symbol pattern over the 32-way alphabet
  pattern.Append(3);
  pattern.Append(17);
  pattern.Append(29);
  const uint64_t need = SequenceSignature(pattern);
  size_t candidates = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    if ((signatures[t] & need) == need) ++candidates;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConstrainedSupport(pattern, ConstraintSpec(), db));
  }
  state.counters["candidate_rows"] =
      benchmark::Counter(static_cast<double>(candidates));
}
BENCHMARK(BM_SupportMapped)->Arg(512)->Arg(4096)->Arg(32768);

void BM_SupportInMemory(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  auto mapped = MappedDatabase::OpenMapped(BinaryPathFor(rows));
  if (!mapped.ok()) {
    state.SkipWithError("OpenMapped failed");
    return;
  }
  auto db = mapped->ToDatabase();
  if (!db.ok()) {
    state.SkipWithError("ToDatabase failed");
    return;
  }
  Sequence pattern;
  pattern.Append(3);
  pattern.Append(17);
  pattern.Append(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Support(pattern, *db));
  }
}
BENCHMARK(BM_SupportInMemory)->Arg(512)->Arg(4096)->Arg(32768);

}  // namespace
}  // namespace seqhide

int main(int argc, char** argv) {
  return seqhide::bench::RunGoogleBenchmark("bench_binary_db", argc, argv);
}
