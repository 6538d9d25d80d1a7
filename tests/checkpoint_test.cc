// Checkpoint serialization (src/hide/checkpoint.h): round-trip fidelity,
// atomic-write behavior, corruption/truncation detection, version gating,
// and fingerprint sensitivity.

#include "src/hide/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

CheckpointState SampleState() {
  CheckpointState st;
  st.fingerprint = 0xdeadbeefcafef00dULL;
  st.rounds_completed = 3;
  st.checkpoints_written = 2;
  st.rng_state = {1, 2, 3, 0xffffffffffffffffULL};
  st.sequences_supporting_before = 17;
  st.count_rows = 340;
  st.supports_before = {17, 9};
  st.victims = {0, 4, 7, 12};
  st.num_patterns = 2;
  st.victim_pattern_support = {1, 0, 1, 1, 0, 1, 1, 0};
  st.completed.resize(3);
  st.completed[0].marked_positions = {2, 5};
  st.completed[1].skipped = 1;
  st.completed[1].marked_positions = {0};
  // completed[2]: no marks at all (victim had none to make).
  st.metrics.counters["sanitize.checkpoints_written"] = 2;
  st.metrics.gauges["sanitize.victims"] = 4;
  obs::MetricsSnapshot::HistogramData h;
  h.count = 2;
  h.sum = 12;
  h.buckets = {{4, 1}, {8, 1}};
  st.metrics.histograms["local.marks"] = h;
  st.metrics.spans["sanitize/mark"] =
      obs::MetricsSnapshot::SpanData{2, 1000, 400, 600};
  return st;
}

void ExpectStatesEqual(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.sequences_supporting_before, b.sequences_supporting_before);
  EXPECT_EQ(a.count_rows, b.count_rows);
  EXPECT_EQ(a.supports_before, b.supports_before);
  EXPECT_EQ(a.victims, b.victims);
  EXPECT_EQ(a.num_patterns, b.num_patterns);
  EXPECT_EQ(a.victim_pattern_support, b.victim_pattern_support);
  ASSERT_EQ(a.completed.size(), b.completed.size());
  for (size_t i = 0; i < a.completed.size(); ++i) {
    EXPECT_EQ(a.completed[i].skipped, b.completed[i].skipped) << i;
    EXPECT_EQ(a.completed[i].marked_positions, b.completed[i].marked_positions)
        << i;
  }
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  EXPECT_EQ(a.metrics.gauges, b.metrics.gauges);
  ASSERT_EQ(a.metrics.histograms.size(), b.metrics.histograms.size());
  for (const auto& [name, data] : a.metrics.histograms) {
    auto it = b.metrics.histograms.find(name);
    ASSERT_NE(it, b.metrics.histograms.end()) << name;
    EXPECT_EQ(data.count, it->second.count) << name;
    EXPECT_EQ(data.sum, it->second.sum) << name;
    EXPECT_EQ(data.buckets, it->second.buckets) << name;
  }
  ASSERT_EQ(a.metrics.spans.size(), b.metrics.spans.size());
  for (const auto& [path, span] : a.metrics.spans) {
    auto it = b.metrics.spans.find(path);
    ASSERT_NE(it, b.metrics.spans.end()) << path;
    EXPECT_EQ(span.count, it->second.count) << path;
    EXPECT_EQ(span.total_ns, it->second.total_ns) << path;
  }
}

TEST(CheckpointTest, RoundTripPreservesEverything) {
  const std::string path = TempPath("ckpt_roundtrip.bin");
  CheckpointState st = SampleState();
  ASSERT_TRUE(WriteCheckpoint(path, st).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStatesEqual(st, *loaded);
  std::remove(path.c_str());
}

TEST(CheckpointTest, EmptyStateRoundTrips) {
  const std::string path = TempPath("ckpt_empty.bin");
  CheckpointState st;  // all defaults
  ASSERT_TRUE(WriteCheckpoint(path, st).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStatesEqual(st, *loaded);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto loaded = LoadCheckpoint(TempPath("ckpt_never_written.bin"));
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
}

TEST(CheckpointTest, NoTmpFileLeftBehind) {
  const std::string path = TempPath("ckpt_tmp.bin");
  ASSERT_TRUE(WriteCheckpoint(path, SampleState()).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "tmp file must be renamed away";
  std::remove(path.c_str());
}

TEST(CheckpointTest, BadMagicIsCorruption) {
  const std::string path = TempPath("ckpt_magic.bin");
  ASSERT_TRUE(WriteCheckpoint(path, SampleState()).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(LoadCheckpoint(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(CheckpointTest, FlippedPayloadByteIsCorruption) {
  const std::string path = TempPath("ckpt_flip.bin");
  ASSERT_TRUE(WriteCheckpoint(path, SampleState()).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() - 1] ^= 0x01;  // last payload byte
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(LoadCheckpoint(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(CheckpointTest, EveryTruncationIsCorruption) {
  // Cutting the file anywhere — inside the header or the payload — must
  // load as Corruption, never crash or return garbage.
  const std::string path = TempPath("ckpt_trunc.bin");
  ASSERT_TRUE(WriteCheckpoint(path, SampleState()).ok());
  const std::string bytes = ReadFileBytes(path);
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    WriteFileBytes(path, bytes.substr(0, cut));
    auto loaded = LoadCheckpoint(path);
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "cut=" << cut << ": " << loaded.status();
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingGarbageIsCorruption) {
  const std::string path = TempPath("ckpt_trail.bin");
  ASSERT_TRUE(WriteCheckpoint(path, SampleState()).ok());
  WriteFileBytes(path, ReadFileBytes(path) + "extra");
  EXPECT_TRUE(LoadCheckpoint(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(CheckpointTest, NewerVersionIsFailedPrecondition) {
  const std::string path = TempPath("ckpt_version.bin");
  ASSERT_TRUE(WriteCheckpoint(path, SampleState()).ok());
  std::string bytes = ReadFileBytes(path);
  // Version is the u32 right after the 8-byte magic (little-endian).
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(LoadCheckpoint(path).status().IsFailedPrecondition());
  std::remove(path.c_str());
}

TEST(CheckpointTest, WriteFaultsLeavePreviousCheckpointIntact) {
#ifdef SEQHIDE_FAULTS_DISABLED
  GTEST_SKIP() << "fault injection compiled out";
#endif
  const std::string path = TempPath("ckpt_fault.bin");
  CheckpointState first = SampleState();
  ASSERT_TRUE(WriteCheckpoint(path, first).ok());
  CheckpointState second = SampleState();
  second.rounds_completed = 99;

  for (const char* site :
       {"checkpoint.write.open", "checkpoint.write.payload",
        "checkpoint.write.rename"}) {
    FaultInjector::Default().Reset();
    ASSERT_TRUE(FaultInjector::Default().ArmSite(site, 1).ok());
    Status s = WriteCheckpoint(path, second);
    EXPECT_FALSE(s.ok()) << site;
    // The failed write must not tear the previous checkpoint and must not
    // leave a stray tmp file.
    auto loaded = LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << site << ": " << loaded.status();
    EXPECT_EQ(loaded->rounds_completed, first.rounds_completed) << site;
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good()) << site;
  }
  FaultInjector::Default().Reset();
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadFaultsSurfaceAsErrors) {
#ifdef SEQHIDE_FAULTS_DISABLED
  GTEST_SKIP() << "fault injection compiled out";
#endif
  const std::string path = TempPath("ckpt_load_fault.bin");
  ASSERT_TRUE(WriteCheckpoint(path, SampleState()).ok());

  FaultInjector::Default().Reset();
  ASSERT_TRUE(
      FaultInjector::Default().ArmSite("checkpoint.load.open", 1).ok());
  EXPECT_TRUE(LoadCheckpoint(path).status().IsIOError());

  FaultInjector::Default().Reset();
  ASSERT_TRUE(
      FaultInjector::Default().ArmSite("checkpoint.load.payload", 1).ok());
  EXPECT_TRUE(LoadCheckpoint(path).status().IsCorruption());

  FaultInjector::Default().Reset();
  EXPECT_TRUE(LoadCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, FingerprintSeparatesRuns) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"a", "c", "b", "a"});
  std::vector<Sequence> patterns = {testutil::Seq(&db.alphabet(), "a b")};
  std::vector<ConstraintSpec> constraints;
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 1;

  auto fingerprint = [&](const SequenceDatabase& d,
                         const std::vector<ConstraintSpec>& c,
                         const SanitizeOptions& o) {
    return ComputeRunFingerprint(DatabaseView(d), patterns, c, o);
  };
  const uint64_t base = fingerprint(db, constraints, opts);
  EXPECT_EQ(base, fingerprint(db, constraints, opts))
      << "fingerprint must be deterministic";

  // Result-affecting changes move the fingerprint...
  SanitizeOptions other = opts;
  other.psi = 0;
  EXPECT_NE(base, fingerprint(db, constraints, other));
  other = opts;
  other.seed = 999;
  EXPECT_NE(base, fingerprint(db, constraints, other));
  other = opts;
  other.local = LocalStrategy::kRandom;
  EXPECT_NE(base, fingerprint(db, constraints, other));
  other = opts;
  other.mark_round_size = 7;
  EXPECT_NE(base, fingerprint(db, constraints, other));

  SequenceDatabase db2 = db;
  db2.AddFromNames({"b"});
  EXPECT_NE(base, fingerprint(db2, constraints, opts));

  std::vector<ConstraintSpec> gap(patterns.size(),
                                  ConstraintSpec::UniformGap(0, 2));
  EXPECT_NE(base, fingerprint(db, gap, opts));

  // ...while execution-only knobs do not (a resume may legally use a
  // different thread count or budget).
  other = opts;
  other.num_threads = 8;
  other.budget.deadline_seconds = 1.0;
  other.budget.max_mark_rounds = 5;
  other.checkpoint_path = "/elsewhere.ckpt";
  EXPECT_EQ(base, fingerprint(db, constraints, other));
}

// The digest is part of the on-disk contract: checkpoints and durable
// server jobs written by an earlier build resume only if it is stable.
// Pinned on a small fixed run covering marks, constraints, and
// per-pattern ψ; a change here orphans every checkpoint in the field.
TEST(CheckpointTest, FingerprintGoldenDigest) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c"});
  db.AddFromNames({"a", "c", "b", "a"});
  db.AddFromNames({"c", "a"});
  db.mutable_sequence(1)->Mark(2);
  std::vector<Sequence> patterns = {testutil::Seq(&db.alphabet(), "a b"),
                                    testutil::Seq(&db.alphabet(), "c a")};
  std::vector<ConstraintSpec> constraints = {ConstraintSpec::UniformGap(0, 2),
                                             ConstraintSpec()};
  SanitizeOptions opts = SanitizeOptions::RH(7);
  opts.per_pattern_psi = {1, 0};
  opts.use_index = true;
  opts.mark_round_size = 3;
  EXPECT_EQ(ComputeRunFingerprint(DatabaseView(db), patterns, constraints,
                                  opts),
            0x861d0dbdc51beeaeULL);
}

}  // namespace
}  // namespace seqhide
