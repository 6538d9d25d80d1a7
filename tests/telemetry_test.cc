// Telemetry subsystem tests: flight-recorder ring semantics, memory
// pool accounting, Prometheus exposition golden schema (parsed back and
// cross-checked against the snapshot it was rendered from), and the run
// ledger's JSONL schema including its never-fail-the-run fault policy.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry/flight_recorder.h"
#include "src/obs/telemetry/mem_tracker.h"
#include "src/obs/telemetry/prometheus.h"
#include "src/obs/telemetry/run_ledger.h"
#include "src/obs/telemetry/telemetry.h"
#include "src/obs/trace.h"

namespace seqhide {
namespace obs {
namespace telemetry {
namespace {

TEST(FlightRecorderTest, RecordsInOrderWithTimestamps) {
  FlightRecorder recorder(16);
  recorder.Record(EventKind::kStage, "count.done", 10, 2);
  recorder.Record(EventKind::kVictims, "selected", 3, 10);
  recorder.Record(EventKind::kRound, "mark.round", 1, 1);

  EXPECT_EQ(recorder.total(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);

  std::vector<FlightEvent> tail = recorder.SnapshotTail(10);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 1u);
  EXPECT_EQ(tail[0].kind, EventKind::kStage);
  EXPECT_STREQ(tail[0].label, "count.done");
  EXPECT_EQ(tail[0].a, 10u);
  EXPECT_EQ(tail[0].b, 2u);
  EXPECT_EQ(tail[1].seq, 2u);
  EXPECT_EQ(tail[2].seq, 3u);
  // Steady-clock timestamps never run backwards within a thread.
  EXPECT_LE(tail[0].ts_ns, tail[1].ts_ns);
  EXPECT_LE(tail[1].ts_ns, tail[2].ts_ns);
}

TEST(FlightRecorderTest, WrapsAndCountsDrops) {
  FlightRecorder recorder(8);
  for (uint64_t i = 1; i <= 20; ++i) {
    recorder.Record(EventKind::kStage, "e", i, 0);
  }
  EXPECT_EQ(recorder.total(), 20u);
  // Everything past the first full ring overwrote an unread slot.
  EXPECT_EQ(recorder.dropped(), 12u);

  std::vector<FlightEvent> tail = recorder.SnapshotTail(100);
  ASSERT_EQ(tail.size(), 8u);
  // The surviving events are exactly the newest 8, oldest first.
  EXPECT_EQ(tail.front().seq, 13u);
  EXPECT_EQ(tail.back().seq, 20u);
  EXPECT_EQ(tail.front().a, 13u);
}

TEST(FlightRecorderTest, TruncatesLongLabels) {
  FlightRecorder recorder(4);
  const std::string long_label(200, 'x');
  recorder.Record(EventKind::kFault, long_label);
  std::vector<FlightEvent> tail = recorder.SnapshotTail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(std::string(tail[0].label), std::string(46, 'x'));
}

TEST(FlightRecorderTest, ConcurrentRecordersLoseNothing) {
  FlightRecorder recorder(1 << 12);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        recorder.Record(EventKind::kPool, "tick", i, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recorder.total(), kThreads * kPerThread);
  EXPECT_EQ(recorder.dropped(), 0u);
  // Every ticket landed: seqs are unique and dense.
  std::vector<FlightEvent> tail = recorder.SnapshotTail(kThreads * kPerThread);
  ASSERT_EQ(tail.size(), kThreads * kPerThread);
  std::set<uint64_t> seqs;
  for (const FlightEvent& e : tail) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), kThreads * kPerThread);
}

#if !defined(SEQHIDE_OBS_DISABLED)
TEST(MemTrackerTest, PoolAllocatorChargesThePool) {
  const MemPoolStats before = MemTracker::Stats(MemPool::kDpScratch);
  {
    std::vector<uint64_t, PoolAllocator<uint64_t, MemPool::kDpScratch>> v;
    v.resize(1000);
    const MemPoolStats during = MemTracker::Stats(MemPool::kDpScratch);
    EXPECT_GE(during.current_bytes, before.current_bytes + 8000);
    EXPECT_GE(during.peak_bytes, during.current_bytes);
    EXPECT_GT(during.allocs, before.allocs);
  }
  const MemPoolStats after = MemTracker::Stats(MemPool::kDpScratch);
  // Deallocation returns current to where it was; peak stays high.
  EXPECT_EQ(after.current_bytes, before.current_bytes);
  EXPECT_GE(after.peak_bytes, before.peak_bytes + 8000);
}

TEST(MemTrackerTest, PoolsAreIndependent) {
  const MemPoolStats tables_before = MemTracker::Stats(MemPool::kKernelTables);
  std::vector<uint64_t, PoolAllocator<uint64_t, MemPool::kDpScratch>> v(64);
  EXPECT_EQ(MemTracker::Stats(MemPool::kKernelTables).current_bytes,
            tables_before.current_bytes);
}
#endif  // !SEQHIDE_OBS_DISABLED

TEST(MemTrackerTest, RssIsObservable) {
  const MemorySnapshot snapshot = MemorySnapshot::Capture();
  EXPECT_GT(snapshot.current_rss_bytes, 0u);
  EXPECT_GT(snapshot.peak_rss_bytes, 0u);
  EXPECT_GE(snapshot.peak_rss_bytes, snapshot.current_rss_bytes / 2);
}

TEST(PrometheusTest, MetricNameSanitization) {
  EXPECT_EQ(PromMetricName("match.count.dp_rows"),
            "seqhide_match_count_dp_rows");
  EXPECT_EQ(PromMetricName("weird-name with spaces"),
            "seqhide_weird_name_with_spaces");
}

// Render a registry snapshot to exposition text, parse the text back,
// and cross-check every sample against the snapshot it came from.
TEST(PrometheusTest, ExpositionRoundTripsTheSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("sanitize.runs")->Add(3);
  registry.GetGauge("sanitize.victims")->Set(17);
  Histogram* hist = registry.GetHistogram("local.marks");
  hist->Record(0);
  hist->Record(1);
  hist->Record(5);
  hist->Record(100);
  const MetricsSnapshot snapshot = registry.Snapshot();

  const std::string text = WritePrometheusText(snapshot);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  // Parse: TYPE announcements and samples.
  std::map<std::string, std::string> types;
  std::map<std::string, double> samples;  // full sample line key -> value
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name, kind;
      fields >> name >> kind;
      types[name] = kind;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }

  EXPECT_EQ(types["seqhide_sanitize_runs_total"], "counter");
  EXPECT_EQ(samples["seqhide_sanitize_runs_total"], 3.0);
  EXPECT_EQ(types["seqhide_sanitize_victims"], "gauge");
  EXPECT_EQ(samples["seqhide_sanitize_victims"], 17.0);
  EXPECT_EQ(types["seqhide_local_marks"], "histogram");

  // Histogram: buckets are cumulative with inclusive upper bounds
  // (value 0 -> le="0", value 1 -> le="1", 5 -> le="7", 100 -> le="127")
  // and +Inf equals _count.
  EXPECT_EQ(samples["seqhide_local_marks_bucket{le=\"0\"}"], 1.0);
  EXPECT_EQ(samples["seqhide_local_marks_bucket{le=\"1\"}"], 2.0);
  EXPECT_EQ(samples["seqhide_local_marks_bucket{le=\"7\"}"], 3.0);
  EXPECT_EQ(samples["seqhide_local_marks_bucket{le=\"127\"}"], 4.0);
  EXPECT_EQ(samples["seqhide_local_marks_bucket{le=\"+Inf\"}"], 4.0);
  EXPECT_EQ(samples["seqhide_local_marks_count"], 4.0);
  EXPECT_EQ(samples["seqhide_local_marks_sum"], 106.0);
}

TEST(PrometheusTest, SpanAggregatesBecomeLabeledCounters) {
  MetricsRegistry registry;
  {
    Span outer("sanitize", &registry);
    Span inner("mark", &registry);
  }
  const std::string text = WritePrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("seqhide_span_count_total{path=\"sanitize\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("seqhide_span_count_total{path=\"sanitize/mark\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("seqhide_span_ns_total{path=\"sanitize\"}"),
            std::string::npos);
}

TEST(PrometheusTest, FileWriteIsAtomicAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(1);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string path = ::testing::TempDir() + "/telemetry_test.prom";

  ASSERT_TRUE(WritePrometheusFile(path, snapshot).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), WritePrometheusText(snapshot));
  // No leftover tmp file.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

// Reads a JSONL file into parsed records.
std::vector<JsonValue> ReadLedger(const std::string& path) {
  std::vector<JsonValue> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Result<JsonValue> parsed = JsonValue::Parse(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (parsed.ok()) records.push_back(std::move(*parsed));
  }
  return records;
}

TEST(RunLedgerTest, WritesParseableSchema) {
  const std::string path = ::testing::TempDir() + "/ledger_schema.jsonl";
  auto opened = RunLedger::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<RunLedger> ledger = std::move(*opened);

  ledger->AppendRunStart("sanitize", "/tmp/db.txt", 4);
  ledger->AppendEvent(EventKind::kStage, "count.done", 120, 31);
  ledger->AppendEvent(EventKind::kVictims, "selected", 30, 120);

  MetricsRegistry registry;
  registry.GetCounter("sanitize.runs")->Add(1);
  ledger->AppendRunEnd("ok", registry.Snapshot(), MemorySnapshot::Capture());

  EXPECT_EQ(ledger->records_written(), 4u);
  EXPECT_EQ(ledger->events_written(), 2u);
  EXPECT_FALSE(ledger->disabled());
  ledger.reset();

  std::vector<JsonValue> records = ReadLedger(path);
  ASSERT_EQ(records.size(), 4u);

  EXPECT_EQ(records[0].StringOr("type", ""), "run_start");
  EXPECT_EQ(records[0].StringOr("command", ""), "sanitize");
  EXPECT_EQ(records[0].NumberOr("threads", 0), 4.0);
  EXPECT_GT(records[0].NumberOr("ts_ms", 0), 0.0);

  EXPECT_EQ(records[1].StringOr("type", ""), "event");
  EXPECT_EQ(records[1].NumberOr("event_seq", 0), 1.0);
  EXPECT_EQ(records[1].StringOr("kind", ""), "stage");
  EXPECT_EQ(records[1].StringOr("label", ""), "count.done");
  EXPECT_EQ(records[1].NumberOr("a", 0), 120.0);
  EXPECT_EQ(records[1].NumberOr("b", 0), 31.0);
  EXPECT_EQ(records[2].NumberOr("event_seq", 0), 2.0);

  const JsonValue& end = records[3];
  EXPECT_EQ(end.StringOr("type", ""), "run_end");
  EXPECT_EQ(end.StringOr("status", ""), "ok");
  EXPECT_EQ(end.NumberOr("event_seq_total", 0), 2.0);
  const JsonValue* counters = end.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("sanitize.runs", 0), 1.0);
  const JsonValue* memory = end.Find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_GT(memory->NumberOr("current_rss_bytes", 0), 0.0);
  const JsonValue* flight = end.Find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_NE(flight->Find("tail"), nullptr);
}

TEST(RunLedgerTest, InstallMakesItTheProcessSink) {
  const std::string path = ::testing::TempDir() + "/ledger_install.jsonl";
  auto opened = RunLedger::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<RunLedger> ledger = std::move(*opened);

  EXPECT_EQ(RunLedger::Current(), nullptr);
  ledger->Install();
  EXPECT_EQ(RunLedger::Current(), ledger.get());
  Emit(EventKind::kStage, "installed.check", 1, 2);
  // kPool chatter must not reach the ledger.
  Emit(EventKind::kPool, "sample", 9, 9);
  ledger->Uninstall();
  EXPECT_EQ(RunLedger::Current(), nullptr);
  Emit(EventKind::kStage, "after.uninstall", 0, 0);

  EXPECT_EQ(ledger->events_written(), 1u);
  ledger.reset();
  std::vector<JsonValue> records = ReadLedger(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].StringOr("label", ""), "installed.check");
}

#ifndef SEQHIDE_FAULTS_DISABLED
TEST(RunLedgerTest, WriteFaultDisablesButNeverThrows) {
  FaultInjector& fi = FaultInjector::Default();
  fi.Reset();
  const std::string path = ::testing::TempDir() + "/ledger_fault.jsonl";
  auto opened = RunLedger::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<RunLedger> ledger = std::move(*opened);

  ASSERT_TRUE(fi.ArmSite("io.telemetry.ledger.write", 1).ok());
  ledger->AppendEvent(EventKind::kStage, "doomed", 0, 0);
  EXPECT_TRUE(ledger->disabled());
  EXPECT_EQ(ledger->records_written(), 0u);
  // Every later append is a silent no-op.
  ledger->AppendEvent(EventKind::kStage, "ignored", 0, 0);
  EXPECT_EQ(ledger->records_written(), 0u);
  fi.Reset();
}

TEST(RunLedgerTest, OpenFaultSurfacesAsCleanError) {
  FaultInjector& fi = FaultInjector::Default();
  fi.Reset();
  ASSERT_TRUE(fi.ArmSite("io.telemetry.ledger.open", 1).ok());
  auto opened =
      RunLedger::Open(::testing::TempDir() + "/ledger_openfault.jsonl");
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status();
  fi.Reset();
}
#endif  // !SEQHIDE_FAULTS_DISABLED

}  // namespace
}  // namespace telemetry
}  // namespace obs
}  // namespace seqhide
