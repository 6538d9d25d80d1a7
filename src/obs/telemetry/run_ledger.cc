#include "src/obs/telemetry/run_ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "src/common/durable_file.h"
#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/obs/stats_json.h"
#include "src/obs/telemetry/telemetry.h"

namespace seqhide {
namespace obs {
namespace telemetry {
namespace {

std::atomic<RunLedger*> g_current_ledger{nullptr};

// Set while a thread is inside an append. Two jobs: the fault-fire
// listener must not recurse into the ledger whose own append is the
// thing that faulted (mu_ is not recursive), and the signal hook must
// not try to append when it interrupted this thread mid-append.
thread_local bool t_in_append = false;

struct ScopedAppendFlag {
  ScopedAppendFlag() { t_in_append = true; }
  ~ScopedAppendFlag() { t_in_append = false; }
};

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// One handler flush only, even if SIGINT and SIGTERM both arrive.
std::atomic<bool> g_signal_flushed{false};

void OnTerminateSignal(int sig) {
  if (!g_signal_flushed.exchange(true)) {
    if (RunLedger* ledger = g_current_ledger.load(std::memory_order_acquire)) {
      ledger->AppendSignal(sig);
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

Result<std::unique_ptr<RunLedger>> RunLedger::Open(const std::string& path,
                                                   bool append) {
  if (SEQHIDE_FAULT_HIT("io.telemetry.ledger.open")) {
    return Status::IOError("injected fault: io.telemetry.ledger.open (" + path +
                           ")");
  }
  const int mode_flag = append ? O_APPEND : O_TRUNC;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | mode_flag | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open ledger: " + path + ": " +
                           std::strerror(errno));
  }
  FsyncParentDirectory(path);
  return std::unique_ptr<RunLedger>(new RunLedger(path, fd));
}

RunLedger::RunLedger(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

RunLedger::~RunLedger() {
  Uninstall();
  if (fd_ >= 0) ::close(fd_);
}

void RunLedger::Install() {
  g_current_ledger.store(this, std::memory_order_release);
}

void RunLedger::Uninstall() {
  RunLedger* expected = this;
  g_current_ledger.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_acq_rel);
}

RunLedger* RunLedger::Current() {
  return g_current_ledger.load(std::memory_order_acquire);
}

uint64_t RunLedger::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

uint64_t RunLedger::events_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void RunLedger::DisableLocked(const std::string& reason) {
  if (disabled_.exchange(true)) return;
  SEQHIDE_LOG(Warn) << "ledger disabled (" << path_ << "): " << reason
                    << "; the run continues without it";
}

bool RunLedger::WriteLineLocked(std::string line) {
  if (disabled_.load(std::memory_order_relaxed)) return false;
  line.push_back('\n');
  if (SEQHIDE_FAULT_HIT("io.telemetry.ledger.write")) {
    DisableLocked("injected fault: io.telemetry.ledger.write");
    return false;
  }
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      DisableLocked(std::string("write failed: ") + std::strerror(errno));
      return false;
    }
    off += static_cast<size_t>(n);
  }
  if (SEQHIDE_FAULT_HIT("io.telemetry.ledger.sync")) {
    DisableLocked("injected fault: io.telemetry.ledger.sync");
    return false;
  }
  if (::fsync(fd_) != 0) {
    DisableLocked(std::string("fsync failed: ") + std::strerror(errno));
    return false;
  }
  ++records_;
  return true;
}

void RunLedger::AppendRunStart(std::string_view command,
                               std::string_view db_path, size_t threads) {
  if (disabled() || t_in_append) return;
  ScopedAppendFlag in_append;
  JsonWriter w;
  w.BeginObject();
  w.KeyString("type", "run_start");
  w.KeyUint("ts_ms", NowMs());
  w.KeyUint("ledger_version", 1);
  w.KeyString("command", command);
  w.KeyString("db", db_path);
  w.KeyUint("threads", threads);
  w.KeyInt("pid", static_cast<int64_t>(::getpid()));
  w.EndObject();
  std::lock_guard<std::mutex> lock(mu_);
  WriteLineLocked(w.str());
}

void RunLedger::AppendEvent(EventKind kind, std::string_view label, uint64_t a,
                            uint64_t b) {
  if (disabled() || t_in_append) return;
  ScopedAppendFlag in_append;
  std::lock_guard<std::mutex> lock(mu_);
  if (disabled_.load(std::memory_order_relaxed)) return;
  const uint64_t event_seq = events_ + 1;
  JsonWriter w;
  w.BeginObject();
  w.KeyString("type", "event");
  w.KeyUint("event_seq", event_seq);
  w.KeyUint("ts_ms", NowMs());
  w.KeyString("kind", EventKindName(kind));
  w.KeyString("label", label);
  w.KeyUint("a", a);
  w.KeyUint("b", b);
  w.EndObject();
  if (WriteLineLocked(w.str())) events_ = event_seq;
}

void RunLedger::AppendSample(const MemorySnapshot& mem,
                             uint64_t pool_queue_depth,
                             uint64_t pool_chunks_executed) {
  if (disabled() || t_in_append) return;
  ScopedAppendFlag in_append;
  const FlightRecorder& flight = FlightRecorder::Default();
  JsonWriter w;
  w.BeginObject();
  w.KeyString("type", "sample");
  w.KeyUint("ts_ms", NowMs());
  w.Key("memory");
  w.BeginObject();
  WriteMemoryMembers(mem, &w);
  w.EndObject();
  w.Key("pool");
  w.BeginObject();
  w.KeyUint("queue_depth", pool_queue_depth);
  w.KeyUint("chunks_executed", pool_chunks_executed);
  w.EndObject();
  w.Key("flight");
  w.BeginObject();
  w.KeyUint("total", flight.total());
  w.KeyUint("dropped", flight.dropped());
  w.EndObject();
  w.EndObject();
  std::lock_guard<std::mutex> lock(mu_);
  WriteLineLocked(w.str());
}

void RunLedger::AppendServerRequest(const ServerRequestRecord& record) {
  if (disabled() || t_in_append) return;
  ScopedAppendFlag in_append;
  JsonWriter w;
  w.BeginObject();
  w.KeyString("type", "request");
  w.KeyUint("ts_ms", NowMs());
  w.KeyUint("request_id", record.request_id);
  w.KeyString("method", record.method);
  w.KeyString("status", record.status);
  w.KeyUint("queue_us", record.queue_us);
  w.KeyUint("work_us", record.work_us);
  w.KeyBool("shed", record.shed);
  w.KeyBool("recovered", record.recovered);
  w.EndObject();
  std::lock_guard<std::mutex> lock(mu_);
  WriteLineLocked(w.str());
}

void RunLedger::AppendRunEnd(std::string_view status,
                             const MetricsSnapshot& metrics,
                             const MemorySnapshot& mem) {
  if (disabled() || t_in_append) return;
  ScopedAppendFlag in_append;
  const FlightRecorder& flight = FlightRecorder::Default();
  const std::vector<FlightEvent> tail = flight.SnapshotTail(kTailEvents);
  JsonWriter w;
  w.BeginObject();
  w.KeyString("type", "run_end");
  w.KeyUint("ts_ms", NowMs());
  w.KeyString("status", status);
  w.Key("memory");
  w.BeginObject();
  WriteMemoryMembers(mem, &w);
  w.EndObject();
  w.Key("flight");
  w.BeginObject();
  w.KeyUint("total", flight.total());
  w.KeyUint("dropped", flight.dropped());
  w.Key("tail");
  w.BeginArray();
  for (const FlightEvent& e : tail) {
    w.BeginObject();
    WriteFlightEventMembers(e, &w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.KeyUint("event_seq_total", events_);
  }
  WriteSnapshotMembers(metrics, &w);
  w.EndObject();
  std::lock_guard<std::mutex> lock(mu_);
  WriteLineLocked(w.str());
}

void RunLedger::AppendSignal(int signum) {
  if (disabled() || t_in_append) return;
  ScopedAppendFlag in_append;
  const FlightRecorder& flight = FlightRecorder::Default();
  const std::vector<FlightEvent> tail = flight.SnapshotTail(kTailEvents);
  JsonWriter w;
  w.BeginObject();
  w.KeyString("type", "signal");
  w.KeyUint("ts_ms", NowMs());
  w.KeyInt("signal", signum);
  w.Key("flight");
  w.BeginObject();
  w.KeyUint("total", flight.total());
  w.KeyUint("dropped", flight.dropped());
  w.Key("tail");
  w.BeginArray();
  for (const FlightEvent& e : tail) {
    w.BeginObject();
    WriteFlightEventMembers(e, &w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  std::lock_guard<std::mutex> lock(mu_);
  WriteLineLocked(w.str());
}

void RunLedger::InstallSignalFlushHook() {
  static bool installed = [] {
    std::signal(SIGINT, &OnTerminateSignal);
    std::signal(SIGTERM, &OnTerminateSignal);
    return true;
  }();
  (void)installed;
}

}  // namespace telemetry
}  // namespace obs
}  // namespace seqhide
