#include "src/common/fault_injection.h"

#include "src/common/string_util.h"

namespace seqhide {
namespace {

// The full fault-site catalog. Keep in sync with the SEQHIDE_FAULT_HIT
// call sites and the table in docs/robustness.md; the fault-sweep test
// arms every entry and asserts a clean (non-Internal) Status or a
// successful recovery.
constexpr std::string_view kCatalog[] = {
    // seq/io.cc — database readers and writers.
    "io.db.open",
    "io.db.read",
    "io.db.write.open",
    "io.db.write",
    // seq/binary_format.cc + seq/mmap_file.cc — the seqhidb binary
    // format. Write-path failures leave the destination untouched (tmp +
    // rename); open/map failures surface as IOError to the caller.
    "io.bindb.write.open",
    "io.bindb.write",
    "io.bindb.write.rename",
    "io.bindb.open",
    "io.bindb.map",
    // hide/sanitizer.cc — stage boundaries (fire = stop like a
    // cancellation at that boundary; the pipeline degrades gracefully)
    // and the verify stage (fire = verification reports Cancelled).
    "sanitize.after_count",
    "sanitize.after_select",
    "sanitize.mark_round",
    "sanitize.verify",
    // hide/checkpoint.cc — write path (failures are survivable: the run
    // continues, the previous checkpoint stays intact) and load path
    // (failures surface as IOError/Corruption to the resuming caller).
    "checkpoint.write.open",
    "checkpoint.write.payload",
    "checkpoint.write.rename",
    "checkpoint.load.open",
    "checkpoint.load.payload",
    // common/thread_pool.cc — worker spawn failure; the region still
    // completes on the calling thread and the already-spawned workers.
    "threadpool.spawn",
    // obs/telemetry — run-ledger appends and Prometheus file rewrites.
    // Every failure is survivable by design: the ledger disables itself
    // and later appends become no-ops, the prom writer's error is logged
    // by its caller, and the sanitization run itself never fails.
    "io.telemetry.ledger.open",
    "io.telemetry.ledger.write",
    "io.telemetry.ledger.sync",
    "io.telemetry.prom.write",
    "io.telemetry.prom.rename",
    // serve/net.cc + serve/server.cc + serve/match_cache.cc +
    // serve/admission.cc — the serving front end. Network faults surface
    // as IOError on one connection (the server drops that connection and
    // keeps serving; clients reconnect and retry); serve.queue.full sheds
    // one request with ResourceExhausted + retry-after; serve.cache.corrupt
    // makes one cache entry fail its checksum, which is treated as a miss
    // (entry evicted, result recomputed).
    "net.accept",
    "net.read.short",
    "net.write.short",
    "net.disconnect",
    "serve.queue.full",
    "serve.cache.corrupt",
};

// Fire listener (constant-initialized: safe from static registrars).
std::atomic<FaultInjector::FireListener> g_fire_listener{nullptr};

bool InCatalog(std::string_view site) {
  for (std::string_view s : kCatalog) {
    if (s == site) return true;
  }
  return false;
}

}  // namespace

FaultInjector& FaultInjector::Default() {
  static FaultInjector injector;
  return injector;
}

const std::vector<std::string_view>& FaultInjector::Catalog() {
  static const std::vector<std::string_view> catalog(std::begin(kCatalog),
                                                     std::end(kCatalog));
  return catalog;
}

Status FaultInjector::Arm(std::string_view spec) {
  for (const std::string& entry : Split(spec, ',', /*skip_empty=*/true)) {
    const size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("fault spec needs site:k, got '" + entry +
                                     "'");
    }
    auto hit = ParseInt64(std::string_view(entry).substr(colon + 1));
    if (!hit.has_value() || *hit < 1) {
      return Status::InvalidArgument("fault hit count must be >= 1 in '" +
                                     entry + "'");
    }
    SEQHIDE_RETURN_IF_ERROR(
        ArmSite(std::string_view(entry).substr(0, colon),
                static_cast<uint64_t>(*hit)));
  }
  return Status::OK();
}

Status FaultInjector::ArmSite(std::string_view site, uint64_t hit_number) {
  if (hit_number == 0) {
    return Status::InvalidArgument("fault hit count must be >= 1");
  }
  if (!InCatalog(site)) {
    return Status::InvalidArgument("unknown fault site '" + std::string(site) +
                                   "' (see FaultInjector::Catalog())");
  }
  std::lock_guard<std::mutex> lock(mu_);
  ArmedSite& armed = armed_[std::string(site)];
  armed.trigger_hit = hit_number;
  armed.hits = 0;
  armed.fired = false;
  armed_count_.store(armed_.size(), std::memory_order_release);
  return Status::OK();
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  armed_count_.store(0, std::memory_order_release);
  faults_fired_.store(0, std::memory_order_relaxed);
}

void FaultInjector::SetFireListener(FireListener listener) {
  g_fire_listener.store(listener, std::memory_order_release);
}

bool FaultInjector::ShouldFail(std::string_view site) {
  if (armed_count_.load(std::memory_order_acquire) == 0) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = armed_.find(site);
    if (it == armed_.end()) return false;
    ArmedSite& armed = it->second;
    if (armed.fired) return false;
    if (++armed.hits < armed.trigger_hit) return false;
    armed.fired = true;
    faults_fired_.fetch_add(1, std::memory_order_relaxed);
  }
  // Fire decided; notify outside the lock so the listener can run code
  // that contains fault sites of its own without deadlocking.
  if (FireListener listener = g_fire_listener.load(std::memory_order_acquire)) {
    listener(site);
  }
  return true;
}

uint64_t FaultInjector::FaultsFired() const {
  return faults_fired_.load(std::memory_order_relaxed);
}

size_t FaultInjector::ArmedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_.size();
}

}  // namespace seqhide
