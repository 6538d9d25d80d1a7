#include "src/obs/telemetry/mem_tracker.h"

#include <array>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace seqhide {
namespace obs {
namespace telemetry {
namespace {

// Parses "VmRSS:    1234 kB" style lines out of /proc/self/status.
// Returns 0 when the file or the key is absent (non-Linux).
uint64_t ReadProcStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      unsigned long long value = 0;
      if (std::sscanf(line + key_len + 1, "%llu", &value) == 1) {
        kb = static_cast<uint64_t>(value);
      }
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

const char* MemPoolName(MemPool pool) {
  switch (pool) {
    case MemPool::kDpScratch: return "dp_scratch";
    case MemPool::kKernelTables: return "kernel_tables";
  }
  return "unknown";
}

MemTracker::PoolCounters& MemTracker::Counters(MemPool pool) {
  static std::array<PoolCounters, kNumMemPools> pools;
  return pools[static_cast<size_t>(pool)];
}

void MemTracker::Add(MemPool pool, size_t bytes) {
  PoolCounters& c = Counters(pool);
  const uint64_t now =
      c.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  c.allocs.fetch_add(1, std::memory_order_relaxed);
  uint64_t peak = c.peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !c.peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void MemTracker::Sub(MemPool pool, size_t bytes) {
  Counters(pool).current.fetch_sub(bytes, std::memory_order_relaxed);
}

MemPoolStats MemTracker::Stats(MemPool pool) {
  PoolCounters& c = Counters(pool);
  MemPoolStats stats;
  stats.current_bytes = c.current.load(std::memory_order_relaxed);
  stats.peak_bytes = c.peak.load(std::memory_order_relaxed);
  stats.allocs = c.allocs.load(std::memory_order_relaxed);
  return stats;
}

void MemTracker::ResetPeaks() {
  for (size_t i = 0; i < kNumMemPools; ++i) {
    PoolCounters& c = Counters(static_cast<MemPool>(i));
    c.peak.store(c.current.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    c.allocs.store(0, std::memory_order_relaxed);
  }
}

uint64_t CurrentRssBytes() {
  const uint64_t kb = ReadProcStatusKb("VmRSS");
  return kb * 1024;
}

uint64_t PeakRssBytes() {
  uint64_t kb = ReadProcStatusKb("VmHWM");
  if (kb != 0) return kb * 1024;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
    // ru_maxrss is kilobytes on Linux, bytes on macOS.
#if defined(__APPLE__)
    return static_cast<uint64_t>(usage.ru_maxrss);
#else
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
#endif
  }
#endif
  return 0;
}

MemorySnapshot MemorySnapshot::Capture() {
  MemorySnapshot snap;
  snap.current_rss_bytes = CurrentRssBytes();
  snap.peak_rss_bytes = PeakRssBytes();
  for (size_t i = 0; i < kNumMemPools; ++i) {
    snap.pools[i] = MemTracker::Stats(static_cast<MemPool>(i));
  }
  return snap;
}

}  // namespace telemetry
}  // namespace obs
}  // namespace seqhide
