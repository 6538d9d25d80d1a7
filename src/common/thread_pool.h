// Deterministic chunked parallelism on a reusable worker pool.
//
// The pool exists because the pipeline calls into parallel regions many
// times per Sanitize() (count stage, mark stage, verify stage) and per
// benchmark iteration: spawning std::threads at every call site costs
// more than the work of a small region. Workers are created lazily, kept
// parked on a condition variable between regions, and reused for the
// lifetime of the process.
//
// Determinism contract: ParallelFor partitions [0, n) into chunks whose
// boundaries are a pure function of (n, requested parallelism) — never of
// scheduling. Chunks may execute in any order on any worker, so a body is
// deterministic iff each index writes only its own output slot (or the
// caller reduces per-chunk results in chunk order, which
// ParallelReduceSum does). Under that rule the result is bit-identical
// for every thread count, including 1.
//
// Reentrancy: a ParallelFor body must not itself call into the same pool
// (the calling thread participates in the region, so nested use cannot
// deadlock, but nested regions would fight over the chunk queue and are
// a design smell). ParallelFor and ParallelReduceSum CHECK-fail when
// called from inside a region body of the same pool, the inline serial
// body included. Other pools may be entered. No body may throw.

#ifndef SEQHIDE_COMMON_THREAD_POOL_H_
#define SEQHIDE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace seqhide {

// Largest parallelism any caller may request; SanitizeOptions::Validate
// rejects values above this (they are always a configuration bug, not a
// real machine).
inline constexpr size_t kMaxThreads = 256;

// `requested` threads with 0 meaning "auto": every CPU the calling thread
// may run on (its affinity mask, so taskset and cpusets are honoured).
size_t ResolveThreadCount(size_t requested);

// Point-in-time view of a pool's activity counters (ThreadPool::Stats).
// Scheduling-dependent (parks, wakes, which worker ran how many chunks),
// so these feed the observability layer's `thread_pool` report block and
// never the deterministic metrics registry.
struct ThreadPoolStats {
  uint64_t regions = 0;          // ParallelFor invocations with n > 0
  uint64_t chunks_executed = 0;  // chunks run, all threads incl. submitters
  uint64_t parks = 0;            // times a worker went to sleep empty-handed
  uint64_t wakes = 0;            // times a worker woke to available work
  uint64_t workers_spawned = 0;  // workers alive (never reaped)
  uint64_t queue_peak = 0;       // max pending tickets ever observed
  uint64_t queue_depth = 0;      // pending tickets right now
  // Chunks executed per worker, indexed by spawn order. Submitting
  // threads' chunks appear only in chunks_executed.
  std::vector<uint64_t> worker_chunks;
};

class ThreadPool {
 public:
  // A pool that may grow up to `max_workers` parked worker threads
  // (workers are spawned on demand by ParallelFor, never eagerly).
  explicit ThreadPool(size_t max_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Workers currently alive (spawned so far).
  size_t num_workers() const;

  // Runs body(begin, end) over disjoint chunks covering [0, n), using at
  // most `max_threads` threads (the calling thread counts as one and
  // always participates; 0 = auto). Blocks until every chunk completed.
  // Serial (no locking at all) when max_threads <= 1 or n <= 1.
  void ParallelFor(size_t n, size_t max_threads,
                   const std::function<void(size_t, size_t)>& body);

  // Like ParallelFor, but `map` returns a partial sum per chunk and the
  // partials are added serially in ascending chunk order — the stable
  // reduction to use for anything order-sensitive. Plain uint64 addition
  // (callers counting rows cannot overflow; saturating sums should
  // reduce per-slot instead).
  uint64_t ParallelReduceSum(size_t n, size_t max_threads,
                             const std::function<uint64_t(size_t, size_t)>& map);

  // Process-wide pool shared by the whole pipeline. Created on first use;
  // workers persist (parked) across Sanitize() and bench iterations.
  static ThreadPool& Shared();

  // Activity counters for the observability layer (--stats-json's
  // thread_pool block, the telemetry sampler). Cheap; any thread.
  ThreadPoolStats Stats() const;

  // Task-context propagation hooks: let the observability layer carry
  // ambient per-task context (the submitting thread's trace-span path)
  // into workers without common/ depending on obs/. `capture` runs on
  // the submitting thread when a region is created and may return null
  // (no context); `enter` runs on a worker before it drains a region's
  // chunks and returns a token; `exit` runs afterwards with that token.
  // Process-wide; set all three or none (src/obs/trace.cc installs them).
  using TaskContextCaptureFn = std::shared_ptr<void> (*)();
  using TaskContextEnterFn = void* (*)(void* context);
  using TaskContextExitFn = void (*)(void* token);
  static void SetTaskContextHooks(TaskContextCaptureFn capture,
                                  TaskContextEnterFn enter,
                                  TaskContextExitFn exit);

 private:
  // One parallel region: precomputed chunk bounds, an atomic cursor for
  // work stealing, and a completion latch for the submitting thread.
  struct Region {
    const std::function<void(size_t, size_t)>* body = nullptr;
    std::vector<std::pair<size_t, size_t>> chunks;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    // Ambient task context captured on the submitting thread (may be
    // null); workers enter/exit it around their chunk runs.
    std::shared_ptr<void> context;
  };

  void WorkerLoop(size_t worker_index);
  // CHECK-fails when the calling thread is inside a region of this pool.
  void CheckNotNested() const;
  // Claims and runs chunks until the region is drained, marking the
  // calling thread as inside a region of this pool; returns how many this
  // thread executed.
  size_t RunChunks(Region* region) const;
  // Spawns workers (under mu_) until `target` exist or the cap is hit.
  void EnsureWorkersLocked(size_t target);

  const size_t max_workers_;

  // Activity counters (ThreadPoolStats). Relaxed: monotone telemetry.
  std::atomic<uint64_t> regions_{0};
  std::atomic<uint64_t> chunks_executed_{0};
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> wakes_{0};
  // Per-worker chunk counters, indexed by spawn order; sized to the cap
  // up front so workers never resize concurrently.
  std::vector<std::atomic<uint64_t>> worker_chunks_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool shutdown_ = false;
  uint64_t queue_peak_ = 0;  // under mu_
  // One ticket per helper thread wanted for a region; a worker pops a
  // ticket, drains the region's chunks, and goes back to sleep.
  std::deque<std::shared_ptr<Region>> tickets_;
  std::vector<std::thread> workers_;
};

}  // namespace seqhide

#endif  // SEQHIDE_COMMON_THREAD_POOL_H_
