#include "src/common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <system_error>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"

namespace seqhide {
namespace {

// Chunks per participating thread: > 1 so a slow chunk (e.g. one victim
// that needs many marking rounds) does not serialize the region, small
// enough that per-chunk setup (a scratch buffer) stays amortized.
constexpr size_t kChunksPerThread = 8;

// CPUs this thread may run on: its affinity mask (taskset, cpusets), or
// every online CPU when the mask cannot be read.
size_t HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int allowed = CPU_COUNT(&set);
    if (allowed > 0) return static_cast<size_t>(allowed);
  }
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// The pool whose region body this thread is running, or null.
thread_local const ThreadPool* t_region_pool = nullptr;

// Marks the calling thread as inside a region of `pool` for its lifetime.
class RegionScope {
 public:
  explicit RegionScope(const ThreadPool* pool) : saved_(t_region_pool) {
    t_region_pool = pool;
  }
  ~RegionScope() { t_region_pool = saved_; }

  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  const ThreadPool* saved_;
};

// Task-context hooks (constant-initialized: safe to set from the obs
// layer's static registrar before main).
std::atomic<ThreadPool::TaskContextCaptureFn> g_ctx_capture{nullptr};
std::atomic<ThreadPool::TaskContextEnterFn> g_ctx_enter{nullptr};
std::atomic<ThreadPool::TaskContextExitFn> g_ctx_exit{nullptr};

}  // namespace

size_t ResolveThreadCount(size_t requested) {
  return requested == 0 ? HardwareThreads() : requested;
}

ThreadPool::ThreadPool(size_t max_workers)
    : max_workers_(max_workers), worker_chunks_(max_workers) {}

void ThreadPool::SetTaskContextHooks(TaskContextCaptureFn capture,
                                     TaskContextEnterFn enter,
                                     TaskContextExitFn exit) {
  g_ctx_capture.store(capture, std::memory_order_release);
  g_ctx_enter.store(enter, std::memory_order_release);
  g_ctx_exit.store(exit, std::memory_order_release);
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats s;
  s.regions = regions_.load(std::memory_order_relaxed);
  s.chunks_executed = chunks_executed_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.wakes = wakes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.workers_spawned = workers_.size();
  s.queue_peak = queue_peak_;
  s.queue_depth = tickets_.size();
  s.worker_chunks.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    s.worker_chunks.push_back(worker_chunks_[i].load(std::memory_order_relaxed));
  }
  return s;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

size_t ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::EnsureWorkersLocked(size_t target) {
  target = std::min(target, max_workers_);
  while (workers_.size() < target) {
    // Thread creation can fail under resource pressure (EAGAIN). The pool
    // degrades instead of dying: every region is drained by the calling
    // thread plus whatever workers exist, so correctness never depends on
    // a spawn succeeding.
    if (SEQHIDE_FAULT_HIT("threadpool.spawn")) {
      SEQHIDE_LOG(Warn) << "injected fault: threadpool.spawn; continuing with "
                        << workers_.size() << " workers";
      return;
    }
    try {
      const size_t index = workers_.size();
      workers_.emplace_back([this, index] { WorkerLoop(index); });
    } catch (const std::system_error& e) {
      SEQHIDE_LOG(Warn) << "worker spawn failed (" << e.what()
                        << "); continuing with " << workers_.size()
                        << " workers";
      return;
    }
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::shared_ptr<Region> region;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!shutdown_ && tickets_.empty()) {
        parks_.fetch_add(1, std::memory_order_relaxed);
        work_cv_.wait(lock, [this] { return shutdown_ || !tickets_.empty(); });
        if (!tickets_.empty()) wakes_.fetch_add(1, std::memory_order_relaxed);
      }
      if (tickets_.empty()) return;  // shutdown with no work left
      region = std::move(tickets_.front());
      tickets_.pop_front();
    }
    // Enter the region's ambient task context (the submitter's span
    // path) so spans opened by the body nest under their stage. The
    // submitting thread never enters: its span stack is already live.
    void* token = nullptr;
    TaskContextEnterFn enter = g_ctx_enter.load(std::memory_order_acquire);
    TaskContextExitFn exit = g_ctx_exit.load(std::memory_order_acquire);
    const bool entered = region->context != nullptr && enter != nullptr;
    if (entered) token = enter(region->context.get());
    const size_t ran = RunChunks(region.get());
    if (entered && exit != nullptr) exit(token);
    chunks_executed_.fetch_add(ran, std::memory_order_relaxed);
    worker_chunks_[worker_index].fetch_add(ran, std::memory_order_relaxed);
  }
}

size_t ThreadPool::RunChunks(Region* region) const {
  RegionScope scope(this);
  const size_t total = region->chunks.size();
  size_t ran = 0;
  for (;;) {
    const size_t c = region->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= total) return ran;
    const auto [begin, end] = region->chunks[c];
    (*region->body)(begin, end);
    ++ran;
    // seq_cst so the submitting thread's completion check observes every
    // chunk's writes; notify under the lock to pair with the wait.
    if (region->completed.fetch_add(1) + 1 == total) {
      std::lock_guard<std::mutex> lock(region->done_mu);
      region->done_cv.notify_all();
    }
  }
}

void ThreadPool::CheckNotNested() const {
  SEQHIDE_CHECK(t_region_pool != this)
      << "a ThreadPool region body called into the same pool; nested "
         "regions are not supported";
}

void ThreadPool::ParallelFor(size_t n, size_t max_threads,
                             const std::function<void(size_t, size_t)>& body) {
  CheckNotNested();
  if (n == 0) return;
  regions_.fetch_add(1, std::memory_order_relaxed);
  size_t threads = std::min(ResolveThreadCount(max_threads), n);
  threads = std::min(threads, max_workers_ + 1);
  if (threads <= 1) {
    RegionScope scope(this);
    body(0, n);
    chunks_executed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  auto region = std::make_shared<Region>();
  region->body = &body;
  if (TaskContextCaptureFn capture =
          g_ctx_capture.load(std::memory_order_acquire)) {
    region->context = capture();
  }
  // Chunk boundaries depend only on (n, threads): an even split with the
  // remainder spread over the leading chunks.
  const size_t chunk_count = std::min(n, threads * kChunksPerThread);
  region->chunks.reserve(chunk_count);
  const size_t base = n / chunk_count;
  const size_t extra = n % chunk_count;
  size_t begin = 0;
  for (size_t c = 0; c < chunk_count; ++c) {
    const size_t len = base + (c < extra ? 1 : 0);
    region->chunks.emplace_back(begin, begin + len);
    begin += len;
  }
  SEQHIDE_DCHECK(begin == n);

  {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureWorkersLocked(threads - 1);
    // One ticket per helper; a helper that wakes after the region drained
    // claims zero chunks and goes back to sleep.
    for (size_t w = 0; w + 1 < threads; ++w) tickets_.push_back(region);
    queue_peak_ = std::max<uint64_t>(queue_peak_, tickets_.size());
  }
  work_cv_.notify_all();

  chunks_executed_.fetch_add(RunChunks(region.get()),
                             std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(region->done_mu);
  region->done_cv.wait(lock, [&] {
    return region->completed.load() == region->chunks.size();
  });
}

uint64_t ThreadPool::ParallelReduceSum(
    size_t n, size_t max_threads,
    const std::function<uint64_t(size_t, size_t)>& map) {
  CheckNotNested();
  if (n == 0) return 0;
  // Per-chunk partials keyed by chunk *start* keep the reduction order
  // independent of which thread ran which chunk.
  std::vector<std::pair<size_t, uint64_t>> partials;
  std::mutex partials_mu;
  ParallelFor(n, max_threads, [&](size_t begin, size_t end) {
    uint64_t partial = map(begin, end);
    std::lock_guard<std::mutex> lock(partials_mu);
    partials.emplace_back(begin, partial);
  });
  std::sort(partials.begin(), partials.end());
  uint64_t total = 0;
  for (const auto& [begin, partial] : partials) total += partial;
  return total;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(kMaxThreads - 1);
  return pool;
}

}  // namespace seqhide
