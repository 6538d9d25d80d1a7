// Admission control for seqhide_server: a bounded request queue with
// explicit, deterministic shedding.
//
// Two ceilings guard the server (both configurable):
//   * queue depth  — requests admitted but not yet dispatched;
//   * in-flight DP-table bytes — the estimated counting-table cost of
//     every admitted-but-unfinished request, so a handful of huge
//     requests cannot commit the server to unbounded memory even when
//     the queue is short.
// Crossing either ceiling sheds the request with an explicit
// resource_exhausted response carrying a retry-after hint — never a
// silent drop. Once draining, every new request is shed with
// "unavailable" (the server is going away; retry elsewhere/later).
//
// The controller only does the bookkeeping; the actual queue of work
// items lives in the server, which pushes an item iff Offer() admitted
// it. Kept separate so the shed arithmetic is unit-testable and bench-
// able without sockets (bench_server's shed-rate section drives it
// directly). Fault site serve.queue.full sheds one request even when
// there is room, proving the shed path end to end.

#ifndef SEQHIDE_SERVE_ADMISSION_H_
#define SEQHIDE_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

namespace seqhide {
namespace serve {

struct AdmissionLimits {
  // Maximum admitted-but-not-dispatched requests.
  size_t queue_limit = 64;
  // Ceiling on the summed table-byte estimates of admitted-but-unfinished
  // requests; 0 = unlimited.
  size_t max_inflight_table_bytes = 0;
};

struct AdmissionDecision {
  bool admitted = false;
  // Wire status when refused: "resource_exhausted" or "unavailable".
  std::string wire_status;
  std::string reason;
  uint64_t retry_after_ms = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionLimits limits) : limits_(limits) {}
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Decides one request of estimated DP-table cost `est_bytes`. On
  // admission the request counts as queued (and its bytes as in-flight)
  // until OnDispatched/OnFinished.
  AdmissionDecision Offer(size_t est_bytes);

  // The request left the queue for a worker.
  void OnDispatched();
  // The request finished (response written or dropped on disconnect);
  // `est_bytes` must be the value passed to Offer.
  void OnFinished(size_t est_bytes);

  // From now on every Offer is refused with "unavailable".
  void BeginDrain();
  bool draining() const;

  // Blocks until no request is queued or running, or `timeout_ms`
  // elapsed; true iff idle. 0 = wait forever.
  bool WaitIdle(uint64_t timeout_ms);

  size_t queued() const;
  size_t running() const;
  size_t inflight_bytes() const;
  uint64_t sheds() const;

 private:
  // Backpressure hint: grows linearly with queue depth so colliding
  // clients spread out. Deterministic — same depth, same hint.
  uint64_t RetryAfterLocked() const;

  const AdmissionLimits limits_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  size_t queued_ = 0;
  size_t running_ = 0;
  size_t inflight_bytes_ = 0;
  uint64_t sheds_ = 0;
  bool draining_ = false;
};

}  // namespace serve
}  // namespace seqhide

#endif  // SEQHIDE_SERVE_ADMISSION_H_
