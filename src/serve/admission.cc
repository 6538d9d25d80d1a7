#include "src/serve/admission.h"

#include <algorithm>
#include <chrono>

#include "src/common/fault_injection.h"
#include "src/obs/macros.h"
#include "src/serve/protocol.h"

namespace seqhide {
namespace serve {

uint64_t AdmissionController::RetryAfterLocked() const {
  const uint64_t depth = static_cast<uint64_t>(queued_ + running_);
  return std::min<uint64_t>(25 * (1 + depth), 2000);
}

AdmissionDecision AdmissionController::Offer(size_t est_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  AdmissionDecision d;
  if (draining_) {
    ++sheds_;
    SEQHIDE_COUNTER_INC("serve.admission.shed_draining");
    d.wire_status = std::string(kStatusUnavailable);
    d.reason = "server is draining";
    d.retry_after_ms = 500;
    return d;
  }
  if (SEQHIDE_FAULT_HIT("serve.queue.full")) {
    ++sheds_;
    SEQHIDE_COUNTER_INC("serve.admission.shed_queue");
    d.wire_status = std::string(WireStatus(StatusCode::kResourceExhausted));
    d.reason = "injected fault: serve.queue.full";
    d.retry_after_ms = RetryAfterLocked();
    return d;
  }
  if (queued_ >= limits_.queue_limit) {
    ++sheds_;
    SEQHIDE_COUNTER_INC("serve.admission.shed_queue");
    d.wire_status = std::string(WireStatus(StatusCode::kResourceExhausted));
    d.reason = "queue full (" + std::to_string(queued_) + "/" +
               std::to_string(limits_.queue_limit) + ")";
    d.retry_after_ms = RetryAfterLocked();
    return d;
  }
  if (limits_.max_inflight_table_bytes > 0 &&
      inflight_bytes_ + est_bytes > limits_.max_inflight_table_bytes) {
    ++sheds_;
    SEQHIDE_COUNTER_INC("serve.admission.shed_bytes");
    d.wire_status = std::string(WireStatus(StatusCode::kResourceExhausted));
    d.reason = "in-flight table bytes " +
               std::to_string(inflight_bytes_ + est_bytes) + " would exceed " +
               std::to_string(limits_.max_inflight_table_bytes);
    d.retry_after_ms = RetryAfterLocked();
    return d;
  }
  ++queued_;
  inflight_bytes_ += est_bytes;
  SEQHIDE_COUNTER_INC("serve.admission.admitted");
  SEQHIDE_GAUGE_SET("serve.queue_depth", static_cast<int64_t>(queued_));
  SEQHIDE_GAUGE_SET("serve.inflight_table_bytes",
                    static_cast<int64_t>(inflight_bytes_));
  d.admitted = true;
  return d;
}

void AdmissionController::OnDispatched() {
  std::lock_guard<std::mutex> lock(mu_);
  if (queued_ > 0) --queued_;
  ++running_;
  SEQHIDE_GAUGE_SET("serve.queue_depth", static_cast<int64_t>(queued_));
}

void AdmissionController::OnFinished(size_t est_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ > 0) --running_;
  inflight_bytes_ -= std::min(inflight_bytes_, est_bytes);
  SEQHIDE_GAUGE_SET("serve.inflight_table_bytes",
                    static_cast<int64_t>(inflight_bytes_));
  if (queued_ == 0 && running_ == 0) idle_cv_.notify_all();
}

void AdmissionController::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  if (queued_ == 0 && running_ == 0) idle_cv_.notify_all();
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

bool AdmissionController::WaitIdle(uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto idle = [this] { return queued_ == 0 && running_ == 0; };
  if (timeout_ms == 0) {
    idle_cv_.wait(lock, idle);
    return true;
  }
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), idle);
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

size_t AdmissionController::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t AdmissionController::inflight_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_bytes_;
}

uint64_t AdmissionController::sheds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sheds_;
}

}  // namespace serve
}  // namespace seqhide
