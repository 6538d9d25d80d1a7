#include "src/serve/server.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/constraints/constraints.h"
#include "src/hide/sanitizer.h"
#include "src/match/bitset_match.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/scratch.h"
#include "src/match/subsequence.h"
#include "src/obs/macros.h"
#include "src/seq/io.h"
#include "src/seq/signature.h"

namespace seqhide {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

Result<SanitizeOptions> BaseOptionsForAlgo(const std::string& algo,
                                           uint64_t seed) {
  if (algo == "HH") return SanitizeOptions::HH();
  if (algo == "HR") return SanitizeOptions::HR(seed);
  if (algo == "RH") return SanitizeOptions::RH(seed);
  if (algo == "RR") return SanitizeOptions::RR(seed);
  return Status::InvalidArgument("unknown algo '" + algo +
                                 "' (HH|HR|RH|RR)");
}

// Durable small-file write with the same discipline as the binary
// writer: tmp + fsync + rename + directory fsync. Used for job specs —
// after a crash the spec is either fully there or not at all.
Status WriteFileDurable(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp + ": " + std::strerror(errno));
  }
  size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s =
          Status::IOError("write " + tmp + ": " + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status s =
        Status::IOError("fsync " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = Status::IOError("rename " + tmp + " -> " + path + ": " +
                                     std::strerror(errno));
    ::unlink(tmp.c_str());
    return s;
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s =
          Status::IOError("read " + path + ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
    if (n == 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace

// One client connection: the channel, a write lock serializing response
// lines, and the cancel flags of this connection's in-flight requests
// (set when the peer disappears).
struct Server::Connection {
  explicit Connection(int fd) : chan(fd) {}
  LineChannel chan;
  std::mutex write_mu;
  std::atomic<bool> disconnected{false};
  std::atomic<bool> reader_done{false};
  std::mutex inflight_mu;
  std::vector<std::shared_ptr<std::atomic<bool>>> inflight_cancels;
};

struct Server::WorkItem {
  Request req;
  std::shared_ptr<Connection> conn;  // null for recovered jobs
  Clock::time_point admitted_at;
  Clock::time_point deadline;
  bool has_deadline = false;
  size_t est_bytes = 0;
  std::shared_ptr<std::atomic<bool>> cancel;
};

Server::Server(const ServerOptions& opts)
    : opts_(opts),
      admission_(opts.admission),
      cache_(opts.cache_entries) {}

Server::~Server() {
  RequestDrain();
  Join();
}

Result<std::unique_ptr<Server>> Server::Create(const ServerOptions& opts) {
  if (opts.db_path.empty()) {
    return Status::InvalidArgument("ServerOptions::db_path is required");
  }
  const bool has_unix = !opts.socket_path.empty();
  const bool has_tcp = opts.tcp_port.has_value();
  if (has_unix == has_tcp) {
    return Status::InvalidArgument(
        "exactly one of socket_path / tcp_port must be set");
  }
  if (opts.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (opts.admission.queue_limit == 0) {
    return Status::InvalidArgument("queue_limit must be >= 1");
  }
  if (std::isnan(opts.default_deadline_ms) || opts.default_deadline_ms < 0) {
    return Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  std::unique_ptr<Server> server(new Server(opts));
  SEQHIDE_RETURN_IF_ERROR(server->LoadDatabase());
  return server;
}

Status Server::LoadDatabase() {
  SEQHIDE_ASSIGN_OR_RETURN(const bool binary,
                           FileLooksLikeBinaryDatabase(opts_.db_path));
  if (binary) {
    SEQHIDE_ASSIGN_OR_RETURN(MappedDatabase mapped,
                             MappedDatabase::OpenMapped(opts_.db_path));
    // Open validates only the header and alphabet; reject corrupt row
    // offsets or symbol ids before serving (O(file), no checksums). The
    // same pass yields the row signatures.
    SEQHIDE_RETURN_IF_ERROR(mapped.ValidateRows(&row_signatures_));
    db_fingerprint_ = mapped.header().header_fnv;
    mapped_.emplace(std::move(mapped));
    db_ = mapped_->view();
  } else {
    SEQHIDE_ASSIGN_OR_RETURN(text_db_, ReadDatabaseFromFile(opts_.db_path));
    db_ = DatabaseView(text_db_);
    const std::string text = WriteDatabaseToString(text_db_);
    db_fingerprint_ = Fnv1a64(text.data(), text.size());
    row_signatures_.resize(db_.size());
  }
  for (size_t t = 0; t < db_.size(); ++t) {
    const SequenceView row = db_.row(t);
    db_max_length_ = std::max(db_max_length_, row.size());
    if (!mapped_.has_value()) row_signatures_[t] = SequenceSignature(row);
  }
  // Sanitize requests screen their count stage with the same signatures.
  db_ = db_.WithSignatures(row_signatures_);
  return Status::OK();
}

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  SEQHIDE_RETURN_IF_ERROR(RecoverJobs());
  if (!opts_.socket_path.empty()) {
    SEQHIDE_RETURN_IF_ERROR(listener_.ListenUnix(opts_.socket_path));
  } else {
    SEQHIDE_RETURN_IF_ERROR(listener_.ListenTcp(*opts_.tcp_port));
  }
  for (size_t i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

Status Server::RecoverJobs() {
  if (opts_.state_dir.empty()) return Status::OK();
  DIR* dir = ::opendir(opts_.state_dir.c_str());
  if (dir == nullptr) {
    return Status::IOError("cannot open state dir " + opts_.state_dir + ": " +
                           std::strerror(errno));
  }
  std::vector<std::string> specs;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".job") == 0) {
      specs.push_back(opts_.state_dir + "/" + name);
    }
  }
  ::closedir(dir);
  std::sort(specs.begin(), specs.end());  // deterministic recovery order
  for (const std::string& spec_path : specs) {
    SEQHIDE_ASSIGN_OR_RETURN(std::string text, ReadFileToString(spec_path));
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    auto parsed = ParseRequest(text);
    if (!parsed.ok()) {
      // A spec this server version cannot parse would crash-loop forever;
      // set it aside instead of deleting the evidence.
      SEQHIDE_LOG(Warn) << "unparsable job spec " << spec_path << ": "
                        << parsed.status().ToString() << "; renaming to .bad";
      (void)::rename(spec_path.c_str(), (spec_path + ".bad").c_str());
      continue;
    }
    auto item = std::make_shared<WorkItem>();
    item->req = std::move(parsed).value();
    item->admitted_at = Clock::now();
    item->cancel = std::make_shared<std::atomic<bool>>(false);
    SEQHIDE_LOG(Info) << "recovering job '" << item->req.job << "' from "
                      << spec_path;
    const Response resp = DoSanitize(item, /*resume=*/true);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.recovered_jobs;
      if (resp.status == "ok") {
        ++stats_.requests_ok;
      } else {
        ++stats_.requests_error;
      }
    }
    SEQHIDE_COUNTER_INC("serve.jobs_recovered");
    LedgerRecord(item->req, resp, /*shed=*/false, /*recovered=*/true);
    if (resp.status != "ok") {
      SEQHIDE_LOG(Warn) << "recovered job '" << item->req.job
                        << "' finished with status " << resp.status << ": "
                        << resp.error;
    }
  }
  return Status::OK();
}

void Server::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (accepted.status().IsFailedPrecondition() ||
          drain_requested_.load(std::memory_order_acquire)) {
        return;  // listener closed: drain in progress
      }
      // A failed accept (including the injected net.accept fault) costs
      // that connection only; the loop keeps serving.
      SEQHIDE_LOG(Warn) << "accept failed: " << accepted.status().ToString();
      SEQHIDE_COUNTER_INC("serve.accept_errors");
      continue;
    }
    auto conn = std::make_shared<Connection>(*accepted);
    ReapFinishedReaders();
    std::lock_guard<std::mutex> lock(conns_mu_);
    ReaderSlot slot;
    slot.conn = conn;
    slot.thread = std::thread([this, conn] { ReaderLoop(conn); });
    readers_.push_back(std::move(slot));
    SEQHIDE_COUNTER_INC("serve.connections");
  }
}

void Server::ReapFinishedReaders() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->conn->reader_done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string line;
  for (;;) {
    auto read = conn->chan.ReadLine(&line);
    if (!read.ok()) {
      // Includes the injected net.read.short fault: the connection is
      // dropped, its in-flight work cancelled; the server keeps serving.
      SEQHIDE_COUNTER_INC("serve.read_errors");
      break;
    }
    if (!*read) break;  // clean EOF
    if (line.empty()) continue;
    HandleLine(conn, line);
  }
  conn->disconnected.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(conn->inflight_mu);
    for (const auto& cancel : conn->inflight_cancels) {
      cancel->store(true, std::memory_order_release);
    }
  }
  conn->chan.Shutdown();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.disconnects;
  }
  conn->reader_done.store(true, std::memory_order_release);
}

size_t Server::EstimateTableBytes(const Request& req) const {
  // Upper estimate of one request's counting-DP footprint: one
  // (n_max + 1)-wide row of u64 per pattern, times a small factor for
  // the prefix/gap tables the constrained DPs keep per row.
  return req.patterns.size() * (db_max_length_ + 1) * 24;
}

void Server::HandleLine(const std::shared_ptr<Connection>& conn,
                        const std::string& line) {
  auto parsed = ParseRequest(line);
  if (!parsed.ok()) {
    Response resp = ErrorResponse(0, parsed.status());
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests_error;
    }
    LedgerRecord(Request{}, resp, /*shed=*/false, /*recovered=*/false);
    WriteResponse(conn, std::move(resp));
    return;
  }
  Request req = std::move(parsed).value();

  if (req.method == Method::kPing) {
    // Health checks bypass admission: they must answer even (especially)
    // when the server is saturated or draining.
    Response resp;
    resp.id = req.id;
    resp.db_rows = db_.size();
    resp.db_fingerprint = db_fingerprint_;
    resp.draining = admission_.draining();
    WriteResponse(conn, std::move(resp));
    return;
  }

  const size_t est_bytes = EstimateTableBytes(req);
  const AdmissionDecision decision = admission_.Offer(est_bytes);
  if (!decision.admitted) {
    Response resp;
    resp.id = req.id;
    resp.status = decision.wire_status;
    resp.error = decision.reason;
    resp.retry_after_ms = decision.retry_after_ms;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.sheds;
    }
    SEQHIDE_COUNTER_INC("serve.requests_shed");
    LedgerRecord(req, resp, /*shed=*/true, /*recovered=*/false);
    WriteResponse(conn, std::move(resp));
    return;
  }

  auto item = std::make_shared<WorkItem>();
  item->req = std::move(req);
  item->conn = conn;
  item->admitted_at = Clock::now();
  double deadline_ms = item->req.deadline_ms;
  if (deadline_ms <= 0.0) deadline_ms = opts_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    item->has_deadline = true;
    item->deadline =
        item->admitted_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  }
  item->est_bytes = est_bytes;
  item->cancel = std::make_shared<std::atomic<bool>>(false);
  {
    std::lock_guard<std::mutex> lock(conn->inflight_mu);
    conn->inflight_cancels.push_back(item->cancel);
  }
  {
    std::lock_guard<std::mutex> lock(cancels_mu_);
    cancels_.push_back(item->cancel);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

void Server::WorkerLoop() {
  for (;;) {
    std::shared_ptr<WorkItem> item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_ and nothing left
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    admission_.OnDispatched();
    ProcessItem(item);
    admission_.OnFinished(item->est_bytes);
    RetireItem(item);
  }
}

void Server::RetireItem(const std::shared_ptr<WorkItem>& item) {
  {
    std::lock_guard<std::mutex> lock(cancels_mu_);
    cancels_.erase(
        std::remove(cancels_.begin(), cancels_.end(), item->cancel),
        cancels_.end());
  }
  if (item->conn != nullptr) {
    std::lock_guard<std::mutex> lock(item->conn->inflight_mu);
    auto& v = item->conn->inflight_cancels;
    v.erase(std::remove(v.begin(), v.end(), item->cancel), v.end());
  }
}

void Server::ProcessItem(const std::shared_ptr<WorkItem>& item) {
  const Clock::time_point start = Clock::now();
  const uint64_t queue_us = ElapsedUs(item->admitted_at, start);

  if (SEQHIDE_FAULT_HIT("net.disconnect")) {
    // Simulates the client vanishing between admission and dispatch: the
    // request is cancelled, no response is written (there is nobody to
    // read it), the connection is closed.
    item->conn->disconnected.store(true, std::memory_order_release);
    item->conn->chan.Shutdown();
  }

  Response resp;
  const bool client_gone =
      item->conn != nullptr &&
      item->conn->disconnected.load(std::memory_order_acquire);
  if (client_gone || item->cancel->load(std::memory_order_acquire)) {
    resp = ErrorResponse(
        item->req.id,
        Status::Cancelled(client_gone ? "client disconnected"
                                      : "server is draining"));
  } else if (item->has_deadline && Clock::now() >= item->deadline) {
    resp = ErrorResponse(item->req.id,
                         Status::DeadlineExceeded(
                             "deadline expired while queued (queue_us=" +
                             std::to_string(queue_us) + ")"));
  } else {
    switch (item->req.method) {
      case Method::kSupport:
      case Method::kMatchCount:
        resp = DoQuery(item);
        break;
      case Method::kSanitize:
        resp = DoSanitize(item, /*resume=*/false);
        break;
      case Method::kPing:
        resp = ErrorResponse(item->req.id,
                             Status::Internal("ping reached the work queue"));
        break;
    }
  }
  FinishItem(item, std::move(resp), start);
}

void Server::FinishItem(const std::shared_ptr<WorkItem>& item, Response resp,
                        Clock::time_point start) {
  resp.queue_us = ElapsedUs(item->admitted_at, start);
  resp.work_us = ElapsedUs(start, Clock::now());
  SEQHIDE_HISTOGRAM_RECORD("serve.request_latency_us",
                           resp.queue_us + resp.work_us);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (resp.status == "ok") {
      ++stats_.requests_ok;
    } else if (resp.status == WireStatus(StatusCode::kDeadlineExceeded)) {
      ++stats_.deadline_exceeded;
    } else if (resp.status == WireStatus(StatusCode::kCancelled)) {
      ++stats_.cancelled;
    } else {
      ++stats_.requests_error;
    }
  }
  LedgerRecord(item->req, resp, /*shed=*/false, /*recovered=*/false);
  if (item->conn != nullptr &&
      !item->conn->disconnected.load(std::memory_order_acquire)) {
    WriteResponse(item->conn, std::move(resp));
  } else if (item->conn != nullptr) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.responses_dropped;
  }
}

Response Server::DoQuery(const std::shared_ptr<WorkItem>& item) {
  const Request& req = item->req;
  if (req.patterns.empty()) {
    return ErrorResponse(req.id, Status::InvalidArgument(
                                     "'patterns' must be non-empty"));
  }
  Response resp;
  resp.id = req.id;
  const uint64_t patterns_fp =
      FingerprintPatterns(MethodName(req.method), req.patterns);
  if (auto cached = cache_.Lookup(db_fingerprint_, patterns_fp)) {
    resp.values = std::move(*cached);
    resp.cache = "hit";
    return resp;
  }

  // Parse against a private alphabet copy: ParseConstrainedPattern
  // interns unseen symbols, and the shared serving alphabet must never
  // mutate under concurrent requests. Fresh ids never equal a database
  // symbol id, so unknown-symbol patterns simply count zero.
  Alphabet alphabet = db_.alphabet();
  std::vector<ConstrainedPattern> parsed;
  parsed.reserve(req.patterns.size());
  for (const std::string& text : req.patterns) {
    auto p = ParseConstrainedPattern(&alphabet, text);
    if (!p.ok()) return ErrorResponse(req.id, p.status());
    parsed.push_back(std::move(p).value());
  }

  MatchScratch scratch;
  resp.values.reserve(parsed.size());
  {
    SEQHIDE_TRACE_SPAN("serve");
    SEQHIDE_TRACE_SPAN("query");
    for (const ConstrainedPattern& cp : parsed) {
      // Budget boundaries sit between patterns.
      if (item->cancel->load(std::memory_order_acquire)) {
        return ErrorResponse(req.id, Status::Cancelled("request cancelled"));
      }
      if (item->has_deadline && Clock::now() >= item->deadline) {
        return ErrorResponse(req.id,
                             Status::DeadlineExceeded("deadline exceeded"));
      }
      resp.values.push_back(ComputePatternValue(req.method, cp, &scratch));
    }
  }
  cache_.Insert(db_fingerprint_, patterns_fp, resp.values);
  resp.cache = "miss";
  return resp;
}

uint64_t Server::ComputePatternValue(Method method,
                                     const ConstrainedPattern& cp,
                                     MatchScratch* scratch) const {
  const Sequence& pattern = cp.pattern;
  const ConstraintSpec& spec = cp.constraints;
  const uint64_t need = SequenceSignature(pattern);
  const SymbolMasks masks(pattern);
  uint64_t value = 0;
  size_t scanned = 0;
  for (size_t t = 0; t < db_.size(); ++t) {
    if ((row_signatures_[t] & need) != need) continue;
    ++scanned;
    const SequenceView row = db_.row(t);
    // No unconstrained embedding means no matching under any constraint.
    const bool embeds = masks.usable() ? HasSubsequenceBitParallel(masks, row)
                                       : IsSubsequence(pattern, row);
    if (!embeds) continue;
    if (method == Method::kSupport) {
      if (spec.IsUnconstrained() ||
          HasConstrainedMatch(pattern, spec, row, scratch)) {
        ++value;
      }
    } else {
      value = SatAdd(value,
                     CountConstrainedMatchings(pattern, spec, row, scratch));
    }
  }
  SEQHIDE_COUNTER_ADD("bindb.candidate.rows", scanned);
  SEQHIDE_COUNTER_ADD("bindb.candidate.pruned", db_.size() - scanned);
  return value;
}

Response Server::DoSanitize(const std::shared_ptr<WorkItem>& item,
                            bool resume) {
  // Not "serve/sanitize": span readers match paths by their last
  // component, and "sanitize" is the pipeline's own span.
  SEQHIDE_TRACE_SPAN("serve");
  SEQHIDE_TRACE_SPAN("sanitize_request");
  const Request& req = item->req;
  if (req.patterns.empty()) {
    return ErrorResponse(req.id, Status::InvalidArgument(
                                     "'patterns' must be non-empty"));
  }
  if (req.out.empty()) {
    return ErrorResponse(
        req.id, Status::InvalidArgument("sanitize requires 'out'"));
  }
  if (!req.job.empty() && opts_.state_dir.empty()) {
    return ErrorResponse(req.id,
                         Status::FailedPrecondition(
                             "durable jobs need a server --state-dir"));
  }

  auto base = BaseOptionsForAlgo(req.algo, req.seed);
  if (!base.ok()) return ErrorResponse(req.id, base.status());
  SanitizeOptions opts = std::move(base).value();
  opts.psi = req.psi;
  opts.seed = req.seed;
  opts.num_threads = opts_.num_threads;
  opts.mark_round_size = opts_.mark_round_size;
  opts.budget.cancel = item->cancel.get();
  if (item->has_deadline) {
    const double remaining =
        std::chrono::duration<double>(item->deadline - Clock::now()).count();
    if (remaining <= 0.0) {
      return ErrorResponse(req.id,
                           Status::DeadlineExceeded("deadline exceeded"));
    }
    opts.budget.deadline_seconds = remaining;
  }

  std::string spec_path;
  if (!req.job.empty()) {
    spec_path = opts_.state_dir + "/" + req.job + ".job";
    opts.checkpoint_path = opts_.state_dir + "/" + req.job + ".ckpt";
    opts.checkpoint_every_rounds = opts_.checkpoint_every_rounds;
    opts.resume = resume;
    if (!resume) {
      const Status persisted =
          WriteFileDurable(spec_path, SerializeRequest(req) + "\n");
      if (!persisted.ok()) return ErrorResponse(req.id, persisted);
    }
  }

  // Parse against a request-private alphabet copy (the serving alphabet
  // is shared and immutable). Unseen pattern symbols intern into it just
  // as `seqhide_cli sanitize` interns into its loaded database, so the
  // output's |Sigma| header and the checkpoint fingerprint match the CLI.
  Alphabet alphabet = db_.alphabet();
  std::vector<Sequence> patterns;
  std::vector<ConstraintSpec> constraints;
  patterns.reserve(req.patterns.size());
  {
    SEQHIDE_TRACE_SPAN("parse");
    for (const std::string& text : req.patterns) {
      auto p = ParseConstrainedPattern(&alphabet, text);
      if (!p.ok()) {
        if (!spec_path.empty()) (void)::unlink(spec_path.c_str());
        return ErrorResponse(req.id, p.status());
      }
      patterns.push_back(std::move(p->pattern));
      constraints.push_back(std::move(p->constraints));
    }
  }

  // The pipeline marks private copies of its victims only; the shared
  // image is read in place, never copied, and its count stage screens
  // rows with the signatures db_ carries.
  const DatabaseView db = db_.WithAlphabet(alphabet);
  auto result = [&]() {
    SEQHIDE_TRACE_SPAN("pipeline");
    auto run = SanitizeView(db, patterns, constraints, opts);
    if (!run.ok() && opts.resume &&
        (run.status().IsCorruption() || run.status().IsIOError() ||
         run.status().IsFailedPrecondition())) {
      // A checkpoint this run cannot use (corrupt, torn, or from
      // different inputs) must not wedge recovery: drop it and run fresh.
      SEQHIDE_LOG(Warn) << "job '" << req.job << "': checkpoint unusable ("
                        << run.status().ToString() << "); restarting fresh";
      (void)::unlink(opts.checkpoint_path.c_str());
      opts.resume = false;
      run = SanitizeView(db, patterns, constraints, opts);
    }
    return run;
  }();
  if (!result.ok()) {
    // Terminal failure: answer it and retire the job — re-running a
    // request the engine rejects would crash-loop recovery forever.
    if (!spec_path.empty()) {
      (void)::unlink(spec_path.c_str());
      (void)::unlink(opts.checkpoint_path.c_str());
    }
    return ErrorResponse(req.id, result.status());
  }
  const SanitizeReport& report = result->report;

  Response resp;
  resp.id = req.id;
  resp.has_sanitize = true;
  SanitizeSummary& s = resp.sanitize;
  s.marks_introduced = report.marks_introduced;
  s.sequences_sanitized = report.sequences_sanitized;
  s.supports_before.assign(report.supports_before.begin(),
                           report.supports_before.end());
  s.supports_after.assign(report.supports_after.begin(),
                          report.supports_after.end());
  s.degraded = report.degraded;
  s.rounds_completed = report.rounds_completed;
  s.rounds_total = report.rounds_total;

  if (report.degraded) {
    s.stop_reason = std::string(WireStatus(report.stop_reason));
    resp.status = s.stop_reason;
    resp.error = "sanitize stopped early (" + s.stop_reason + "); " +
                 std::to_string(report.rounds_completed) + "/" +
                 std::to_string(report.rounds_total) + " rounds";
    if (report.stop_reason == StatusCode::kCancelled) {
      // Disconnect or drain: the checkpoint and spec stay — the job is
      // re-run to completion at the next startup, byte-identical to an
      // uninterrupted run.
      return resp;
    }
    // Deadline/budget stops are the client's explicit answer; the job is
    // over, not pending.
    if (!spec_path.empty()) {
      (void)::unlink(spec_path.c_str());
      (void)::unlink(opts.checkpoint_path.c_str());
    }
    return resp;
  }

  const Status written = [&]() {
    SEQHIDE_TRACE_SPAN("write");
    return WriteDatabaseToFile(db.Overlay(result->overlay), req.out);
  }();
  if (!spec_path.empty()) {
    // Success (the checkpoint was already deleted by SanitizeView) or a
    // definitively answered write failure either way retires the spec.
    (void)::unlink(spec_path.c_str());
  }
  if (!written.ok()) return ErrorResponse(req.id, written);
  return resp;
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           Response resp) {
  const std::string line = SerializeResponse(resp);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  const Status s = conn->chan.WriteLine(line);
  if (!s.ok()) {
    // Includes the injected net.write.short fault: treat as a vanished
    // peer — drop the connection, cancel its other in-flight work.
    SEQHIDE_COUNTER_INC("serve.write_errors");
    conn->disconnected.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> inflight(conn->inflight_mu);
      for (const auto& cancel : conn->inflight_cancels) {
        cancel->store(true, std::memory_order_release);
      }
    }
    conn->chan.Shutdown();
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++stats_.responses_dropped;
  }
}

void Server::LedgerRecord(const Request& req, const Response& resp, bool shed,
                          bool recovered) {
  if (opts_.ledger == nullptr) return;
  obs::telemetry::ServerRequestRecord record;
  record.request_id = req.id;
  record.method = std::string(MethodName(req.method));
  record.status = resp.status;
  record.queue_us = resp.queue_us;
  record.work_us = resp.work_us;
  record.shed = shed;
  record.recovered = recovered;
  opts_.ledger->AppendServerRequest(record);
}

void Server::RequestDrain() {
  if (drain_requested_.exchange(true)) return;
  listener_.Close();
  admission_.BeginDrain();
}

bool Server::draining() const {
  return drain_requested_.load(std::memory_order_acquire);
}

void Server::Join() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Only now can no thread be inside Accept(), so the fd may be closed.
  listener_.Release();
  // Give queued + running work drain_grace_ms to finish on its own...
  if (!admission_.WaitIdle(opts_.drain_grace_ms)) {
    // ...then cancel what is left: in-flight sanitizes budget-stop at the
    // next round boundary (checkpointing durable jobs), queued items
    // answer "cancelled". Bounded, because cancel is polled every round.
    SEQHIDE_LOG(Warn) << "drain grace expired; cancelling in-flight requests";
    std::lock_guard<std::mutex> lock(cancels_mu_);
    for (const auto& cancel : cancels_) {
      cancel->store(true, std::memory_order_release);
    }
  }
  admission_.WaitIdle(0);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (ReaderSlot& slot : readers_) {
      slot.conn->chan.Shutdown();
    }
  }
  // Shutdown unblocks every reader; join them all.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (ReaderSlot& slot : readers_) {
      if (slot.thread.joinable()) slot.thread.join();
    }
    readers_.clear();
  }
  started_.store(false, std::memory_order_release);
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace serve
}  // namespace seqhide
