#include "src/hide/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"

namespace seqhide {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a64(const void* data, size_t len, uint64_t h = kFnvOffset) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// Incremental FNV-1a-64 over a typed stream; used for both the payload
// checksum and the input fingerprint. Every integer is folded in as 8
// little-endian bytes so the hash is platform-independent.
class FnvHasher {
 public:
  void U64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    h_ = Fnv1a64(b, 8, h_);
  }
  void Str(std::string_view s) {
    U64(s.size());
    h_ = Fnv1a64(s.data(), s.size(), h_);
  }
  uint64_t Digest() const { return h_; }

 private:
  uint64_t h_ = kFnvOffset;
};

// Append-only little-endian serializer into a std::string payload.
class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    out_.append(s.data(), s.size());
  }
  void U64Vec(const std::vector<uint64_t>& v) {
    U64(v.size());
    for (uint64_t x : v) U64(x);
  }
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

// Bounds-checked little-endian reader over the loaded payload. Every
// getter returns false on truncation; the loader translates any failure
// into one Corruption status.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > size_) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *v = x;
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t x = 0;
    if (!U64(&x)) return false;
    *v = static_cast<int64_t>(x);
    return true;
  }
  bool Str(std::string* s) {
    uint64_t len = 0;
    if (!U64(&len)) return false;
    if (len > size_ - pos_) return false;
    s->assign(data_ + pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return true;
  }
  bool U64Vec(std::vector<uint64_t>* v) {
    uint64_t n = 0;
    if (!U64(&n)) return false;
    // Each element takes 8 payload bytes; reject sizes the remaining
    // payload cannot possibly hold before reserving memory for them.
    if (n > (size_ - pos_) / 8) return false;
    v->resize(static_cast<size_t>(n));
    for (auto& x : *v) {
      if (!U64(&x)) return false;
    }
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void SerializeMetrics(const obs::MetricsSnapshot& snap, Writer* w) {
  w->U64(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    w->Str(name);
    w->U64(value);
  }
  w->U64(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    w->Str(name);
    w->I64(value);
  }
  w->U64(snap.histograms.size());
  for (const auto& [name, data] : snap.histograms) {
    w->Str(name);
    w->U64(data.count);
    w->U64(data.sum);
    w->U64(data.buckets.size());
    for (const auto& [lower, count] : data.buckets) {
      w->U64(lower);
      w->U64(count);
    }
  }
  w->U64(snap.spans.size());
  for (const auto& [path, data] : snap.spans) {
    w->Str(path);
    w->U64(data.count);
    w->U64(data.total_ns);
    w->U64(data.min_ns);
    w->U64(data.max_ns);
  }
}

bool DeserializeMetrics(Reader* r, obs::MetricsSnapshot* snap) {
  uint64_t n = 0;
  if (!r->U64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!r->Str(&name) || !r->U64(&value)) return false;
    snap->counters[name] = value;
  }
  if (!r->U64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    int64_t value = 0;
    if (!r->Str(&name) || !r->I64(&value)) return false;
    snap->gauges[name] = value;
  }
  if (!r->U64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    obs::MetricsSnapshot::HistogramData data;
    uint64_t num_buckets = 0;
    if (!r->Str(&name) || !r->U64(&data.count) || !r->U64(&data.sum) ||
        !r->U64(&num_buckets)) {
      return false;
    }
    if (num_buckets > r->remaining() / 16) return false;
    for (uint64_t b = 0; b < num_buckets; ++b) {
      uint64_t lower = 0, count = 0;
      if (!r->U64(&lower) || !r->U64(&count)) return false;
      data.buckets.emplace_back(lower, count);
    }
    snap->histograms[name] = std::move(data);
  }
  if (!r->U64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    std::string path;
    obs::MetricsSnapshot::SpanData data;
    if (!r->Str(&path) || !r->U64(&data.count) || !r->U64(&data.total_ns) ||
        !r->U64(&data.min_ns) || !r->U64(&data.max_ns)) {
      return false;
    }
    snap->spans[path] = data;
  }
  return true;
}

std::string SerializePayload(const CheckpointState& state) {
  Writer w;
  w.U64(state.fingerprint);
  w.U64(state.rounds_completed);
  w.U64(state.checkpoints_written);
  for (uint64_t s : state.rng_state) w.U64(s);
  w.U64(state.sequences_supporting_before);
  w.U64(state.count_rows);
  w.U64Vec(state.supports_before);
  w.U64Vec(state.victims);
  w.U64(state.num_patterns);
  w.U64(state.victim_pattern_support.size());
  for (uint8_t b : state.victim_pattern_support) w.U8(b);
  w.U64(state.completed.size());
  for (const auto& v : state.completed) {
    w.U8(v.skipped);
    w.U64Vec(v.marked_positions);
  }
  SerializeMetrics(state.metrics, &w);
  return w.str();
}

bool DeserializePayload(const char* data, size_t size, CheckpointState* state) {
  Reader r(data, size);
  if (!r.U64(&state->fingerprint)) return false;
  if (!r.U64(&state->rounds_completed)) return false;
  if (!r.U64(&state->checkpoints_written)) return false;
  for (auto& s : state->rng_state) {
    if (!r.U64(&s)) return false;
  }
  if (!r.U64(&state->sequences_supporting_before)) return false;
  if (!r.U64(&state->count_rows)) return false;
  if (!r.U64Vec(&state->supports_before)) return false;
  if (!r.U64Vec(&state->victims)) return false;
  if (!r.U64(&state->num_patterns)) return false;
  uint64_t support_bytes = 0;
  if (!r.U64(&support_bytes)) return false;
  if (support_bytes > r.remaining()) return false;
  state->victim_pattern_support.resize(static_cast<size_t>(support_bytes));
  for (auto& b : state->victim_pattern_support) {
    if (!r.U8(&b)) return false;
  }
  uint64_t num_completed = 0;
  if (!r.U64(&num_completed)) return false;
  if (num_completed > r.remaining()) return false;
  state->completed.resize(static_cast<size_t>(num_completed));
  for (auto& v : state->completed) {
    if (!r.U8(&v.skipped)) return false;
    if (!r.U64Vec(&v.marked_positions)) return false;
  }
  if (!DeserializeMetrics(&r, &state->metrics)) return false;
  return r.AtEnd();
}

}  // namespace

Status WriteCheckpoint(const std::string& path, const CheckpointState& state) {
  const std::string payload = SerializePayload(state);
  const uint64_t checksum = Fnv1a64(payload.data(), payload.size());

  std::string file;
  file.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  {
    Writer w;
    w.U32(kCheckpointVersion);
    w.U64(payload.size());
    w.U64(checksum);
    file += w.str();
  }
  file += payload;

  const std::string tmp_path = path + ".tmp";
  {
    if (SEQHIDE_FAULT_HIT("checkpoint.write.open")) {
      return Status::IOError("injected fault: checkpoint.write.open (" +
                             tmp_path + ")");
    }
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open checkpoint temp file: " + tmp_path);
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (SEQHIDE_FAULT_HIT("checkpoint.write.payload")) {
      out.setstate(std::ios::failbit);
    }
    if (!out) {
      out.close();
      std::remove(tmp_path.c_str());
      return Status::IOError("short write to checkpoint temp file: " +
                             tmp_path);
    }
  }
  if (SEQHIDE_FAULT_HIT("checkpoint.write.rename") ||
      std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename checkpoint into place: " + path);
  }
  return Status::OK();
}

Result<CheckpointState> LoadCheckpoint(const std::string& path) {
  if (SEQHIDE_FAULT_HIT("checkpoint.load.open")) {
    return Status::IOError("injected fault: checkpoint.load.open (" + path +
                           ")");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("checkpoint not found: " + path);
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (SEQHIDE_FAULT_HIT("checkpoint.load.payload")) {
    return Status::Corruption("injected fault: checkpoint.load.payload (" +
                              path + ")");
  }

  constexpr size_t kHeaderSize = sizeof(kCheckpointMagic) + 4 + 8 + 8;
  if (file.size() < kHeaderSize ||
      std::memcmp(file.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
          0) {
    return Status::Corruption("not a checkpoint file: " + path);
  }
  // Version is the 4 bytes after the magic (Reader has no U32).
  const unsigned char* vp = reinterpret_cast<const unsigned char*>(
      file.data() + sizeof(kCheckpointMagic));
  const uint32_t version = static_cast<uint32_t>(vp[0]) |
                           (static_cast<uint32_t>(vp[1]) << 8) |
                           (static_cast<uint32_t>(vp[2]) << 16) |
                           (static_cast<uint32_t>(vp[3]) << 24);
  if (version > kCheckpointVersion) {
    return Status::FailedPrecondition(
        "checkpoint version " + std::to_string(version) +
        " is newer than this build supports (" +
        std::to_string(kCheckpointVersion) + "): " + path);
  }
  Reader lens(file.data() + sizeof(kCheckpointMagic) + 4, 16);
  uint64_t payload_len = 0, checksum = 0;
  if (!lens.U64(&payload_len) || !lens.U64(&checksum)) {
    return Status::Corruption("truncated checkpoint header: " + path);
  }
  if (file.size() != kHeaderSize + payload_len) {
    return Status::Corruption("checkpoint payload length mismatch: " + path);
  }
  const char* payload = file.data() + kHeaderSize;
  if (Fnv1a64(payload, static_cast<size_t>(payload_len)) != checksum) {
    return Status::Corruption("checkpoint checksum mismatch: " + path);
  }
  CheckpointState state;
  if (!DeserializePayload(payload, static_cast<size_t>(payload_len), &state)) {
    return Status::Corruption("malformed checkpoint payload: " + path);
  }
  return state;
}

uint64_t ComputeRunFingerprint(const DatabaseView& db,
                               const std::vector<Sequence>& patterns,
                               const std::vector<ConstraintSpec>& constraints,
                               const SanitizeOptions& opts) {
  FnvHasher h;
  // Alphabet: intern order matters (symbol ids are dense in it), so the
  // name list pins the id <-> name mapping.
  h.U64(db.alphabet().size());
  for (size_t i = 0; i < db.alphabet().size(); ++i) {
    h.Str(db.alphabet().Name(static_cast<SymbolId>(i)));
  }
  h.U64(db.size());
  for (size_t t = 0; t < db.size(); ++t) {
    const SequenceView row = db.row(t);
    h.U64(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      h.U64(static_cast<uint64_t>(static_cast<int64_t>(row[i])));
    }
  }
  h.U64(patterns.size());
  for (const auto& p : patterns) {
    h.U64(p.size());
    for (size_t i = 0; i < p.size(); ++i) {
      h.U64(static_cast<uint64_t>(static_cast<int64_t>(p[i])));
    }
  }
  h.U64(constraints.size());
  for (const auto& c : constraints) h.Str(c.ToString());
  // Result-affecting options only. num_threads and the budget are
  // deliberately excluded: the output is thread-count-invariant, and a
  // resume typically runs with a fresh (or no) budget.
  h.U64(opts.psi);
  h.U64(opts.per_pattern_psi.size());
  for (size_t v : opts.per_pattern_psi) h.U64(v);
  h.U64(opts.seed);
  h.U64(static_cast<uint64_t>(opts.local));
  h.U64(static_cast<uint64_t>(opts.global));
  // Slot of the retired inverted-index pruning option (the row-signature
  // screen replaced it): a constant 0, so digests and checkpoints from
  // builds that had it still match.
  h.U64(0);
  h.U64(opts.verify ? 1 : 0);
  h.U64(opts.mark_round_size);
  return h.Digest();
}

}  // namespace seqhide
