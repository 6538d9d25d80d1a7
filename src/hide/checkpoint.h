// Crash-safe checkpointing of the sanitization pipeline.
//
// A checkpoint captures everything Sanitize() needs to finish a run that
// died mid-marking: the victim list and per-victim supports from the
// count/select stages, the marks of every victim completed so far, the
// select-stage RNG's stream position, and a full metrics snapshot. The
// pipeline writes one after victim selection, every
// SanitizeOptions::checkpoint_every_rounds marking rounds, and on a
// budget stop; a run that completes deletes its checkpoint. Resuming
// (SanitizeOptions::resume) replays the stored marks onto fresh copies of
// the completed victims' rows, restores the metrics registry, and
// continues from the first incomplete round — the final database,
// report, and metrics are byte-identical to an uninterrupted run at any
// thread count.
//
// File format (all integers little-endian, strings length-prefixed):
//
//   header  8 bytes  magic "SQHCKPT\0"
//           u32      version (kCheckpointVersion)
//           u64      payload length in bytes
//           u64      FNV-1a-64 checksum of the payload
//   payload          CheckpointState fields, in declaration order
//
// Atomicity: the file is written to `path + ".tmp"` and renamed over
// `path`, so a crash mid-write leaves either the previous checkpoint or
// none — never a torn one. Corruption (bad magic, checksum mismatch,
// truncation) loads as Status::Corruption; a version from a newer build
// or a fingerprint from different inputs loads fine but is rejected by
// the resume logic with FailedPrecondition. Versioning rule: any change
// to the payload layout bumps kCheckpointVersion; readers never guess at
// unknown versions (see docs/robustness.md).

#ifndef SEQHIDE_HIDE_CHECKPOINT_H_
#define SEQHIDE_HIDE_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/constraints/constraints.h"
#include "src/hide/options.h"
#include "src/obs/metrics.h"
#include "src/seq/view.h"

namespace seqhide {

inline constexpr uint32_t kCheckpointVersion = 1;
inline constexpr char kCheckpointMagic[8] = {'S', 'Q', 'H', 'C',
                                             'K', 'P', 'T', '\0'};

// Marks applied to one victim that has already been fully processed.
struct CheckpointVictimState {
  // 1 when the memory budget refused this victim's DP tables: its partial
  // marks are kept but it may still hold matchings (counted in
  // SanitizeReport::victims_skipped).
  uint8_t skipped = 0;
  // Positions marked, in the order the local stage chose them.
  std::vector<uint64_t> marked_positions;
};

// Everything needed to resume a Sanitize() run. Field order here is the
// payload serialization order.
struct CheckpointState {
  // ComputeRunFingerprint() of the inputs + result-affecting options;
  // resume refuses a checkpoint whose fingerprint does not match.
  uint64_t fingerprint = 0;
  // Marking rounds fully completed (each covers mark_round_size victims).
  uint64_t rounds_completed = 0;
  // Periodic checkpoints written so far, for the report/metrics (the
  // final budget-stop write is not counted — see sanitizer.cc).
  uint64_t checkpoints_written = 0;
  // Select-stage xoshiro256** state *after* selection, so a resumed
  // Random-global run continues the identical stream.
  std::array<uint64_t, 4> rng_state{};
  uint64_t sequences_supporting_before = 0;
  uint64_t count_rows = 0;
  std::vector<uint64_t> supports_before;           // per pattern
  std::vector<uint64_t> victims;                   // sequence indices
  uint64_t num_patterns = 0;
  // Row-major victims × num_patterns: did victim i support pattern p
  // before sanitization (stage-1 result, needed by the verify stage).
  std::vector<uint8_t> victim_pattern_support;
  // State of the first rounds_completed × mark_round_size victims.
  std::vector<CheckpointVictimState> completed;
  // Metrics at checkpoint time; restored into the registry on resume.
  obs::MetricsSnapshot metrics;
};

// Serializes `state` to `path` atomically (tmp + rename). Fault sites:
// checkpoint.write.open, checkpoint.write.payload, checkpoint.write.rename.
Status WriteCheckpoint(const std::string& path, const CheckpointState& state);

// Loads and validates (magic, version, checksum) a checkpoint. NotFound
// when the file does not exist, Corruption for a damaged file,
// FailedPrecondition for a newer version. Fault sites:
// checkpoint.load.open, checkpoint.load.payload.
Result<CheckpointState> LoadCheckpoint(const std::string& path);

// FNV-1a-64 hash of the inputs and every option that affects the result
// (strategies, ψ, seed, round size, verify — not thread count
// or budget, which may legitimately differ between a run and its resume).
// Reads only the view's alphabet and rows, so an in-memory database and
// its seqhidb image fingerprint identically: a checkpoint written by one
// resumes on the other.
uint64_t ComputeRunFingerprint(const DatabaseView& db,
                               const std::vector<Sequence>& patterns,
                               const std::vector<ConstraintSpec>& constraints,
                               const SanitizeOptions& opts);

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_CHECKPOINT_H_
