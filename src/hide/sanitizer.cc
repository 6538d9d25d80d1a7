#include "src/hide/sanitizer.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <set>
#include <sstream>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/hide/checkpoint.h"
#include "src/hide/global.h"
#include "src/hide/local.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/kernel.h"
#include "src/match/scratch.h"
#include "src/obs/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/telemetry/telemetry.h"
#include "src/seq/signature.h"

namespace seqhide {
namespace {

Status ValidateInputs(const DatabaseView& db,
                      const std::vector<Sequence>& patterns,
                      const std::vector<ConstraintSpec>& constraints,
                      const SanitizeOptions& opts) {
  SEQHIDE_RETURN_IF_ERROR(opts.Validate());
  if (patterns.empty()) {
    return Status::InvalidArgument("no sensitive patterns given");
  }
  std::set<Sequence> seen;
  for (const auto& p : patterns) {
    if (p.empty()) {
      return Status::InvalidArgument("sensitive pattern must be non-empty");
    }
    for (size_t i = 0; i < p.size(); ++i) {
      if (!IsRealSymbol(p[i])) {
        return Status::InvalidArgument(
            "sensitive pattern contains the marking symbol");
      }
    }
    if (!seen.insert(p).second) {
      return Status::InvalidArgument(
          "duplicate sensitive pattern: " + p.DebugString() +
          " (duplicates would double-count matchings)");
    }
  }
  if (!constraints.empty() && constraints.size() != patterns.size()) {
    return Status::InvalidArgument(
        "constraints list must be empty or have one entry per pattern");
  }
  for (size_t i = 0; i < constraints.size(); ++i) {
    SEQHIDE_RETURN_IF_ERROR(constraints[i].Validate(patterns[i].size()));
  }
  if (!opts.per_pattern_psi.empty() &&
      opts.per_pattern_psi.size() != patterns.size()) {
    return Status::InvalidArgument(
        "per_pattern_psi must be empty or have one entry per pattern");
  }
  if (!db.empty()) {
    // ψ above |D| can never bind (no support exceeds the database size),
    // so it is always a configuration mistake — e.g. a threshold meant
    // for a larger dataset. Same for per-pattern thresholds.
    if (opts.per_pattern_psi.empty()) {
      if (opts.psi > db.size()) {
        return Status::InvalidArgument(
            "psi = " + std::to_string(opts.psi) + " exceeds the database size (" +
            std::to_string(db.size()) + "); no pattern's support can be that large");
      }
    } else {
      for (size_t i = 0; i < opts.per_pattern_psi.size(); ++i) {
        if (opts.per_pattern_psi[i] > db.size()) {
          return Status::InvalidArgument(
              "per_pattern_psi[" + std::to_string(i) + "] = " +
              std::to_string(opts.per_pattern_psi[i]) +
              " exceeds the database size (" + std::to_string(db.size()) + ")");
        }
      }
    }
    // A pattern longer than every sequence has support 0 by construction;
    // asking to hide it is a mix-up between pattern and database files.
    size_t max_len = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      max_len = std::max(max_len, db.row(t).size());
    }
    for (const auto& p : patterns) {
      if (p.size() > max_len) {
        return Status::InvalidArgument(
            "sensitive pattern " + p.DebugString() + " has " +
            std::to_string(p.size()) +
            " symbols but the longest database sequence has " +
            std::to_string(max_len) + "; it can never be supported");
      }
    }
  }
  return Status::OK();
}

// Per-pattern supports of `db` by a full rescan: rows with >= 1 valid
// occurrence. Each row's signature is computed from the row itself in the
// same pass, never read from the view, so the rescan is independent of
// the signatures the count stage screened with: a wrong stored signature
// that hid a supporter from stage 1 still shows up here. Row-partitioned
// across the shared pool; the per-chunk totals are integer sums, so they
// are thread-count-independent. *admitted_pairs returns the (row,
// pattern) pairs the screen let through to the kernel.
std::vector<size_t> RescanSupports(const DatabaseView& db,
                                   const MatchKernel& kernel,
                                   size_t num_threads,
                                   size_t* admitted_pairs) {
  const size_t num_patterns = kernel.num_patterns();
  std::vector<size_t> supports(num_patterns, 0);
  size_t admitted = 0;
  std::mutex mu;
  ThreadPool::Shared().ParallelFor(
      db.size(), num_threads, [&](size_t begin, size_t end) {
        MatchScratch scratch;
        std::vector<size_t> hits(num_patterns, 0);
        size_t pairs = 0;
        for (size_t t = begin; t < end; ++t) {
          const SequenceView row = db.row(t);
          const uint64_t sig = SequenceSignature(row);
          for (size_t p = 0; p < num_patterns; ++p) {
            if (!kernel.Admits(p, sig)) continue;
            ++pairs;
            if (kernel.HasMatch(p, row, &scratch)) ++hits[p];
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        admitted += pairs;
        for (size_t p = 0; p < num_patterns; ++p) supports[p] += hits[p];
      });
  *admitted_pairs = admitted;
  return supports;
}

}  // namespace

std::string SanitizeReport::ToString() const {
  std::ostringstream out;
  out << "SanitizeReport{marks=" << marks_introduced
      << " sequences_sanitized=" << sequences_sanitized
      << " supporters_before=" << sequences_supporting_before
      << " supports_before=[";
  for (size_t i = 0; i < supports_before.size(); ++i) {
    if (i > 0) out << ",";
    out << supports_before[i];
  }
  out << "] supports_after=[";
  for (size_t i = 0; i < supports_after.size(); ++i) {
    if (i > 0) out << ",";
    out << supports_after[i];
  }
  out << "] kernel=" << kernel_engine << " threads=" << threads_used
      << " rows{count=" << count_rows
      << " verify_recount=" << verify_recount_rows
      << " verify_rescan=" << verify_rescan_rows << "}"
      << " rounds=" << rounds_completed << "/" << rounds_total;
  if (resumed) out << " resumed";
  if (checkpoints_written > 0) out << " checkpoints=" << checkpoints_written;
  if (saturated_rows > 0) out << " saturated=" << saturated_rows;
  if (degraded) {
    out << " DEGRADED(" << StatusCodeToString(stop_reason)
        << " victims_skipped=" << victims_skipped << " exposed=[";
    for (size_t i = 0; i < exposed.size(); ++i) {
      if (i > 0) out << ",";
      out << exposed[i].pattern_index << ":" << exposed[i].residual_support
          << ">" << exposed[i].limit;
    }
    out << "])";
  }
  out << " elapsed=" << elapsed_seconds << "s (count=" << stages.count_seconds
      << "s select=" << stages.select_seconds << "s mark="
      << stages.mark_seconds << "s verify=" << stages.verify_seconds << "s)}";
  return out.str();
}

Result<SanitizeResult> SanitizeView(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints,
    const SanitizeOptions& opts) {
  SEQHIDE_RETURN_IF_ERROR(ValidateInputs(db, patterns, constraints, opts));

  Stopwatch timer;
  SanitizeResult result;
  SanitizeReport& report = result.report;
  Rng rng(opts.seed);
  SEQHIDE_TRACE_SPAN("sanitize");
  SEQHIDE_COUNTER_INC("sanitize.runs");

  const size_t threads = ResolveThreadCount(opts.num_threads);
  report.threads_used = threads;
  const size_t num_patterns = patterns.size();
  const RunBudget& budget = opts.budget;
  const bool checkpointing = !opts.checkpoint_path.empty();

  // One kernel per run: masks/trie built once from the pattern set, then
  // shared read-only by the count and verify stages' workers. Engine
  // choice never changes the output, so it is excluded from the
  // checkpoint fingerprint — a run may resume under a different kernel.
  const MatchKernel match_kernel(patterns, constraints, opts.kernel);
  report.kernel_engine = ToString(match_kernel.engine());
  SEQHIDE_TELEMETRY(kStage, "kernel.resolved",
                    static_cast<uint64_t>(match_kernel.engine()),
                    num_patterns);

  uint64_t fingerprint = 0;
  if (checkpointing) {
    fingerprint = ComputeRunFingerprint(db, patterns, constraints, opts);
  }

  // Deadline / cancellation, polled at stage boundaries and between
  // marking rounds only — never inside a kernel — so the overlay at a
  // stop is always a whole number of rounds.
  auto budget_stop = [&]() -> StatusCode {
    if (budget.cancel != nullptr &&
        budget.cancel->load(std::memory_order_relaxed)) {
      return StatusCode::kCancelled;
    }
    if (budget.deadline_seconds > 0.0 &&
        timer.ElapsedSeconds() >= budget.deadline_seconds) {
      return StatusCode::kDeadlineExceeded;
    }
    return StatusCode::kOk;
  };

  // ---- Resume: load prior progress instead of re-running count+select.
  bool resumed = false;
  CheckpointState ck;
  if (opts.resume) {
    auto loaded = LoadCheckpoint(opts.checkpoint_path);
    if (loaded.ok()) {
      ck = std::move(loaded).value();
      if (ck.fingerprint != fingerprint) {
        return Status::FailedPrecondition(
            "checkpoint " + opts.checkpoint_path +
            " was written for different inputs or options (fingerprint "
            "mismatch); delete it to start over");
      }
      if (ck.num_patterns != num_patterns ||
          ck.supports_before.size() != num_patterns ||
          ck.victim_pattern_support.size() !=
              ck.victims.size() * num_patterns ||
          ck.completed.size() > ck.victims.size()) {
        return Status::Corruption("checkpoint " + opts.checkpoint_path +
                                  " has inconsistent dimensions");
      }
      resumed = true;
    } else if (loaded.status().IsNotFound()) {
      SEQHIDE_LOG(Info) << "no checkpoint at " << opts.checkpoint_path
                        << "; starting fresh";
    } else {
      return loaded.status();
    }
  }

  StatusCode stop = StatusCode::kOk;
  std::vector<size_t> victims;
  // Row-major victims × patterns: stage-1 "victim i supported pattern p"
  // bits, needed by the incremental verify. Carried through checkpoints
  // so a resumed run never re-runs the count stage.
  std::vector<uint8_t> victim_support;
  // Per-victim mark-stage outcomes (indexes parallel `victims`). The
  // database is never written: each victim is marked in its own private
  // copy, which becomes that row of the returned overlay.
  std::vector<Sequence> marked;
  std::vector<size_t> marks;
  std::vector<std::vector<size_t>> positions;
  std::vector<uint8_t> skipped;
  std::array<uint64_t, 4> rng_after_select{};
  size_t start_round = 0;
  size_t checkpoints_written = 0;
  bool selection_done = false;

  if (resumed) {
    // Metrics first: the snapshot already contains everything the
    // original run recorded up to the checkpoint (including this
    // process's equivalent pre-Sanitize I/O counters), so after Restore
    // the registry continues exactly where the dead run left off.
    obs::MetricsRegistry::Default().Restore(ck.metrics);
    report.resumed = true;
    report.sequences_supporting_before =
        static_cast<size_t>(ck.sequences_supporting_before);
    report.count_rows = static_cast<size_t>(ck.count_rows);
    report.supports_before.assign(ck.supports_before.begin(),
                                  ck.supports_before.end());
    victims.assign(ck.victims.begin(), ck.victims.end());
    victim_support = ck.victim_pattern_support;
    rng_after_select = ck.rng_state;
    rng = Rng::FromState(ck.rng_state);
    start_round = static_cast<size_t>(ck.rounds_completed);
    checkpoints_written = static_cast<size_t>(ck.checkpoints_written);
    selection_done = true;
    SEQHIDE_TELEMETRY(kCheckpoint, "resume", start_round, victims.size());

    marked.assign(victims.size(), Sequence());
    marks.assign(victims.size(), 0);
    positions.assign(victims.size(), {});
    skipped.assign(victims.size(), 0);
    // Replay the completed victims' marks onto fresh copies of their rows.
    for (size_t i = 0; i < ck.completed.size(); ++i) {
      const size_t t = victims[i];
      if (t >= db.size()) {
        return Status::Corruption("checkpoint victim index out of range");
      }
      marked[i] = db.row(t).Materialize();
      for (uint64_t pos : ck.completed[i].marked_positions) {
        if (pos >= marked[i].size()) {
          return Status::Corruption("checkpoint mark position out of range");
        }
        marked[i].Mark(static_cast<size_t>(pos));
        positions[i].push_back(static_cast<size_t>(pos));
      }
      marks[i] = ck.completed[i].marked_positions.size();
      skipped[i] = ck.completed[i].skipped;
    }
  } else {
    // Stage 1 of Algorithm 1: matching-set sizes for every sequence
    // (Lemma 2 / Lemma 4 DPs), row-partitioned across the pool and
    // screened by row signature (ComputeMatchInfo). The per-pattern
    // supports fall out of the same pass — pattern_support[p] is exactly
    // "this row supports pattern p" — so no separate supports-before scan
    // is needed.
    std::vector<SequenceMatchInfo> info;
    {
      obs::ScopedTimer stage_timer(&report.stages.count_seconds);
      SEQHIDE_TRACE_SPAN("count");
      info = ComputeMatchInfo(db, patterns, constraints, threads,
                              match_kernel, &report.count_rows);
      SEQHIDE_COUNTER_ADD("sanitize.count_screen_pruned",
                          db.size() * num_patterns - report.count_rows);
      report.supports_before.assign(num_patterns, 0);
      for (const auto& i : info) {
        if (i.matching_count == 0) continue;
        ++report.sequences_supporting_before;
        if (i.matching_count == kCountSaturated) ++report.saturated_rows;
        for (size_t p = 0; p < num_patterns; ++p) {
          if (i.pattern_support[p]) ++report.supports_before[p];
        }
      }
      SEQHIDE_COUNTER_ADD("sanitize.saturated_rows", report.saturated_rows);
    }
    SEQHIDE_TELEMETRY(kStage, "count.done", report.count_rows,
                      report.sequences_supporting_before);
    if (SEQHIDE_FAULT_HIT("sanitize.after_count")) stop = StatusCode::kCancelled;
    if (stop == StatusCode::kOk) stop = budget_stop();

    if (stop == StatusCode::kOk) {
      // Stage 2: pick the victims.
      {
        obs::ScopedTimer stage_timer(&report.stages.select_seconds);
        SEQHIDE_TRACE_SPAN("select");
        if (!opts.per_pattern_psi.empty()) {
          victims = SelectSequencesToSanitizeMultiThreshold(
              info, opts.per_pattern_psi);
        } else {
          victims =
              SelectSequencesToSanitize(db, info, opts.global, opts.psi, &rng);
        }
      }
      SEQHIDE_GAUGE_SET("sanitize.victims", victims.size());
      SEQHIDE_TELEMETRY(kVictims, "selected", victims.size(), db.size());
      SEQHIDE_TELEMETRY(kStage, "select.done", victims.size(), num_patterns);
      rng_after_select = rng.SaveState();
      selection_done = true;

      victim_support.assign(victims.size() * num_patterns, 0);
      for (size_t i = 0; i < victims.size(); ++i) {
        for (size_t p = 0; p < num_patterns; ++p) {
          if (info[victims[i]].pattern_support[p]) {
            victim_support[i * num_patterns + p] = 1;
          }
        }
      }
      marked.assign(victims.size(), Sequence());
      marks.assign(victims.size(), 0);
      positions.assign(victims.size(), {});
      skipped.assign(victims.size(), 0);
    }
  }

  const size_t round_size = opts.mark_round_size;
  const size_t rounds_total =
      victims.empty() ? 0 : (victims.size() + round_size - 1) / round_size;
  report.rounds_total = rounds_total;
  size_t rounds_completed = start_round;

  // Serializes current progress to opts.checkpoint_path. `counted` writes
  // are the periodic cadence shared by every run of these inputs (and are
  // reflected in the stored count *and* metrics before the snapshot is
  // taken, so a resumed run's final totals equal an uninterrupted run's);
  // the final budget-stop write is uncounted. A write failure is logged
  // and ignored — checkpointing is recovery machinery and must never take
  // down the run it protects.
  auto write_checkpoint = [&](size_t completed_rounds, bool counted) {
    if (!checkpointing) return;
    if (counted) {
      ++checkpoints_written;
      SEQHIDE_COUNTER_INC("sanitize.checkpoints_written");
    }
    CheckpointState state;
    state.fingerprint = fingerprint;
    state.rounds_completed = completed_rounds;
    state.checkpoints_written = checkpoints_written;
    state.rng_state = rng_after_select;
    state.sequences_supporting_before = report.sequences_supporting_before;
    state.count_rows = report.count_rows;
    state.supports_before.assign(report.supports_before.begin(),
                                 report.supports_before.end());
    state.victims.assign(victims.begin(), victims.end());
    state.num_patterns = num_patterns;
    state.victim_pattern_support = victim_support;
    const size_t completed_victims =
        std::min(victims.size(), completed_rounds * round_size);
    state.completed.resize(completed_victims);
    for (size_t i = 0; i < completed_victims; ++i) {
      state.completed[i].skipped = skipped[i];
      state.completed[i].marked_positions.assign(positions[i].begin(),
                                                 positions[i].end());
    }
    state.metrics = obs::MetricsRegistry::Default().Snapshot();
    Status s = WriteCheckpoint(opts.checkpoint_path, state);
    if (!s.ok()) {
      SEQHIDE_LOG(Warn) << "checkpoint write failed (continuing): "
                        << s.ToString();
    }
    SEQHIDE_TELEMETRY(kCheckpoint, counted ? "write" : "write.final",
                      completed_rounds, checkpoints_written);
  };

  // First checkpoint right after selection: the expensive count stage is
  // now durable. Written before the after-select boundary checks so a
  // stop there still leaves resumable state on disk.
  if (!resumed && selection_done) write_checkpoint(0, /*counted=*/true);
  if (selection_done && stop == StatusCode::kOk) {
    if (SEQHIDE_FAULT_HIT("sanitize.after_select")) {
      stop = StatusCode::kCancelled;
    }
    if (stop == StatusCode::kOk) stop = budget_stop();
  }

  // Stage 3: destroy all matchings inside each victim, in rounds of
  // round_size. Victims are independent, so each round row-partitions
  // over the pool; a per-victim generator keyed on (seed, sequence index)
  // plus per-victim mark slots make the result identical for any thread
  // count — and independent of where rounds start, so a resumed run
  // reproduces an uninterrupted one exactly.
  {
    obs::ScopedTimer stage_timer(&report.stages.mark_seconds);
    SEQHIDE_TRACE_SPAN("mark");
    for (size_t round = start_round;
         stop == StatusCode::kOk && round < rounds_total; ++round) {
      const size_t vbegin = round * round_size;
      const size_t vend = std::min(victims.size(), vbegin + round_size);
      ThreadPool::Shared().ParallelFor(
          vend - vbegin, threads, [&](size_t begin, size_t end) {
            MatchScratch scratch;
            scratch.max_table_bytes = budget.max_table_bytes;
            for (size_t i = begin; i < end; ++i) {
              const size_t vi = vbegin + i;
              const size_t t = victims[vi];
              marked[vi] = db.row(t).Materialize();
              Rng local_rng(opts.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
              LocalSanitizeResult local =
                  SanitizeSequence(&marked[vi], patterns, constraints,
                                   opts.local, &local_rng, &scratch);
              SEQHIDE_DCHECK(local.exhausted || local.marks_introduced > 0)
                  << "selected sequence had no matchings";
              marks[vi] = local.marks_introduced;
              positions[vi] = std::move(local.marked_positions);
              skipped[vi] = local.exhausted ? 1 : 0;
            }
          });
      rounds_completed = round + 1;
      SEQHIDE_TELEMETRY(kRound, "mark.round", rounds_completed, rounds_total);
      if (rounds_completed < rounds_total) {
        // Between-round boundary: the periodic checkpoint first, then the
        // injected fault, then the real budgets. The periodic write must
        // precede the stop checks — it is part of the cadence every run
        // of these inputs shares, so a budget stop at a cadence boundary
        // must not swallow it (the resumed run would otherwise end with
        // fewer counted checkpoints than an uninterrupted one). Nothing
        // here runs after the last round — a deadline that expires once
        // the work is already done must not mark the run degraded.
        if (checkpointing &&
            rounds_completed % opts.checkpoint_every_rounds == 0) {
          write_checkpoint(rounds_completed, /*counted=*/true);
        }
        if (SEQHIDE_FAULT_HIT("sanitize.mark_round")) {
          stop = StatusCode::kCancelled;
        }
        if (stop == StatusCode::kOk) stop = budget_stop();
        if (stop == StatusCode::kOk && budget.max_mark_rounds > 0 &&
            rounds_completed - start_round >= budget.max_mark_rounds) {
          stop = StatusCode::kResourceExhausted;
        }
      }
    }
    // A budget stop with selection done leaves a final (uncounted)
    // checkpoint so a later --resume run can finish the job. Written
    // inside the mark span so the snapshot's span counts line up with
    // what the resumed run will add.
    if (stop != StatusCode::kOk && selection_done) {
      write_checkpoint(rounds_completed, /*counted=*/false);
    }
  }
  SEQHIDE_TELEMETRY(kStage, "mark.done", rounds_completed, rounds_total);

  // Aggregate the processed prefix of the victim list; its marked copies
  // are the overlay, and `after` reads the database through it.
  const size_t processed =
      std::min(victims.size(), rounds_completed * round_size);
  result.overlay.reserve(processed);
  for (size_t i = 0; i < processed; ++i) {
    report.marks_introduced += marks[i];
    if (marks[i] > 0) ++report.sequences_sanitized;
    if (skipped[i]) ++report.victims_skipped;
    result.overlay.emplace_back(victims[i], std::move(marked[i]));
  }
  const DatabaseView after = db.Overlay(result.overlay);
  report.rounds_completed = rounds_completed;
  report.checkpoints_written = checkpoints_written;

  const bool stopped_early = rounds_completed < rounds_total || !selection_done;
  report.degraded = stopped_early || report.victims_skipped > 0;
  report.stop_reason = stop != StatusCode::kOk
                           ? stop
                           : (report.degraded ? StatusCode::kResourceExhausted
                                              : StatusCode::kOk);
  if (report.degraded) {
    SEQHIDE_TELEMETRY(kBudget, StatusCodeToString(report.stop_reason),
                      rounds_completed, report.victims_skipped);
    SEQHIDE_COUNTER_INC("sanitize.degraded_runs");
    SEQHIDE_LOG(Warn) << "sanitization degraded ("
                      << StatusCodeToString(report.stop_reason) << "): "
                      << rounds_completed << "/" << rounds_total
                      << " rounds, " << report.victims_skipped
                      << " victims skipped";
  }

  {
    obs::ScopedTimer stage_timer(&report.stages.verify_seconds);
    SEQHIDE_TRACE_SPAN("verify");
    if (SEQHIDE_FAULT_HIT("sanitize.verify")) {
      return Status::Cancelled("injected fault: sanitize.verify");
    }
    // Incremental supports-after: marking replaces symbols with Δ inside
    // victims only, and Δ never creates a matching, so a non-victim
    // supports pattern p after exactly iff it did before. Only the
    // victims need recounting:
    //   after[p] = before[p] − (victims supporting p before)
    //                        + (victims still supporting p now).
    // Victims the run never reached (budget stop) simply still support
    // whatever they supported before, so the identity holds for degraded
    // runs too — supports_after is exact, not an estimate.
    std::vector<uint8_t> victim_still_supports(victims.size() * num_patterns,
                                               0);
    SEQHIDE_COUNTER_ADD("sanitize.verify_recount_rows", victims.size());
    report.verify_recount_rows = victims.size();
    ThreadPool::Shared().ParallelFor(
        victims.size(), threads, [&](size_t begin, size_t end) {
          MatchScratch scratch;
          for (size_t i = begin; i < end; ++i) {
            const size_t t = victims[i];
            for (size_t p = 0; p < num_patterns; ++p) {
              if (!victim_support[i * num_patterns + p]) continue;
              if (match_kernel.HasMatch(p, after.row(t), &scratch)) {
                victim_still_supports[i * num_patterns + p] = 1;
              }
            }
          }
        });
    report.supports_after.assign(num_patterns, 0);
    for (size_t p = 0; p < num_patterns; ++p) {
      size_t lost = 0, kept = 0;
      for (size_t i = 0; i < victims.size(); ++i) {
        if (victim_support[i * num_patterns + p]) ++lost;
        if (victim_still_supports[i * num_patterns + p]) ++kept;
      }
      report.supports_after[p] = report.supports_before[p] - lost + kept;
    }

    auto limit_for = [&](size_t p) {
      return opts.per_pattern_psi.empty() ? opts.psi : opts.per_pattern_psi[p];
    };
    if (report.degraded) {
      for (size_t p = 0; p < num_patterns; ++p) {
        if (report.supports_after[p] > limit_for(p)) {
          report.exposed.push_back(
              ExposedPattern{p, report.supports_after[p], limit_for(p)});
        }
      }
    }

    if (opts.verify) {
      // Full-rescan cross-check of the incremental bookkeeping, then the
      // disclosure requirement itself. The cross-check stays on in
      // degraded runs (the arithmetic must hold regardless); the
      // disclosure check is skipped — a degraded run *reports* exposure
      // through `exposed` instead of failing.
      const std::vector<size_t> rescans = RescanSupports(
          after, match_kernel, threads, &report.verify_rescan_rows);
      SEQHIDE_COUNTER_ADD("sanitize.scan_dp_rows", report.verify_rescan_rows);
      SEQHIDE_COUNTER_ADD("sanitize.verify_screen_pruned",
                          db.size() * num_patterns - report.verify_rescan_rows);
      for (size_t p = 0; p < num_patterns; ++p) {
        const size_t rescan = rescans[p];
        if (rescan != report.supports_after[p]) {
          return Status::Internal(
              "incremental supports-after mismatch for pattern " +
              std::to_string(p) + ": incremental " +
              std::to_string(report.supports_after[p]) + " vs full rescan " +
              std::to_string(rescan));
        }
        if (!report.degraded && rescan > limit_for(p)) {
          return Status::Internal(
              "disclosure requirement violated after sanitization: pattern " +
              std::to_string(p) + " has support " + std::to_string(rescan) +
              " > " + std::to_string(limit_for(p)));
        }
      }
    }
  }

  SEQHIDE_TELEMETRY(kStage, "verify.done", report.verify_recount_rows,
                    report.verify_rescan_rows);

  // A completed run owes nobody a resume; drop the checkpoint so a stale
  // file can never hijack a future run of different inputs. Degraded
  // stops keep theirs — that file is the whole point.
  if (checkpointing && !stopped_early) {
    std::remove(opts.checkpoint_path.c_str());
  }

  report.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

Result<SanitizeReport> Sanitize(SequenceDatabase* db,
                                const std::vector<Sequence>& patterns,
                                const std::vector<ConstraintSpec>& constraints,
                                const SanitizeOptions& opts) {
  SEQHIDE_CHECK(db != nullptr);
  SEQHIDE_ASSIGN_OR_RETURN(
      SanitizeResult result,
      SanitizeView(DatabaseView(*db), patterns, constraints, opts));
  for (auto& [t, row] : result.overlay) {
    *db->mutable_sequence(t) = std::move(row);
  }
  return std::move(result.report);
}

Result<SanitizeReport> Sanitize(SequenceDatabase* db,
                                const std::vector<Sequence>& patterns,
                                const SanitizeOptions& opts) {
  return Sanitize(db, patterns, {}, opts);
}

}  // namespace seqhide
