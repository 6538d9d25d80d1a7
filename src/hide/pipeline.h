// The one Algorithm 1 pipeline (paper §4), instantiated per pattern
// language policy L (src/match/language.h): plain sequences
// (SanitizeView, sanitizer.h), and itemset (§7.1), timed (§7.2) and class
// (§8) rows (SanitizeRows below). Count (ComputeMatchInfo, global.h) →
// select (global.h) → mark (SanitizeLanguageRow, local.h, in rounds with
// budgets, fault sites and checkpoints between them) → verify (the
// incremental supports-after over the victims, and a full rescan that
// must agree with it).
//
// Only the rows and the kernel differ. Plain sequences read a
// DatabaseView (in-memory or mapped) through MatchKernel, whose trie and
// row-signature screen count the unconstrained patterns in one pass; the
// other languages read a std::vector<L::Row> through LanguageRows and
// LanguageKernel<L>. Both kernels are plain values: no virtual call or
// std::function runs inside a DP loop.
//
// A language adds, beside its policy, an overload of
//   Status ValidatePattern(const L::Pattern&, const L::Spec&)
// and may overload MarkPosition (local.h) for a finer mark than clearing
// the whole position; both are found by argument-dependent lookup.
//
// Sequence-only, rejected with InvalidArgument for the other languages:
// LocalStrategy::kExhaustive (hitting_set.h searches symbol rows), the
// length and autocorrelation global orderings (global.h reads them off a
// DatabaseView), and checkpoints: resume replays stored positions with
// Row::Mark, while an itemset mark removes items by trial, and the run
// fingerprint (checkpoint.h) hashes symbol rows. Stage 2
// (second_stage.h) reads a sequence database.

#ifndef SEQHIDE_HIDE_PIPELINE_H_
#define SEQHIDE_HIDE_PIPELINE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/hide/checkpoint.h"
#include "src/hide/global.h"
#include "src/hide/local.h"
#include "src/hide/options.h"
#include "src/hide/sanitizer.h"
#include "src/match/count.h"
#include "src/match/language.h"
#include "src/match/scratch.h"
#include "src/obs/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry/telemetry.h"
#include "src/obs/trace.h"
#include "src/seq/view.h"

namespace seqhide {

// A language's rows as the pipeline reads them: a vector with an optional
// sparse overlay of replacement rows, as DatabaseView is for symbol rows.
// Copying is O(1); the vector and the overlay must outlive every copy.
template <class Row>
class LanguageRows {
 public:
  explicit LanguageRows(const std::vector<Row>& rows) : rows_(&rows) {}

  size_t size() const { return rows_->size(); }
  bool empty() const { return rows_->empty(); }
  const Row& row(size_t t) const {
    if (overlay_ != nullptr) {
      const auto it = std::lower_bound(
          overlay_->begin(), overlay_->end(), t,
          [](const std::pair<size_t, Row>& e, size_t r) { return e.first < r; });
      if (it != overlay_->end() && it->first == t) return it->second;
    }
    return (*rows_)[t];
  }
  // No stored signatures: a language kernel screens nothing by signature.
  const uint64_t* signatures() const { return nullptr; }

  // These rows with `overlay[i].second` read in place of row
  // `overlay[i].first` (indices strictly ascending).
  LanguageRows Overlay(
      const std::vector<std::pair<size_t, Row>>& overlay) const {
    LanguageRows out = *this;
    out.overlay_ = &overlay;
    return out;
  }

 private:
  const std::vector<Row>* rows_;
  const std::vector<std::pair<size_t, Row>>* overlay_ = nullptr;
};

namespace pipeline_internal {

template <class L>
inline constexpr bool kSequenceRows = std::is_same_v<L, SequenceLanguage>;

// InvalidArgument for inputs no language can sanitize meaningfully, and
// for the options only plain sequences define.
template <class L, class Rows>
Status ValidateInputs(const Rows& db,
                      const std::vector<typename L::Pattern>& patterns,
                      const std::vector<typename L::Spec>& specs,
                      const SanitizeOptions& opts) {
  SEQHIDE_RETURN_IF_ERROR(opts.Validate());
  if (patterns.empty()) {
    return Status::InvalidArgument("no sensitive patterns given");
  }
  if (!specs.empty() && specs.size() != patterns.size()) {
    return Status::InvalidArgument(
        "constraints list must be empty or have one entry per pattern");
  }
  if (!opts.per_pattern_psi.empty() &&
      opts.per_pattern_psi.size() != patterns.size()) {
    return Status::InvalidArgument(
        "per_pattern_psi must be empty or have one entry per pattern");
  }
  if constexpr (!kSequenceRows<L>) {
    if (opts.local == LocalStrategy::kExhaustive) {
      return Status::InvalidArgument(
          "the exhaustive local strategy is defined on plain sequences only");
    }
    if (opts.global == GlobalStrategy::kAscendingLength ||
        opts.global == GlobalStrategy::kHighAutocorrelationFirst) {
      return Status::InvalidArgument("the " + ToString(opts.global) +
                                     " global ordering is defined on plain "
                                     "sequences only");
    }
    if (!opts.checkpoint_path.empty()) {
      return Status::InvalidArgument(
          "checkpoints are written for plain sequences only");
    }
  }
  for (size_t p = 0; p < patterns.size(); ++p) {
    SEQHIDE_RETURN_IF_ERROR(ValidatePattern(patterns[p], SpecAt(specs, p)));
    for (size_t q = 0; q < p; ++q) {
      if (patterns[q] == patterns[p]) {
        return Status::InvalidArgument(
            "sensitive patterns " + std::to_string(q) + " and " +
            std::to_string(p) +
            " are the same (duplicates would double-count matchings)");
      }
    }
  }
  if (db.empty()) return Status::OK();
  // ψ above |D| can never bind (no support exceeds the database size),
  // so it is always a configuration mistake — e.g. a threshold meant for
  // a larger dataset. Same for per-pattern thresholds.
  if (opts.per_pattern_psi.empty() && opts.psi > db.size()) {
    return Status::InvalidArgument(
        "psi = " + std::to_string(opts.psi) + " exceeds the database size (" +
        std::to_string(db.size()) + "); no pattern's support can be that large");
  }
  for (size_t p = 0; p < opts.per_pattern_psi.size(); ++p) {
    if (opts.per_pattern_psi[p] > db.size()) {
      return Status::InvalidArgument(
          "per_pattern_psi[" + std::to_string(p) + "] = " +
          std::to_string(opts.per_pattern_psi[p]) +
          " exceeds the database size (" + std::to_string(db.size()) + ")");
    }
  }
  // A pattern longer than every row has support 0 by construction; asking
  // to hide it is a mix-up between pattern and database files.
  size_t max_len = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    max_len = std::max(max_len, db.row(t).size());
  }
  for (size_t p = 0; p < patterns.size(); ++p) {
    if (patterns[p].size() > max_len) {
      return Status::InvalidArgument(
          "sensitive pattern " + std::to_string(p) + " has " +
          std::to_string(patterns[p].size()) +
          " elements but the longest database row has " +
          std::to_string(max_len) + "; it can never be supported");
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
template <class Rows, class Kernel>
std::vector<size_t> RescanSupports(const Rows& db, const Kernel& kernel,
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
          const auto& row = db.row(t);
          const uint64_t sig = kernel.Signature(row);
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

// Algorithm 1 over `db` for language L, read through a Kernel built from
// the patterns after they are validated. The rows are never written: each
// victim is marked in a private copy, returned in the overlay.
//
// Every random choice is keyed on the seed and row index only (victim
// selection draws from Rng(seed) after the count stage; victim t marks
// with Rng(seed ^ (golden_ratio * (t + 1)))), so the result depends on
// the rows, never on how they are stored or on the thread count. The same
// holds for checkpoints: the fingerprint reads the rows, and resume
// replays the stored marks into fresh copies of the victims' rows.
template <class L, class Kernel, class Rows>
Result<RowsSanitizeResult<typename L::Row>> RunAlgorithm1(
    const Rows& db, const std::vector<typename L::Pattern>& patterns,
    const std::vector<typename L::Spec>& specs, const SanitizeOptions& opts) {
  using Row = typename L::Row;
  SEQHIDE_RETURN_IF_ERROR(ValidateInputs<L>(db, patterns, specs, opts));

  Stopwatch timer;
  RowsSanitizeResult<Row> result;
  SanitizeReport& report = result.report;
  Rng rng(opts.seed);
  SEQHIDE_TRACE_SPAN("sanitize");
  SEQHIDE_COUNTER_INC("sanitize.runs");

  const size_t threads = ResolveThreadCount(opts.num_threads);
  report.threads_used = threads;
  const size_t num_patterns = patterns.size();
  const RunBudget& budget = opts.budget;
  const bool checkpointing = !opts.checkpoint_path.empty();

  // One kernel per run, shared read-only by the count and verify stages'
  // workers (for sequences, the trie built once from the pattern set).
  const Kernel match_kernel(patterns, specs);

  // A victim's private copy, the row its marks go into.
  auto copy_row = [&](size_t t) -> Row {
    if constexpr (kSequenceRows<L>) {
      return db.row(t).Materialize();
    } else {
      return db.row(t);
    }
  };

  uint64_t fingerprint = 0;
  if constexpr (kSequenceRows<L>) {
    if (checkpointing) {
      fingerprint = ComputeRunFingerprint(db, patterns, specs, opts);
    }
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
  // rows are never written: each victim is marked in its own private
  // copy, which becomes that row of the returned overlay.
  std::vector<Row> marked;
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

    marked.assign(victims.size(), Row());
    marks.assign(victims.size(), 0);
    positions.assign(victims.size(), {});
    skipped.assign(victims.size(), 0);
    // Replay the completed victims' marks onto fresh copies of their rows.
    for (size_t i = 0; i < ck.completed.size(); ++i) {
      const size_t t = victims[i];
      if (t >= db.size()) {
        return Status::Corruption("checkpoint victim index out of range");
      }
      marked[i] = copy_row(t);
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
    // Stage 1 of Algorithm 1: matching-set sizes for every row,
    // row-partitioned across the pool (ComputeMatchInfo), kept for the
    // supporters only. The per-pattern supports fall out of the same
    // pass — pattern_support[p] is exactly "this row supports pattern
    // p" — so no separate supports-before scan is needed.
    std::vector<SequenceMatchInfo> info;
    {
      obs::ScopedTimer stage_timer(&report.stages.count_seconds);
      SEQHIDE_TRACE_SPAN("count");
      info = ComputeMatchInfo(db, match_kernel, threads, &report.count_rows);
      SEQHIDE_COUNTER_ADD("sanitize.count_screen_pruned",
                          db.size() * num_patterns - report.count_rows);
      report.supports_before.assign(num_patterns, 0);
      report.sequences_supporting_before = info.size();
      for (const auto& i : info) {
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
          // Only the sequence-only orderings read the view.
          DatabaseView ordering;
          if constexpr (kSequenceRows<L>) ordering = db;
          victims = SelectSequencesToSanitize(ordering, info, opts.global,
                                              opts.psi, &rng);
        }
      }
      SEQHIDE_GAUGE_SET("sanitize.victims", victims.size());
      SEQHIDE_TELEMETRY(kVictims, "selected", victims.size(), db.size());
      SEQHIDE_TELEMETRY(kStage, "select.done", victims.size(), num_patterns);
      rng_after_select = rng.SaveState();
      selection_done = true;

      // `info` lists the supporters in row order, and every victim is one
      // of them: find each victim's entry by binary search.
      victim_support.assign(victims.size() * num_patterns, 0);
      for (size_t i = 0; i < victims.size(); ++i) {
        const auto entry = std::lower_bound(
            info.begin(), info.end(), victims[i],
            [](const SequenceMatchInfo& s, size_t t) { return s.index < t; });
        SEQHIDE_CHECK(entry != info.end() && entry->index == victims[i]);
        for (size_t p = 0; p < num_patterns; ++p) {
          if (entry->pattern_support[p]) {
            victim_support[i * num_patterns + p] = 1;
          }
        }
      }
      marked.assign(victims.size(), Row());
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
  // over the pool; a per-victim generator keyed on (seed, row index)
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
              marked[vi] = copy_row(t);
              Rng local_rng(opts.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
              LocalSanitizeResult local;
              if constexpr (kSequenceRows<L>) {
                local = SanitizeSequence(&marked[vi], patterns, specs,
                                         opts.local, &local_rng, &scratch);
              } else {
                local = SanitizeLanguageRow<L>(&marked[vi], patterns, specs,
                                               opts.local, &local_rng,
                                               &scratch);
              }
              SEQHIDE_DCHECK(local.exhausted || local.marks_introduced > 0)
                  << "selected row had no matchings";
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
  // are the overlay, and `after` reads the rows through it.
  const size_t processed =
      std::min(victims.size(), rounds_completed * round_size);
  result.overlay.reserve(processed);
  for (size_t i = 0; i < processed; ++i) {
    report.marks_introduced += marks[i];
    if (marks[i] > 0) ++report.sequences_sanitized;
    if (skipped[i]) ++report.victims_skipped;
    result.overlay.emplace_back(victims[i], std::move(marked[i]));
  }
  const Rows after = db.Overlay(result.overlay);
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
    // Incremental supports-after: marking only removes matchings inside
    // victims and creates none, so a non-victim supports pattern p after
    // exactly iff it did before. Only the victims need recounting:
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

}  // namespace pipeline_internal

// Algorithm 1 over the rows of the itemset (§7.1), timed (§7.2) or class
// (§8) language L, in place: every victim's marked copy replaces its row.
// On error *rows is unchanged. `specs` is empty (all unconstrained) or
// parallel to `patterns`. Threads, budgets and the verify rescan work as
// for SanitizeView; an itemset report counts removed items as marks.
//
// Errors: as Sanitize() (sanitizer.h), plus InvalidArgument for
// LocalStrategy::kExhaustive, the length and autocorrelation global
// orderings and a checkpoint path, which are plain-sequence features.
template <class L>
Result<SanitizeReport> SanitizeRows(
    std::vector<typename L::Row>* rows,
    const std::vector<typename L::Pattern>& patterns,
    const std::vector<typename L::Spec>& specs, const SanitizeOptions& opts) {
  static_assert(!pipeline_internal::kSequenceRows<L>,
                "plain sequences run SanitizeView, with the trie and the "
                "signature screen");
  SEQHIDE_CHECK(rows != nullptr);
  SEQHIDE_ASSIGN_OR_RETURN(
      auto result,
      (pipeline_internal::RunAlgorithm1<L, LanguageKernel<L>>(
          LanguageRows<typename L::Row>(*rows), patterns, specs, opts)));
  for (auto& [t, row] : result.overlay) (*rows)[t] = std::move(row);
  return std::move(result.report);
}

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_PIPELINE_H_
