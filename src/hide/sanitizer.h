// Sanitizer: the paper's Algorithm 1 — the end-to-end polynomial
// sanitization pipeline for the Sequence Hiding Problem (Problem 1).
//
// Given a database D, sensitive patterns S_h (optionally with occurrence
// constraints, §5), and a disclosure threshold ψ:
//   1. compute the (constrained) matching-set size of every T ∈ D
//      (Lemma 2 / Lemmas 4-5 DPs);
//   2. choose which sequences to sanitize (global stage, hide/global.h);
//   3. destroy every matching in each chosen sequence by marking positions
//      (local stage, hide/local.h);
//   4. verify the disclosure requirement on the result.
// The result satisfies sup_{D'}(S_i) ≤ ψ for every sensitive pattern.
//
// This header is the main public entry point of the library.

#ifndef SEQHIDE_HIDE_SANITIZER_H_
#define SEQHIDE_HIDE_SANITIZER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/constraints/constraints.h"
#include "src/hide/options.h"
#include "src/seq/database.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// Wall time of each stage of Algorithm 1 (seconds). Populated by every
// sanitize run unconditionally — stage timing is a few clock reads per
// call, cheap enough to keep even in SEQHIDE_OBS_DISABLED builds.
struct StageTimings {
  // Stage 1: per-sequence matching-set sizes (Lemma 2 / Lemma 4 DPs),
  // including the supports-before scan.
  double count_seconds = 0.0;
  // Stage 2: global victim selection.
  double select_seconds = 0.0;
  // Stage 3: per-victim local marking loop.
  double mark_seconds = 0.0;
  // Supports-after scan + disclosure re-check (opts.verify).
  double verify_seconds = 0.0;
};

// A sensitive pattern whose support still exceeds its threshold after a
// degraded (budget-stopped) run.
struct ExposedPattern {
  size_t pattern_index = 0;
  // Support in the partially sanitized database.
  size_t residual_support = 0;
  // The threshold it should have been brought under (ψ or the pattern's
  // per_pattern_psi entry).
  size_t limit = 0;
};

// What happened during one sanitize run.
struct SanitizeReport {
  // Total Δ symbols introduced — the paper's M1 data-distortion measure.
  size_t marks_introduced = 0;

  // Number of sequences that were modified.
  size_t sequences_sanitized = 0;

  // Number of sequences that had at least one (constrained) matching
  // before sanitization (= the disjunctive support of S_h).
  size_t sequences_supporting_before = 0;

  // Per-pattern supports before/after (unconstrained support when the
  // pattern is unconstrained; constrained-match support otherwise).
  std::vector<size_t> supports_before;
  std::vector<size_t> supports_after;

  double elapsed_seconds = 0.0;

  // Where elapsed_seconds went, stage by stage.
  StageTimings stages;

  // Parallel configuration and per-stage row workloads. threads_used is
  // the resolved worker bound (after 0 = auto); the row totals are
  // deterministic — identical for every thread count — so rows/worker
  // (the load-balance figure) is rows / threads_used.
  //
  // count_rows: (sequence, pattern) pairs stage 1 evaluated — the pairs
  // whose row signature admits the pattern (src/seq/signature.h); the
  // other |D|·|S| − count_rows pairs count 0 with no DP.
  // verify_recount_rows: victim rows recounted for the incremental
  // supports-after. verify_rescan_rows: (sequence, pattern) pairs the
  // opts.verify full rescan evaluated, screened the same way by a
  // signature it recomputes from each released row (0 when
  // verify=false).
  size_t threads_used = 1;
  size_t count_rows = 0;
  size_t verify_recount_rows = 0;
  size_t verify_rescan_rows = 0;

  // Supporters whose stage-1 matching count saturated at kCountSaturated
  // (2^64 − 1, src/match/count.h; reached at Lemma 1 scale, e.g. a^32 in
  // a 128-symbol row of a). Their true |M| are not compared: when two or
  // more saturate, HH's ascending order (and the per-pattern-ψ
  // descending order) among them is row-index order. A resumed run does
  // not re-run stage 1 and reports 0 here.
  size_t saturated_rows = 0;

  // Resolved matching-kernel engine ("scalar"/"bitset"/"trie"; never
  // "auto") — what SanitizeOptions::kernel dispatched to. Purely
  // informational: every engine produces this identical report.
  std::string kernel_engine;

  // --- Robustness (RunBudget / checkpointing; see options.h) ---

  // True when a resource budget (or injected fault at a stage boundary)
  // stopped the run before every victim was sanitized. The report is then
  // *partial but honest*: marks already made are kept, supports_after is
  // exact for the partially sanitized database, and `exposed` lists the
  // patterns whose disclosure requirement is still unmet. A degraded run
  // returns OK — the caller inspects this flag — because the database is
  // in a valid, resumable state, not a broken one.
  bool degraded = false;
  // Why the run degraded: kResourceExhausted (table budget or round
  // limit), kDeadlineExceeded, or kCancelled. kOk when !degraded.
  StatusCode stop_reason = StatusCode::kOk;
  // Patterns with residual_support > limit; empty when !degraded.
  std::vector<ExposedPattern> exposed;

  // Mark-stage rounds (of SanitizeOptions::mark_round_size victims).
  // rounds_completed < rounds_total iff the run stopped early.
  size_t rounds_completed = 0;
  size_t rounds_total = 0;
  // Victims whose DP tables exceeded RunBudget::max_table_bytes; their
  // partial marks are kept but they may still hold matchings.
  size_t victims_skipped = 0;
  // Periodic checkpoints written (the final stop-write is not counted).
  size_t checkpoints_written = 0;
  // True when this run continued from a loaded checkpoint.
  bool resumed = false;

  std::string ToString() const;
};

// Outcome of SanitizeView(): the report plus the overlay that turns the
// input view into the sanitized database.
struct SanitizeResult {
  SanitizeReport report;
  // (row index, sanitized row) for every victim the mark stage processed,
  // ascending by row index. Rows not listed are unchanged; read the
  // result through DatabaseView::Overlay(overlay). A budget-stopped run
  // lists only the victims of completed rounds.
  std::vector<std::pair<size_t, Sequence>> overlay;
};

// The one Algorithm 1 pipeline: count → select → mark → verify over a
// read-only view, in-memory or memory-mapped alike. The view is never
// written — each victim is marked in a private copy — so the count and
// select stages run zero-copy off a mapping, and a server can run many
// requests concurrently against one shared image. `constraints` must be
// empty (all patterns unconstrained) or parallel to `patterns`.
//
// Every random choice is keyed on the seed and row index only (victim
// selection draws from Rng(seed) after the count stage; victim t marks
// with Rng(seed ^ (golden_ratio * (t + 1)))), so the result depends on
// the view's rows and alphabet, never on how they are stored. The same
// holds for checkpoints: ComputeRunFingerprint reads the view, and
// resume replays the stored marks into fresh copies of the victims'
// rows, so a run checkpointed on an in-memory database resumes on its
// seqhidb image and vice versa.
//
// Errors: as Sanitize() below.
Result<SanitizeResult> SanitizeView(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints,
    const SanitizeOptions& opts);

// Sanitizes `db` in place: SanitizeView() on DatabaseView(*db), then the
// overlay rows are moved into `db`. On error `db` is left unchanged.
// `constraints` must be empty (all patterns unconstrained) or parallel
// to `patterns`.
//
// Errors:
//   InvalidArgument — empty/duplicate patterns, a pattern containing Δ,
//                     malformed constraints, mismatched per-pattern ψ list,
//                     options rejected by SanitizeOptions::Validate().
//   Internal        — post-verification failed (only with opts.verify):
//                     either a pattern's support still exceeds its ψ, or
//                     the full-rescan cross-check disagrees with the
//                     incremental supports-after.
Result<SanitizeReport> Sanitize(SequenceDatabase* db,
                                const std::vector<Sequence>& patterns,
                                const std::vector<ConstraintSpec>& constraints,
                                const SanitizeOptions& opts);

// Convenience overload: no constraints.
Result<SanitizeReport> Sanitize(SequenceDatabase* db,
                                const std::vector<Sequence>& patterns,
                                const SanitizeOptions& opts);

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_SANITIZER_H_
