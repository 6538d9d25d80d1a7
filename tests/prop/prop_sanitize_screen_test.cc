// Differential property for the sanitize pipeline's row-signature screen
// (src/seq/signature.h): SanitizeView must make the same decisions from
// whichever signatures the view carries. Each case runs one instance on
// three views of the same rows:
//   * the in-memory database, which carries none (the count stage
//     computes each row's signature itself);
//   * its seqhidb image with the signatures MappedDatabase::ValidateRows
//     builds (what the server attaches);
//   * that image with every signature all ones, which admits every
//     (row, pattern) pair: the unscreened scan.
// Overlays, written outputs and reports must be identical, apart from
// count_rows, the one figure the screen is allowed to move.
//
// The instances cover what a screen can get wrong: alphabets above 64
// symbols (distinct symbols share a bit), rows that already hold Δ (Δ
// shares bit 0 with symbol 63), constraints, per-pattern ψ, and a budget
// stop followed by a resume from the checkpoint it left.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/hide/sanitizer.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

GenOptions ScreenGen() {
  GenOptions gen;
  gen.min_sequences = 1;
  gen.max_sequences = 12;
  gen.min_length = 0;
  gen.max_length = 14;
  gen.min_alphabet = 2;
  gen.max_alphabet = 96;
  gen.delta_density = 0.1;
  gen.max_patterns = 3;
  return gen;
}

// Everything a run decides or reports except timings and count_rows.
std::string ReportDiff(const SanitizeReport& a, const SanitizeReport& b) {
  auto exposed_eq = [](const std::vector<ExposedPattern>& x,
                       const std::vector<ExposedPattern>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].pattern_index != y[i].pattern_index ||
          x[i].residual_support != y[i].residual_support ||
          x[i].limit != y[i].limit) {
        return false;
      }
    }
    return true;
  };
  if (a.marks_introduced != b.marks_introduced ||
      a.sequences_sanitized != b.sequences_sanitized ||
      a.sequences_supporting_before != b.sequences_supporting_before ||
      a.supports_before != b.supports_before ||
      a.supports_after != b.supports_after ||
      a.threads_used != b.threads_used ||
      a.verify_recount_rows != b.verify_recount_rows ||
      a.verify_rescan_rows != b.verify_rescan_rows ||
      a.saturated_rows != b.saturated_rows ||
      a.kernel_engine != b.kernel_engine || a.degraded != b.degraded ||
      a.stop_reason != b.stop_reason || !exposed_eq(a.exposed, b.exposed) ||
      a.rounds_completed != b.rounds_completed ||
      a.rounds_total != b.rounds_total ||
      a.victims_skipped != b.victims_skipped ||
      a.checkpoints_written != b.checkpoints_written ||
      a.resumed != b.resumed) {
    return a.ToString() + " vs " + b.ToString();
  }
  return "";
}

struct RunOutcome {
  Status status;
  SanitizeReport report;
  std::vector<std::pair<size_t, Sequence>> overlay;
  std::string text;  // the written output
};

RunOutcome RunOn(const DatabaseView& view, const PropInstance& inst,
                 const SanitizeOptions& opts) {
  RunOutcome run;
  auto result = SanitizeView(view, inst.patterns, inst.constraints, opts);
  run.status = result.status();
  if (!result.ok()) return run;
  run.report = result->report;
  run.overlay = std::move(result->overlay);
  std::ostringstream out;
  run.status = WriteDatabase(view.Overlay(run.overlay), out);
  run.text = out.str();
  return run;
}

// Per-pattern ψ and the budget stop are derived from the instance's own
// seed, so a shrunken or replayed case keeps them.
SanitizeOptions CaseOptions(const PropInstance& inst) {
  SanitizeOptions opts = inst.options;
  if (inst.options.seed % 3 == 1) {
    opts.per_pattern_psi.clear();
    for (size_t p = 0; p < inst.patterns.size(); ++p) {
      opts.per_pattern_psi.push_back((inst.options.seed >> (8 * p)) %
                                     (inst.db.size() + 1));
    }
  }
  return opts;
}

TEST(SanitizeScreenProps, SignatureSourceNeverChangesARun) {
  PropConfig config;
  config.name = "sanitize/screen-signature-sources";
  config.seed = 0x5c4ee17;
  config.cases = 150;
  config.gen = ScreenGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto bytes = WriteBinaryDatabaseToString(inst.db);
    if (!bytes.ok()) return "write failed: " + bytes.status().ToString();
    auto image = MappedDatabase::FromBuffer(*bytes, {});
    if (!image.ok()) return "open failed: " + image.status().ToString();
    std::vector<uint64_t> built;
    Status valid = image->ValidateRows(&built);
    if (!valid.ok()) return "ValidateRows: " + valid.ToString();
    const std::vector<uint64_t> ones(inst.db.size(), ~uint64_t{0});

    const DatabaseView views[3] = {DatabaseView(inst.db),
                                   image->view().WithSignatures(built),
                                   image->view().WithSignatures(ones)};
    const char* names[3] = {"in-memory", "image", "all-ones"};
    const size_t all_pairs = inst.db.size() * inst.patterns.size();

    const SanitizeOptions opts = CaseOptions(inst);
    // The budget-stop leg: one victim per round, one round per run, then
    // a resume from the checkpoint that run left.
    const bool budget_leg = inst.options.seed % 3 == 2;
    std::vector<std::vector<RunOutcome>> legs(3);
    for (size_t v = 0; v < 3; ++v) {
      if (!budget_leg) {
        legs[v].push_back(RunOn(views[v], inst, opts));
        continue;
      }
      const std::string ckpt = ::testing::TempDir() + "screen_prop_" +
                               std::to_string(v) + ".ckpt";
      std::remove(ckpt.c_str());
      SanitizeOptions stop = opts;
      stop.mark_round_size = 1;
      stop.budget.max_mark_rounds = 1;
      stop.checkpoint_path = ckpt;
      legs[v].push_back(RunOn(views[v], inst, stop));
      SanitizeOptions resume = stop;
      resume.budget.max_mark_rounds = 0;
      resume.resume = true;
      legs[v].push_back(RunOn(views[v], inst, resume));
      std::remove(ckpt.c_str());
    }

    for (size_t leg = 0; leg < legs[0].size(); ++leg) {
      const RunOutcome& base = legs[0][leg];
      for (size_t v = 1; v < 3; ++v) {
        const RunOutcome& run = legs[v][leg];
        const std::string what = std::string(names[v]) + " vs " + names[0] +
                                 " (run " + std::to_string(leg) + ")";
        if (run.status.code() != base.status.code()) {
          return what + ": status " + run.status.ToString() + " vs " +
                 base.status.ToString();
        }
        if (!base.status.ok()) continue;
        const std::string diff = ReportDiff(run.report, base.report);
        if (!diff.empty()) return what + ": report " + diff;
        if (run.overlay != base.overlay) return what + ": overlays differ";
        if (run.text != base.text) return what + ": outputs differ";
      }
      if (!base.status.ok() || base.report.resumed) continue;
      // The screen only ever removes pairs, the signatures built at load
      // remove exactly the pairs a per-row recompute does, and all-ones
      // signatures remove none.
      if (legs[1][leg].report.count_rows != base.report.count_rows) {
        return std::string("image count_rows differs from in-memory");
      }
      if (legs[2][leg].report.count_rows != all_pairs) {
        return "all-ones count_rows " +
               std::to_string(legs[2][leg].report.count_rows) + " != " +
               std::to_string(all_pairs);
      }
      if (base.report.count_rows > all_pairs) {
        return std::string("count_rows exceeds |D|·|S|");
      }
    }
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
