#include "src/testing/shrinker.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace seqhide {
namespace proptest {

namespace {

// Rebuilds a Sequence without position `drop`.
Sequence WithoutSymbol(const Sequence& seq, size_t drop) {
  Sequence out;
  for (size_t i = 0; i < seq.size(); ++i) {
    if (i != drop) out.Append(seq[i]);
  }
  return out;
}

size_t MaxRowLength(const SequenceDatabase& db) {
  size_t max_len = 0;
  for (const Sequence& row : db.sequences()) {
    max_len = std::max(max_len, row.size());
  }
  return max_len;
}

// Keeps a mutated instance acceptable to Sanitize(): ψ may not exceed the
// (possibly smaller) database, patterns must be distinct, non-empty, and
// no longer than the longest row. Returns false when the mutation cannot
// be repaired by clamping alone and must be skipped.
bool RepairOrReject(PropInstance* inst) {
  for (size_t p = 0; p < inst->patterns.size(); ++p) {
    if (inst->patterns[p].empty()) return false;
    for (size_t q = p + 1; q < inst->patterns.size(); ++q) {
      if (inst->patterns[p] == inst->patterns[q]) return false;
    }
  }
  if (inst->patterns.empty()) return false;
  if (!inst->db.empty()) {
    inst->options.psi = std::min(inst->options.psi, inst->db.size());
    size_t max_len = MaxRowLength(inst->db);
    for (const Sequence& pattern : inst->patterns) {
      if (pattern.size() > max_len) return false;
    }
  }
  for (size_t p = 0; p < inst->constraints.size(); ++p) {
    if (!inst->constraints[p].Validate(inst->patterns[p].size()).ok()) {
      return false;
    }
  }
  return true;
}

PropInstance RemoveRow(const PropInstance& inst, size_t row) {
  PropInstance out = inst;
  SequenceDatabase db;
  db.alphabet() = inst.db.alphabet();
  for (size_t i = 0; i < inst.db.size(); ++i) {
    if (i != row) db.Add(inst.db[i]);
  }
  out.db = std::move(db);
  return out;
}

PropInstance RemoveRowSymbol(const PropInstance& inst, size_t row,
                             size_t pos) {
  PropInstance out = inst;
  *out.db.mutable_sequence(row) = WithoutSymbol(inst.db[row], pos);
  return out;
}

PropInstance RemovePattern(const PropInstance& inst, size_t p) {
  PropInstance out = inst;
  out.patterns.erase(out.patterns.begin() + static_cast<ptrdiff_t>(p));
  if (!out.constraints.empty()) {
    out.constraints.erase(out.constraints.begin() + static_cast<ptrdiff_t>(p));
  }
  return out;
}

PropInstance RemovePatternSymbol(const PropInstance& inst, size_t p,
                                 size_t pos) {
  PropInstance out = inst;
  out.patterns[p] = WithoutSymbol(inst.patterns[p], pos);
  // A per-arrow gap list is tied to the pattern arity: deleting symbol
  // `pos` merges its two incident arrows, so drop one bound to keep
  // gaps.size() == length - 1.
  if (p < out.constraints.size() && out.constraints[p].HasPerArrowGaps()) {
    size_t old_arrows = inst.patterns[p].size() - 1;
    std::vector<GapBound> gaps;
    size_t drop_arrow = std::min(pos, old_arrows - 1);
    for (size_t a = 0; a < old_arrows; ++a) {
      if (a != drop_arrow) gaps.push_back(inst.constraints[p].gap(a));
    }
    ConstraintSpec spec = gaps.empty() ? ConstraintSpec()
                                       : ConstraintSpec::PerArrow(gaps);
    if (inst.constraints[p].HasWindow()) {
      spec.SetMaxWindow(*inst.constraints[p].max_window());
    }
    out.constraints[p] = std::move(spec);
  }
  return out;
}

PropInstance Unconstrain(const PropInstance& inst, size_t p) {
  PropInstance out = inst;
  out.constraints[p] = ConstraintSpec();
  return out;
}

}  // namespace

ShrinkResult ShrinkInstance(const PropInstance& failing,
                            const PropPredicate& property,
                            size_t max_predicate_runs) {
  ShrinkResult result;
  result.instance = failing;

  // Evaluates one candidate; adopts it when the property still fails.
  auto try_adopt = [&](PropInstance candidate) -> bool {
    if (result.predicate_runs >= max_predicate_runs) {
      result.budget_exhausted = true;
      return false;
    }
    if (!RepairOrReject(&candidate)) return false;
    ++result.predicate_runs;
    if (property(candidate)) return false;  // property holds: not adopted
    result.instance = std::move(candidate);
    ++result.accepted_steps;
    return true;
  };

  bool progress = true;
  while (progress && !result.budget_exhausted) {
    progress = false;

    // Coarse first: whole sequences, then whole patterns, then
    // constraints and option complexity, then single symbols. Descending
    // index order keeps the remaining indices valid after a deletion.
    for (size_t row = result.instance.db.size(); row-- > 0;) {
      if (try_adopt(RemoveRow(result.instance, row))) progress = true;
    }
    for (size_t p = result.instance.patterns.size(); p-- > 0;) {
      if (result.instance.patterns.size() <= 1) break;
      if (try_adopt(RemovePattern(result.instance, p))) progress = true;
    }
    for (size_t p = result.instance.constraints.size(); p-- > 0;) {
      if (result.instance.constraints[p].IsUnconstrained()) continue;
      if (try_adopt(Unconstrain(result.instance, p))) progress = true;
    }

    if (result.instance.options.num_threads != 1) {
      PropInstance serial = result.instance;
      serial.options.num_threads = 1;
      if (try_adopt(std::move(serial))) progress = true;
    }
    if (result.instance.options.psi > 0) {
      PropInstance zero_psi = result.instance;
      zero_psi.options.psi = 0;
      if (try_adopt(std::move(zero_psi))) progress = true;
    }

    for (size_t row = result.instance.db.size(); row-- > 0;) {
      for (size_t pos = result.instance.db[row].size(); pos-- > 0;) {
        if (try_adopt(RemoveRowSymbol(result.instance, row, pos))) {
          progress = true;
        }
      }
    }
    for (size_t p = result.instance.patterns.size(); p-- > 0;) {
      for (size_t pos = result.instance.patterns[p].size(); pos-- > 0;) {
        if (result.instance.patterns[p].size() <= 1) break;
        if (try_adopt(RemovePatternSymbol(result.instance, p, pos))) {
          progress = true;
        }
      }
    }
  }
  return result;
}

}  // namespace proptest
}  // namespace seqhide
