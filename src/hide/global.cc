#include "src/hide/global.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

// Fraction of unmarked symbols that are repeats of an earlier symbol in
// the same sequence; our instantiation of the paper's "auto-correlation"
// sketch (§8): the more repetitive a sequence, the fewer distinct
// subsequences it contributes, the cheaper it is to distort.
double AutocorrelationScore(SequenceView seq) {
  std::unordered_set<SymbolId> distinct;
  size_t real = 0;
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!IsRealSymbol(seq[i])) continue;
    ++real;
    distinct.insert(seq[i]);
  }
  if (real == 0) return 0.0;
  return 1.0 - static_cast<double>(distinct.size()) /
                   static_cast<double>(real);
}

}  // namespace

std::vector<SequenceMatchInfo> ComputeMatchInfo(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  const MatchKernel kernel(patterns, constraints);
  return ComputeMatchInfo(db, kernel, /*num_threads=*/1,
                          /*admitted_pairs=*/nullptr);
}

std::vector<size_t> SelectSequencesToSanitize(
    const DatabaseView& db, const std::vector<SequenceMatchInfo>& info,
    GlobalStrategy strategy, size_t psi, Rng* rng) {
  SEQHIDE_CHECK(strategy != GlobalStrategy::kRandom || rng != nullptr)
      << "the Random global strategy needs an Rng";

  // Positions in `info`, which lists the supporters in row order, so
  // every stable sort below breaks ties toward the smaller row index.
  std::vector<size_t> order(info.size());
  for (size_t k = 0; k < info.size(); ++k) order[k] = k;
  SEQHIDE_GAUGE_SET("global.supporters", order.size());
  if (order.size() <= psi) return {};  // already disclosed safely
  const size_t to_sanitize = order.size() - psi;
  SEQHIDE_GAUGE_SET("global.victims", to_sanitize);

  auto row_of = [&](size_t k) { return info[k].index; };
  switch (strategy) {
    case GlobalStrategy::kHeuristic:
      // Ascending matching-set size; ties toward the smaller index.
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return info[a].matching_count < info[b].matching_count;
      });
      break;
    case GlobalStrategy::kRandom:
      rng->Shuffle(&order);
      break;
    case GlobalStrategy::kAscendingLength:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return db[row_of(a)].size() < db[row_of(b)].size();
      });
      break;
    case GlobalStrategy::kHighAutocorrelationFirst:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return AutocorrelationScore(db[row_of(a)]) >
               AutocorrelationScore(db[row_of(b)]);
      });
      break;
  }
  order.resize(to_sanitize);
  std::vector<size_t> victims;
  victims.reserve(to_sanitize);
  for (size_t k : order) victims.push_back(row_of(k));
  std::sort(victims.begin(), victims.end());
  return victims;
}

std::vector<size_t> SelectSequencesToSanitizeMultiThreshold(
    const std::vector<SequenceMatchInfo>& info,
    const std::vector<size_t>& per_pattern_psi) {
  // Positions in `info` (supporters in row order). Most expensive
  // sequences first: they are the ones worth keeping unsanitized, so
  // give them the first claim on the allowances.
  std::vector<size_t> order(info.size());
  for (size_t k = 0; k < info.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return info[a].matching_count > info[b].matching_count;
  });

  std::vector<size_t> allowance = per_pattern_psi;
  std::vector<size_t> to_sanitize;
  for (size_t k : order) {
    const auto& support = info[k].pattern_support;
    SEQHIDE_CHECK_EQ(support.size(), allowance.size());
    bool can_keep = true;
    for (size_t p = 0; p < support.size(); ++p) {
      if (support[p] && allowance[p] == 0) {
        can_keep = false;
        break;
      }
    }
    if (can_keep) {
      for (size_t p = 0; p < support.size(); ++p) {
        if (support[p]) --allowance[p];
      }
    } else {
      to_sanitize.push_back(info[k].index);
    }
  }
  std::sort(to_sanitize.begin(), to_sanitize.end());
  return to_sanitize;
}

}  // namespace seqhide
