#include "src/hide/global.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/scratch.h"
#include "src/obs/macros.h"
#include "src/seq/signature.h"

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
  return ComputeMatchInfo(db, patterns, constraints, /*num_threads=*/1);
}

std::vector<SequenceMatchInfo> ComputeMatchInfo(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, size_t num_threads) {
  const MatchKernel kernel(patterns, constraints, KernelEngine::kAuto);
  return ComputeMatchInfo(db, patterns, constraints, num_threads, kernel);
}

std::vector<SequenceMatchInfo> ComputeMatchInfo(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, size_t num_threads,
    const MatchKernel& kernel, size_t* admitted_pairs) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  SEQHIDE_TRACE_SPAN("compute_match_info");
  SEQHIDE_COUNTER_ADD("global.match_info_rows", db.size() * patterns.size());
  const size_t num_patterns = patterns.size();
  const uint64_t* signatures = db.signatures();
  std::vector<SequenceMatchInfo> info(db.size());
  const uint64_t admitted = ThreadPool::Shared().ParallelReduceSum(
      db.size(), num_threads, [&](size_t begin, size_t end) -> uint64_t {
        // One scratch per chunk: warm across the chunk's rows, and never
        // shared between workers. The kernel itself is immutable shared
        // state (masks/trie built once, read concurrently).
        MatchScratch scratch;
        uint64_t pairs = 0;
        for (size_t t = begin; t < end; ++t) {
          info[t].index = t;
          const SequenceView row = db.row(t);
          const uint64_t sig =
              signatures != nullptr ? signatures[t] : SequenceSignature(row);
          size_t row_pairs = 0;
          for (size_t p = 0; p < num_patterns; ++p) {
            if (kernel.Admits(p, sig)) ++row_pairs;
          }
          if (row_pairs == 0) continue;
          pairs += row_pairs;
          std::vector<uint64_t>& counts = scratch.pattern_counts;
          info[t].matching_count = kernel.CountRow(row, sig, &scratch, &counts);
          if (info[t].matching_count == 0) continue;
          info[t].pattern_support.resize(num_patterns);
          for (size_t p = 0; p < num_patterns; ++p) {
            info[t].pattern_support[p] = (counts[p] > 0);
          }
        }
        return pairs;
      });
  if (admitted_pairs != nullptr) {
    *admitted_pairs = static_cast<size_t>(admitted);
  }
  return info;
}

std::vector<size_t> SelectSequencesToSanitize(
    const DatabaseView& db, const std::vector<SequenceMatchInfo>& info,
    GlobalStrategy strategy, size_t psi, Rng* rng) {
  SEQHIDE_CHECK(strategy != GlobalStrategy::kRandom || rng != nullptr)
      << "the Random global strategy needs an Rng";

  std::vector<size_t> supporters;
  for (const auto& i : info) {
    if (i.matching_count > 0) supporters.push_back(i.index);
  }
  SEQHIDE_GAUGE_SET("global.supporters", supporters.size());
  if (supporters.size() <= psi) return {};  // already disclosed safely
  const size_t to_sanitize = supporters.size() - psi;
  SEQHIDE_GAUGE_SET("global.victims", to_sanitize);

  switch (strategy) {
    case GlobalStrategy::kHeuristic:
      // Ascending matching-set size; ties toward the smaller index.
      std::stable_sort(supporters.begin(), supporters.end(),
                       [&](size_t a, size_t b) {
                         return info[a].matching_count <
                                info[b].matching_count;
                       });
      break;
    case GlobalStrategy::kRandom:
      rng->Shuffle(&supporters);
      break;
    case GlobalStrategy::kAscendingLength:
      std::stable_sort(supporters.begin(), supporters.end(),
                       [&](size_t a, size_t b) {
                         return db[a].size() < db[b].size();
                       });
      break;
    case GlobalStrategy::kHighAutocorrelationFirst:
      std::stable_sort(supporters.begin(), supporters.end(),
                       [&](size_t a, size_t b) {
                         return AutocorrelationScore(db[a]) >
                                AutocorrelationScore(db[b]);
                       });
      break;
  }
  supporters.resize(to_sanitize);
  std::sort(supporters.begin(), supporters.end());
  return supporters;
}

std::vector<size_t> SelectSequencesToSanitizeMultiThreshold(
    const std::vector<SequenceMatchInfo>& info,
    const std::vector<size_t>& per_pattern_psi) {
  std::vector<size_t> supporters;
  for (const auto& i : info) {
    if (i.matching_count > 0) supporters.push_back(i.index);
  }
  // Most expensive sequences first: they are the ones worth keeping
  // unsanitized, so give them the first claim on the allowances.
  std::stable_sort(supporters.begin(), supporters.end(),
                   [&](size_t a, size_t b) {
                     return info[a].matching_count > info[b].matching_count;
                   });

  std::vector<size_t> allowance = per_pattern_psi;
  std::vector<size_t> to_sanitize;
  for (size_t t : supporters) {
    const auto& support = info[t].pattern_support;
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
      to_sanitize.push_back(t);
    }
  }
  std::sort(to_sanitize.begin(), to_sanitize.end());
  return to_sanitize;
}

}  // namespace seqhide
