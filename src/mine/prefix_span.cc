#include "src/mine/prefix_span.h"

#include <algorithm>
#include <cstdint>
#include <deque>

#include "src/obs/macros.h"

namespace seqhide {
namespace {

// One entry of a pseudo-projected database: row index + the position
// right after the leftmost embedding of the current prefix.
struct Projection {
  uint32_t row;
  uint32_t next_pos;
};

class PrefixSpanMiner {
 public:
  PrefixSpanMiner(const SequenceDatabase& db, const MinerOptions& opts)
      : db_(db), opts_(opts) {}

  Result<FrequentPatternSet> Mine() {
    if (opts_.min_support == 0) {
      return Status::InvalidArgument(
          "min_support must be >= 1 (sigma = 0 makes F(D,sigma) infinite)");
    }
    if (opts_.max_length != 0 && opts_.min_length > opts_.max_length) {
      return Status::InvalidArgument("min_length > max_length");
    }
    size_t positions = 0;
    for (const Sequence& row : db_.sequences()) positions += row.size();
    if (positions >= UINT32_MAX || db_.size() >= UINT32_MAX) {
      return Status::OutOfRange(
          "database too large for the miner's 32-bit projections");
    }
    std::vector<Projection> root = Densify();
    Status s = Grow(0, root);
    SEQHIDE_COUNTER_ADD("mine.prefixspan.grow_calls", grow_calls_);
    SEQHIDE_COUNTER_ADD("mine.prefixspan.projected_rows", projected_rows_);
    if (!s.ok()) return s;
    return std::move(result_);
  }

 private:
  // Copies the database into one flat array of dense symbol ranks with
  // the Δ positions dropped (they never match, so removing them keeps
  // every leftmost embedding). Ranks ascend with symbol ids, so visiting
  // ranks in order visits symbols in canonical order. Returns the root
  // projection: every row from position 0.
  std::vector<Projection> Densify() {
    for (const Sequence& row : db_.sequences()) {
      for (SymbolId s : row.symbols()) {
        if (IsRealSymbol(s)) rank_to_id_.push_back(s);
      }
    }
    flat_.reserve(rank_to_id_.size());
    std::sort(rank_to_id_.begin(), rank_to_id_.end());
    rank_to_id_.erase(std::unique(rank_to_id_.begin(), rank_to_id_.end()),
                      rank_to_id_.end());

    row_end_.reserve(db_.size());
    std::vector<Projection> root;
    root.reserve(db_.size());
    for (size_t i = 0; i < db_.size(); ++i) {
      root.push_back(Projection{static_cast<uint32_t>(i),
                                static_cast<uint32_t>(flat_.size())});
      for (SymbolId s : db_[i].symbols()) {
        if (!IsRealSymbol(s)) continue;
        flat_.push_back(static_cast<uint32_t>(
            std::lower_bound(rank_to_id_.begin(), rank_to_id_.end(), s) -
            rank_to_id_.begin()));
      }
      row_end_.push_back(static_cast<uint32_t>(flat_.size()));
    }
    stamp_.assign(rank_to_id_.size(), 0);
    leaf_rows_.assign(rank_to_id_.size(), 0);
    return root;
  }

  // Extends the current prefix (of length `depth`) by every frequent
  // symbol of `projection`, depth-first in ascending symbol order.
  Status Grow(size_t depth, const std::vector<Projection>& projection) {
    if (opts_.max_length != 0 && depth >= opts_.max_length) {
      return Status::OK();
    }
    ++grow_calls_;
    projected_rows_ += projection.size();
    if (buckets_.size() <= depth) {
      buckets_.emplace_back(rank_to_id_.size());
      touched_.emplace_back();
    }
    std::vector<std::vector<Projection>>& buckets = buckets_[depth];
    std::vector<uint32_t>& touched = touched_[depth];

    // Children at the length cap are leaves: their support is all that is
    // needed, so count rows per symbol instead of building projections.
    const bool leaves = depth + 1 == opts_.max_length;

    // One child projection entry (or count) per (symbol, row): the
    // leftmost occurrence after next_pos. The stamp marks symbols already
    // seen in the current row.
    for (const Projection& p : projection) {
      ++stamp_clock_;
      const uint32_t end = row_end_[p.row];
      for (uint32_t j = p.next_pos; j < end; ++j) {
        const uint32_t sym = flat_[j];
        if (stamp_[sym] == stamp_clock_) continue;
        stamp_[sym] = stamp_clock_;
        if (leaves) {
          if (leaf_rows_[sym]++ == 0) touched.push_back(sym);
        } else {
          if (buckets[sym].empty()) touched.push_back(sym);
          buckets[sym].push_back(Projection{p.row, j + 1});
        }
      }
    }
    std::sort(touched.begin(), touched.end());

    Status status = Status::OK();
    for (uint32_t sym : touched) {
      const size_t support = leaves ? leaf_rows_[sym] : buckets[sym].size();
      if (support < opts_.min_support) continue;
      prefix_.push_back(rank_to_id_[sym]);
      if (prefix_.size() >= opts_.min_length) {
        if (opts_.max_patterns != 0 && result_.size() >= opts_.max_patterns) {
          status = Status::OutOfRange(
              "frequent pattern count exceeded max_patterns cap");
          break;
        }
        result_.Add(Sequence(prefix_), support);
      }
      if (!leaves) status = Grow(depth + 1, buckets[sym]);
      prefix_.pop_back();
      if (!status.ok()) break;
    }
    for (uint32_t sym : touched) {
      if (leaves) {
        leaf_rows_[sym] = 0;
      } else {
        buckets[sym].clear();
      }
    }
    touched.clear();
    return status;
  }

  const SequenceDatabase& db_;
  const MinerOptions opts_;

  // Dense copy of the database in symbol ranks: row i ends at
  // flat_[row_end_[i]] and starts where row i-1 ends; rank_to_id_ maps
  // ranks back to symbol ids.
  std::vector<uint32_t> flat_;
  std::vector<uint32_t> row_end_;
  std::vector<SymbolId> rank_to_id_;

  // Per-depth scratch, reused across the Grow calls at that depth:
  // symbol-indexed child projections and the symbols that got one. Deques,
  // so a deeper call growing them keeps the callers' references valid.
  std::deque<std::vector<std::vector<Projection>>> buckets_;
  std::deque<std::vector<uint32_t>> touched_;
  // stamp_[sym] == stamp_clock_ iff sym was already seen in the current
  // projected row.
  std::vector<uint64_t> stamp_;
  uint64_t stamp_clock_ = 0;
  // Supporting rows per symbol at the leaf level (zero between calls).
  std::vector<uint32_t> leaf_rows_;

  std::vector<SymbolId> prefix_;
  FrequentPatternSet result_;
  uint64_t grow_calls_ = 0;
  uint64_t projected_rows_ = 0;
};

}  // namespace

Result<FrequentPatternSet> MineFrequentSequences(const SequenceDatabase& db,
                                                 const MinerOptions& opts) {
  SEQHIDE_TRACE_SPAN("mine_prefix_span");
  PrefixSpanMiner miner(db, opts);
  Result<FrequentPatternSet> result = miner.Mine();
  if (result.ok()) {
    SEQHIDE_COUNTER_ADD("mine.prefixspan.patterns", result->size());
  }
  return result;
}

}  // namespace seqhide
