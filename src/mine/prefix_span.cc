#include "src/mine/prefix_span.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

// One entry of a pseudo-projected database: row index + the position
// right after the leftmost embedding of the current prefix.
struct Projection {
  uint32_t row;
  uint32_t next_pos;
};

// The database in dense symbol ranks with the Δ positions dropped (they
// never match, so removing them keeps every leftmost embedding): row i
// ends at flat[row_end[i]] and starts where row i-1 ends. Ranks ascend
// with symbol ids, so visiting ranks in order visits symbols in canonical
// order; rank_to_id maps them back. Read-only once built, so every
// subtree task shares it.
struct DenseDatabase {
  std::vector<uint32_t> flat;
  std::vector<uint32_t> row_end;
  std::vector<SymbolId> rank_to_id;
};

DenseDatabase Densify(const SequenceDatabase& db) {
  DenseDatabase dense;
  for (const Sequence& row : db.sequences()) {
    for (SymbolId s : row.symbols()) {
      if (IsRealSymbol(s)) dense.rank_to_id.push_back(s);
    }
  }
  dense.flat.reserve(dense.rank_to_id.size());
  std::sort(dense.rank_to_id.begin(), dense.rank_to_id.end());
  dense.rank_to_id.erase(
      std::unique(dense.rank_to_id.begin(), dense.rank_to_id.end()),
      dense.rank_to_id.end());

  dense.row_end.reserve(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    for (SymbolId s : db[i].symbols()) {
      if (!IsRealSymbol(s)) continue;
      dense.flat.push_back(static_cast<uint32_t>(
          std::lower_bound(dense.rank_to_id.begin(), dense.rank_to_id.end(),
                           s) -
          dense.rank_to_id.begin()));
    }
    dense.row_end.push_back(static_cast<uint32_t>(dense.flat.size()));
  }
  return dense;
}

// A frequent length-1 pattern: its symbol rank, support and projection
// (empty when the roots are leaves).
struct Root {
  uint32_t rank;
  size_t support;
  std::vector<Projection> rows;
};

// Depth-first pattern growth on one thread's scratch, reading only the
// shared DenseDatabase and the projection it is handed.
class Grower {
 public:
  // `emitted` counts the patterns every Grower of one mine has emitted;
  // it is only touched when opts.max_patterns caps them.
  Grower(const DenseDatabase& dense, const MinerOptions& opts,
         std::atomic<size_t>* emitted)
      : dense_(dense),
        opts_(opts),
        emitted_(emitted),
        stamp_(dense.rank_to_id.size(), 0),
        leaf_rows_(dense.rank_to_id.size(), 0) {}

  // Counts the children of the prefix (of length `depth`) that
  // `projection` projects on: one child projection entry (or, when the
  // children are at the length cap, one count) per (symbol, row), the
  // leftmost occurrence after next_pos. Returns the symbols that got
  // one, ascending; Child and Release read and free them.
  const std::vector<uint32_t>& Scan(size_t depth,
                                    const std::vector<Projection>& projection) {
    ++grow_calls_;
    projected_rows_ += projection.size();
    while (buckets_.size() <= depth) {
      buckets_.emplace_back(dense_.rank_to_id.size());
      touched_.emplace_back();
    }
    std::vector<std::vector<Projection>>& buckets = buckets_[depth];
    std::vector<uint32_t>& touched = touched_[depth];
    const bool leaves = ChildrenAreLeaves(depth);
    // Locals, so the pushes below cannot make the compiler reload them.
    const uint32_t* flat = dense_.flat.data();
    const uint32_t* row_end = dense_.row_end.data();
    uint64_t* stamp = stamp_.data();
    uint32_t* leaf_rows = leaf_rows_.data();
    uint64_t clock = stamp_clock_;
    // The stamp marks symbols already seen in the current row.
    for (const Projection& p : projection) {
      ++clock;
      const uint32_t end = row_end[p.row];
      for (uint32_t j = p.next_pos; j < end; ++j) {
        const uint32_t sym = flat[j];
        if (stamp[sym] == clock) continue;
        stamp[sym] = clock;
        if (leaves) {
          if (leaf_rows[sym]++ == 0) touched.push_back(sym);
        } else {
          if (buckets[sym].empty()) touched.push_back(sym);
          buckets[sym].push_back(Projection{p.row, j + 1});
        }
      }
    }
    stamp_clock_ = clock;
    std::sort(touched.begin(), touched.end());
    return touched;
  }

  // Support of child `sym` of the last Scan at `depth`.
  size_t Support(size_t depth, uint32_t sym) const {
    return ChildrenAreLeaves(depth) ? leaf_rows_[sym]
                                    : buckets_[depth][sym].size();
  }

  // Projection of child `sym` of the last Scan at `depth` (empty for a
  // leaf). Valid until Release(depth).
  std::vector<Projection>& Child(size_t depth, uint32_t sym) {
    return buckets_[depth][sym];
  }

  // Clears the last Scan at `depth`, keeping the buckets' capacity.
  void Release(size_t depth) {
    const bool leaves = ChildrenAreLeaves(depth);
    for (uint32_t sym : touched_[depth]) {
      if (leaves) {
        leaf_rows_[sym] = 0;
      } else {
        buckets_[depth][sym].clear();
      }
    }
    touched_[depth].clear();
  }

  // Emits the root's pattern and grows its whole subtree into `out`.
  Status MineRoot(const Root& root, FrequentPatternSet* out) {
    out_ = out;
    return Visit(0, root.rank, root.support, root.rows);
  }

  uint64_t grow_calls() const { return grow_calls_; }
  uint64_t projected_rows() const { return projected_rows_; }

 private:
  // Children of a length-`depth` prefix are leaves at the length cap:
  // their support is all that is needed, so Scan counts rows per symbol
  // instead of building projections.
  bool ChildrenAreLeaves(size_t depth) const {
    return depth + 1 == opts_.max_length;
  }

  // Extends the current prefix (of length `depth`) by every frequent
  // symbol of `projection`, depth-first in ascending symbol order.
  Status Grow(size_t depth, const std::vector<Projection>& projection) {
    Status status = Status::OK();
    for (uint32_t sym : Scan(depth, projection)) {
      const size_t support = Support(depth, sym);
      if (support < opts_.min_support) continue;
      status = Visit(depth, sym, support, Child(depth, sym));
      if (!status.ok()) break;
    }
    Release(depth);
    return status;
  }

  // The frequent child `sym` of the length-`depth` prefix: emits it when
  // its length is in the window, then grows below it unless it is a leaf.
  Status Visit(size_t depth, uint32_t sym, size_t support,
               const std::vector<Projection>& rows) {
    prefix_.push_back(dense_.rank_to_id[sym]);
    Status status = Status::OK();
    if (prefix_.size() >= opts_.min_length) {
      if (opts_.max_patterns != 0 &&
          emitted_->fetch_add(1, std::memory_order_relaxed) >=
              opts_.max_patterns) {
        status = Status::OutOfRange(
            "frequent pattern count exceeded max_patterns cap");
      } else {
        out_->Add(prefix_, support);
      }
    }
    if (status.ok() && !ChildrenAreLeaves(depth)) {
      status = Grow(depth + 1, rows);
    }
    prefix_.pop_back();
    return status;
  }

  const DenseDatabase& dense_;
  const MinerOptions& opts_;
  std::atomic<size_t>* emitted_;
  FrequentPatternSet* out_ = nullptr;

  // Per-depth scratch, reused across the Scans at that depth:
  // symbol-indexed child projections and the symbols that got one. Deques,
  // so a deeper call growing them keeps the callers' references valid.
  std::deque<std::vector<std::vector<Projection>>> buckets_;
  std::deque<std::vector<uint32_t>> touched_;
  // stamp_[sym] == stamp_clock_ iff sym was already seen in the current
  // projected row.
  std::vector<uint64_t> stamp_;
  uint64_t stamp_clock_ = 0;
  // Supporting rows per symbol at the leaf level (zero between Scans).
  std::vector<uint32_t> leaf_rows_;

  std::vector<SymbolId> prefix_;
  uint64_t grow_calls_ = 0;
  uint64_t projected_rows_ = 0;
};

Result<FrequentPatternSet> Mine(const SequenceDatabase& db,
                                const MinerOptions& opts) {
  if (opts.min_support == 0) {
    return Status::InvalidArgument(
        "min_support must be >= 1 (sigma = 0 makes F(D,sigma) infinite)");
  }
  if (opts.max_length != 0 && opts.min_length > opts.max_length) {
    return Status::InvalidArgument("min_length > max_length");
  }
  size_t positions = 0;
  for (const Sequence& row : db.sequences()) positions += row.size();
  if (positions >= UINT32_MAX || db.size() >= UINT32_MAX) {
    return Status::OutOfRange(
        "database too large for the miner's 32-bit projections");
  }
  const DenseDatabase dense = Densify(db);
  std::atomic<size_t> emitted{0};

  // Root pass: depth 0's children, each a frequent root with its bucket.
  std::vector<Root> roots;
  Grower root_pass(dense, opts, &emitted);
  {
    std::vector<Projection> all_rows;
    all_rows.reserve(db.size());
    for (size_t i = 0; i < db.size(); ++i) {
      all_rows.push_back(Projection{
          static_cast<uint32_t>(i),
          i == 0 ? 0u : dense.row_end[i - 1]});
    }
    for (uint32_t sym : root_pass.Scan(0, all_rows)) {
      const size_t support = root_pass.Support(0, sym);
      if (support < opts.min_support) continue;
      roots.push_back(Root{sym, support, std::move(root_pass.Child(0, sym))});
    }
    root_pass.Release(0);
  }

  // Each root's subtree reads only `dense` and its own bucket, so the
  // roots are independent tasks. A chunk of roots is contiguous and
  // ascending, so its roots append to one fragment, the slot of its first
  // root; the fragments are spliced in root order, the same set at every
  // thread count. On one thread the single chunk's fragment is the set.
  std::vector<FrequentPatternSet> fragments(roots.size());
  std::vector<Status> statuses(roots.size());
  std::atomic<uint64_t> grow_calls{root_pass.grow_calls()};
  std::atomic<uint64_t> projected_rows{root_pass.projected_rows()};
  ThreadPool::Shared().ParallelFor(
      roots.size(), 0, [&](size_t begin, size_t end) {
        Grower grower(dense, opts, &emitted);
        for (size_t r = begin; r < end; ++r) {
          statuses[r] = grower.MineRoot(roots[r], &fragments[begin]);
          std::vector<Projection>().swap(roots[r].rows);
        }
        grow_calls.fetch_add(grower.grow_calls(), std::memory_order_relaxed);
        projected_rows.fetch_add(grower.projected_rows(),
                                 std::memory_order_relaxed);
      });
  SEQHIDE_COUNTER_ADD("mine.prefixspan.grow_calls", grow_calls.load());
  SEQHIDE_COUNTER_ADD("mine.prefixspan.projected_rows",
                      projected_rows.load());
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return FrequentPatternSet::Splice(std::move(fragments));
}

}  // namespace

Result<FrequentPatternSet> MineFrequentSequences(const SequenceDatabase& db,
                                                 const MinerOptions& opts) {
  SEQHIDE_TRACE_SPAN("mine_prefix_span");
  Result<FrequentPatternSet> result = Mine(db, opts);
  if (result.ok()) {
    SEQHIDE_COUNTER_ADD("mine.prefixspan.patterns", result->size());
  }
  return result;
}

}  // namespace seqhide
