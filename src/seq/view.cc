#include "src/seq/view.h"

#include "src/common/logging.h"
#include "src/seq/database.h"

namespace seqhide {

DatabaseView::DatabaseView(const SequenceDatabase& db)
    : num_rows_(db.size()), alphabet_(&db.alphabet()) {
  rows_.reserve(db.size());
  for (size_t t = 0; t < db.size(); ++t) {
    rows_.push_back(SequenceView(db[t]));
    num_symbols_ += db[t].size();
  }
}

DatabaseView DatabaseView::Overlay(
    const std::vector<std::pair<size_t, Sequence>>& rows) const {
  DatabaseView out;
  out.num_rows_ = num_rows_;
  out.alphabet_ = alphabet_;
  out.rows_.reserve(num_rows_);
  for (size_t t = 0; t < num_rows_; ++t) out.rows_.push_back(row(t));
  for (const auto& [t, seq] : rows) {
    SEQHIDE_CHECK(t < num_rows_)
        << "overlay row " << t << " is out of range for a " << num_rows_
        << "-row database";
    out.rows_[t] = SequenceView(seq);
  }
  return out;
}

}  // namespace seqhide
