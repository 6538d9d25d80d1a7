#include "src/seq/view.h"

#include "src/common/logging.h"
#include "src/seq/database.h"

namespace seqhide {

DatabaseView::DatabaseView(const SequenceDatabase& db)
    : sequences_(db.sequences().data()),
      num_rows_(db.size()),
      alphabet_(&db.alphabet()) {}

DatabaseView DatabaseView::WithSignatures(
    const std::vector<uint64_t>& signatures) const {
  SEQHIDE_CHECK(signatures.size() == num_rows_)
      << signatures.size() << " signatures for a " << num_rows_
      << "-row database";
  DatabaseView out = *this;
  out.signatures_ = signatures.data();
  return out;
}

DatabaseView DatabaseView::Overlay(
    const std::vector<std::pair<size_t, Sequence>>& rows) const {
  SEQHIDE_CHECK(overlay_ == nullptr) << "an overlay view cannot be overlaid";
  for (size_t i = 0; i < rows.size(); ++i) {
    SEQHIDE_CHECK(rows[i].first < num_rows_)
        << "overlay row " << rows[i].first << " is out of range for a "
        << num_rows_ << "-row database";
    SEQHIDE_CHECK(i == 0 || rows[i - 1].first < rows[i].first)
        << "overlay rows must be strictly ascending: row " << rows[i].first
        << " follows row " << rows[i - 1].first;
  }
  DatabaseView out = *this;
  out.signatures_ = nullptr;
  out.overlay_ = &rows;
  return out;
}

}  // namespace seqhide
