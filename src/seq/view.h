// SequenceView / DatabaseView: non-owning, zero-copy views over sequence
// data, whether it lives in an in-memory Sequence/SequenceDatabase or in
// a memory-mapped seqhidb column section (src/seq/binary_format.h).
//
// SequenceView is the haystack type accepted by every matching kernel in
// src/match/: a (pointer, length) pair over SymbolId. A Sequence converts
// implicitly, so existing call sites keep working unchanged; a mapped
// database hands out views directly into the file's columnar storage, so
// the kernels run without copying a single symbol.
//
// Views borrow. The underlying Sequence, SequenceDatabase, or mapping
// must outlive every view taken from it.

#ifndef SEQHIDE_SEQ_VIEW_H_
#define SEQHIDE_SEQ_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/seq/alphabet.h"
#include "src/seq/sequence.h"
#include "src/seq/types.h"

namespace seqhide {

class SequenceDatabase;

class SequenceView {
 public:
  constexpr SequenceView() = default;
  constexpr SequenceView(const SymbolId* data, size_t size)
      : data_(data), size_(size) {}

  // Implicit: lets every kernel that takes a SequenceView haystack keep
  // accepting a Sequence at the call site.
  SequenceView(const Sequence& seq)  // NOLINT(google-explicit-constructor)
      : data_(seq.symbols().data()), size_(seq.size()) {}

  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr SymbolId operator[](size_t pos) const { return data_[pos]; }
  constexpr const SymbolId* data() const { return data_; }
  constexpr const SymbolId* begin() const { return data_; }
  constexpr const SymbolId* end() const { return data_ + size_; }

  // Materializes an owning copy (used when a view's row must be mutated,
  // e.g. marking a sanitization victim).
  Sequence Materialize() const {
    return Sequence(std::vector<SymbolId>(begin(), end()));
  }

  // Number of Δ symbols in the view.
  size_t MarkCount() const {
    size_t marks = 0;
    for (size_t i = 0; i < size_; ++i) {
      if (!IsRealSymbol(data_[i])) ++marks;
    }
    return marks;
  }

  friend bool operator==(SequenceView a, SequenceView b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }

 private:
  const SymbolId* data_ = nullptr;
  size_t size_ = 0;
};

// A read-only, row-addressable view over a whole database: either a thin
// adapter over an in-memory SequenceDatabase or a (columns, row_offsets)
// pair straight out of a mapped seqhidb file. Row lengths are O(1) from
// the offset table in both representations.
class DatabaseView {
 public:
  DatabaseView() = default;

  // Adapter over an in-memory database; O(|D|) pointers, no symbol copies.
  explicit DatabaseView(const SequenceDatabase& db);

  // Columnar representation: row t spans columns[row_offsets[t] ..
  // row_offsets[t+1]). The offsets are NOT trusted: the mapped reader
  // skips per-row validation at open, so row() clamps every access to
  // [0, num_symbols] — corrupt offsets yield a truncated or empty view,
  // never an out-of-bounds read.
  DatabaseView(const SymbolId* columns, const uint64_t* row_offsets,
               size_t num_rows, size_t num_symbols, const Alphabet* alphabet)
      : columns_(columns),
        row_offsets_(row_offsets),
        num_rows_(num_rows),
        num_symbols_(num_symbols),
        alphabet_(alphabet) {}

  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  SequenceView row(size_t t) const {
    if (row_offsets_ != nullptr) {
      uint64_t begin = row_offsets_[t];
      uint64_t end = row_offsets_[t + 1];
      const uint64_t n = num_symbols_;
      if (begin > n) begin = n;
      if (end > n || end < begin) end = begin;
      return SequenceView(columns_ + begin, static_cast<size_t>(end - begin));
    }
    return rows_[t];
  }
  SequenceView operator[](size_t t) const { return row(t); }

  const Alphabet& alphabet() const { return *alphabet_; }

  // Per-row 64-bit symbol signatures (src/seq/signature.h), one per row,
  // or nullptr when the view carries none. A holder that already built
  // them (the server, at load) attaches them so the sanitize count stage
  // screens rows without rescanning them; every other reader computes a
  // row's signature from the row itself.
  const uint64_t* signatures() const { return signatures_; }

  // The same rows read against `alphabet`, which must extend this view's
  // (e.g. a request-private copy that interned extra pattern symbols).
  // Keeps the signatures: the rows are the same. `alphabet` must outlive
  // the result.
  DatabaseView WithAlphabet(const Alphabet& alphabet) const {
    DatabaseView out = *this;
    out.alphabet_ = &alphabet;
    return out;
  }

  // The same rows with `signatures` attached: signatures[t] must hold
  // every bit of SequenceSignature(row(t)) (extra bits only weaken the
  // screen), and the vector must hold size() entries and outlive the
  // result and every view derived from it.
  DatabaseView WithSignatures(const std::vector<uint64_t>& signatures) const;

  // This view with `rows[i].second` read in place of row `rows[i].first`
  // — a sanitize overlay. O(|D|) pointers, no symbol copies: untouched
  // rows still point into the original storage. Every row index must be
  // < size(); `rows` must outlive the result. The result carries no
  // signatures: the overlay rows are not the base rows.
  DatabaseView Overlay(
      const std::vector<std::pair<size_t, Sequence>>& rows) const;

 private:
  // In-memory adapter / overlay state.
  std::vector<SequenceView> rows_;
  // Columnar state (nullptr when adapting an in-memory database).
  const SymbolId* columns_ = nullptr;
  const uint64_t* row_offsets_ = nullptr;
  size_t num_rows_ = 0;
  size_t num_symbols_ = 0;
  const Alphabet* alphabet_ = nullptr;
  const uint64_t* signatures_ = nullptr;
};

}  // namespace seqhide

#endif  // SEQHIDE_SEQ_VIEW_H_
