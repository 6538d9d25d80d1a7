// SequenceDatabase: the input database D of the Sequence Hiding Problem —
// a bag of sequences over one shared Alphabet.

#ifndef SEQHIDE_SEQ_DATABASE_H_
#define SEQHIDE_SEQ_DATABASE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/seq/alphabet.h"
#include "src/seq/sequence.h"

namespace seqhide {

// Aggregate statistics of a database; used by dataset calibration, reports
// and tests.
struct DatabaseStats {
  size_t num_sequences = 0;
  size_t total_symbols = 0;     // including Δ
  size_t total_marks = 0;       // number of Δ symbols (measure M1 over D')
  size_t min_length = 0;
  size_t max_length = 0;
  double mean_length = 0.0;
  size_t alphabet_size = 0;
};

class SequenceDatabase {
 public:
  SequenceDatabase() = default;

  SequenceDatabase(const SequenceDatabase&) = default;
  SequenceDatabase& operator=(const SequenceDatabase&) = default;
  SequenceDatabase(SequenceDatabase&&) noexcept = default;
  SequenceDatabase& operator=(SequenceDatabase&&) noexcept = default;

  Alphabet& alphabet() { return alphabet_; }
  const Alphabet& alphabet() const { return alphabet_; }

  void Add(Sequence seq) { sequences_.push_back(std::move(seq)); }

  // Convenience for tests and examples: interns names and appends.
  void AddFromNames(const std::vector<std::string>& names) {
    sequences_.push_back(Sequence::FromNames(&alphabet_, names));
  }

  size_t size() const { return sequences_.size(); }
  bool empty() const { return sequences_.empty(); }

  const Sequence& operator[](size_t i) const { return sequences_[i]; }
  Sequence* mutable_sequence(size_t i);

  const std::vector<Sequence>& sequences() const { return sequences_; }
  std::vector<Sequence>* mutable_sequences() { return &sequences_; }

  DatabaseStats Stats() const;

  // Total number of Δ symbols over all sequences: the M1 measure of this
  // database relative to an unmarked original.
  size_t TotalMarkCount() const;

 private:
  Alphabet alphabet_;
  std::vector<Sequence> sequences_;
};

}  // namespace seqhide

#endif  // SEQHIDE_SEQ_DATABASE_H_
