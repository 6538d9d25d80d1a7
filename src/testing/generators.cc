#include "src/testing/generators.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace seqhide {
namespace proptest {

namespace {

// Uniform draw from the inclusive range [lo, hi].
size_t Between(Rng* rng, size_t lo, size_t hi) {
  SEQHIDE_CHECK_LE(lo, hi);
  return lo + static_cast<size_t>(rng->NextBounded(hi - lo + 1));
}

}  // namespace

Sequence GenSequence(Rng* rng, size_t length, size_t alphabet_size,
                     double delta_density, double repeat_bias) {
  SEQHIDE_CHECK_GT(alphabet_size, 0u);
  Sequence out;
  SymbolId prev = static_cast<SymbolId>(rng->NextBounded(alphabet_size));
  for (size_t i = 0; i < length; ++i) {
    if (rng->NextBernoulli(delta_density)) {
      out.Append(kDeltaSymbol);
      continue;
    }
    SymbolId sym = (i > 0 && rng->NextBernoulli(repeat_bias))
                       ? prev
                       : static_cast<SymbolId>(rng->NextBounded(alphabet_size));
    out.Append(sym);
    prev = sym;
  }
  return out;
}

TimedSequence GenTimedSequence(Rng* rng, size_t length, size_t alphabet_size,
                               bool tenths, double delta_density) {
  const Sequence symbols = GenSequence(rng, length, alphabet_size, delta_density);
  std::vector<TimedEvent> events;
  double clock = 0.0;
  for (size_t i = 0; i < length; ++i) {
    if (tenths) {
      for (uint64_t k = rng->NextBounded(4); k > 0; --k) clock += 0.1;
    } else {
      clock += rng->NextDouble() * 2.0;
    }
    events.push_back(TimedEvent{symbols[i], clock});
  }
  return *TimedSequence::Create(std::move(events));
}

TimeConstraintSpec GenTimeSpec(Rng* rng, const TimedSequence& row,
                               bool tenths) {
  auto bound = [&](double scale) {
    if (!tenths || row.empty()) return rng->NextDouble() * scale;
    const double a = row[rng->NextBounded(row.size())].time;
    const double b = row[rng->NextBounded(row.size())].time;
    return 0.1 * std::round(std::fabs(b - a) * 10.0);
  };
  TimeConstraintSpec spec;
  if (rng->NextBernoulli(0.5)) spec.min_gap_time = bound(1.0);
  if (rng->NextBernoulli(0.5)) {
    spec.max_gap_time = spec.min_gap_time + bound(3.0);
  }
  if (rng->NextBernoulli(0.5)) spec.max_window_time = bound(6.0);
  return spec;
}

TimeConstraintSpec GenTimedWindowSpec(Rng* rng, const TimedSequence& row,
                                      bool tenths) {
  TimeConstraintSpec spec = GenTimeSpec(rng, row, tenths);
  spec.max_window_time = 0.0;
  if (row.empty()) return spec;
  switch (rng->NextBounded(4)) {
    case 0:
      break;
    case 1:
      spec.max_window_time = row[row.size() - 1].time + rng->NextDouble();
      break;
    default: {
      const double a = row[rng->NextBounded(row.size())].time;
      const double b = row[rng->NextBounded(row.size())].time;
      const double span = std::fabs(b - a);
      spec.max_window_time = tenths ? 0.1 * std::round(span * 10.0) : span;
      break;
    }
  }
  return spec;
}

SequenceDatabase GenDatabase(Rng* rng, const GenOptions& opts) {
  SequenceDatabase db;
  size_t sigma = Between(rng, opts.min_alphabet, opts.max_alphabet);
  // Pre-intern so ids are stable regardless of which symbols a random
  // database happens to use.
  for (size_t s = 0; s < sigma; ++s) {
    db.alphabet().Intern("s" + std::to_string(s));
  }
  size_t rows = Between(rng, opts.min_sequences, opts.max_sequences);
  for (size_t i = 0; i < rows; ++i) {
    size_t len = Between(rng, opts.min_length, opts.max_length);
    db.Add(GenSequence(rng, len, sigma, opts.delta_density, opts.repeat_bias));
  }
  return db;
}

Sequence GenPattern(Rng* rng, const SequenceDatabase& db,
                    size_t alphabet_size, const GenOptions& opts) {
  SEQHIDE_CHECK_GT(alphabet_size, 0u);
  size_t want = Between(rng, std::max<size_t>(opts.min_pattern_length, 1),
                        std::max<size_t>(opts.max_pattern_length, 1));
  if (!db.empty() && rng->NextBernoulli(opts.embed_probability)) {
    // Collect the unmarked positions of a random row; sample `want` of
    // them in order to get a genuine subsequence.
    const Sequence& row = db[rng->NextBounded(db.size())];
    std::vector<SymbolId> real;
    for (size_t i = 0; i < row.size(); ++i) {
      if (IsRealSymbol(row[i])) real.push_back(row[i]);
    }
    if (real.size() >= want) {
      // Choose `want` indices without replacement, then sort: a uniformly
      // random subsequence of the row's real symbols.
      std::vector<size_t> idx(real.size());
      for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      rng->Shuffle(&idx);
      idx.resize(want);
      std::sort(idx.begin(), idx.end());
      Sequence out;
      for (size_t i : idx) out.Append(real[i]);
      return out;
    }
    // Row too short/marked to embed; fall through to independent draw.
  }
  Sequence out;
  for (size_t i = 0; i < want; ++i) {
    out.Append(static_cast<SymbolId>(rng->NextBounded(alphabet_size)));
  }
  return out;
}

ConstraintSpec GenConstraintSpec(Rng* rng, size_t pattern_length,
                                 size_t max_seq_length) {
  // Bounds small relative to the sequence length keep constrained counts
  // interesting (often strictly between 0 and the unconstrained count).
  size_t span = std::max<size_t>(max_seq_length, 1);
  auto small_gap = [&]() -> GapBound {
    GapBound g;
    g.min_gap = rng->NextBounded(3);
    g.max_gap = rng->NextBernoulli(0.3)
                    ? GapBound::kNoMax
                    : g.min_gap + rng->NextBounded(span);
    return g;
  };
  switch (rng->NextBounded(5)) {
    case 0:
      return ConstraintSpec();
    case 1: {
      GapBound g = small_gap();
      return ConstraintSpec::UniformGap(g.min_gap, g.max_gap);
    }
    case 2: {
      if (pattern_length < 2) return ConstraintSpec();
      std::vector<GapBound> gaps;
      for (size_t i = 0; i + 1 < pattern_length; ++i) {
        gaps.push_back(small_gap());
      }
      return ConstraintSpec::PerArrow(std::move(gaps));
    }
    case 3:
      // Window must be >= pattern length to validate.
      return ConstraintSpec::Window(pattern_length + rng->NextBounded(span));
    default: {
      GapBound g = small_gap();
      ConstraintSpec spec = ConstraintSpec::UniformGap(g.min_gap, g.max_gap);
      spec.SetMaxWindow(pattern_length + rng->NextBounded(span));
      return spec;
    }
  }
}

ConstraintSpec GenWindowedSpec(Rng* rng, size_t pattern_length,
                               size_t max_seq_length) {
  const size_t n = std::max<size_t>(max_seq_length, 1);
  ConstraintSpec spec;
  switch (rng->NextBounded(3)) {
    case 0:
      break;
    case 1:
      spec = ConstraintSpec::UniformGap(rng->NextBounded(2),
                                        1 + rng->NextBounded(3));
      break;
    default:
      spec = ConstraintSpec::UniformGap(rng->NextBounded(3), GapBound::kNoMax);
      break;
  }
  switch (rng->NextBounded(4)) {
    case 0:
      spec.SetMaxWindow(1);
      break;
    case 1:
      spec.SetMaxWindow(pattern_length);
      break;
    case 2:
      spec.SetMaxWindow(Between(rng, std::min(pattern_length, n), n));
      break;
    default:
      spec.SetMaxWindow(n + rng->NextBounded(3));
      break;
  }
  return spec;
}

SanitizeOptions GenSanitizeOptions(Rng* rng, size_t db_size) {
  SanitizeOptions opts;
  switch (rng->NextBounded(3)) {
    case 0: opts.local = LocalStrategy::kHeuristic; break;
    case 1: opts.local = LocalStrategy::kRandom; break;
    // kExhaustive is exponential; instances here are small enough, but
    // keep it rare so case throughput stays high.
    default:
      opts.local = rng->NextBernoulli(0.25) ? LocalStrategy::kExhaustive
                                            : LocalStrategy::kHeuristic;
      break;
  }
  switch (rng->NextBounded(4)) {
    case 0: opts.global = GlobalStrategy::kHeuristic; break;
    case 1: opts.global = GlobalStrategy::kRandom; break;
    case 2: opts.global = GlobalStrategy::kAscendingLength; break;
    default: opts.global = GlobalStrategy::kHighAutocorrelationFirst; break;
  }
  opts.psi = rng->NextBounded(db_size + 1);
  opts.seed = rng->NextU64();
  static constexpr size_t kThreadChoices[] = {1, 2, 3, 8};
  opts.num_threads = kThreadChoices[rng->NextBounded(4)];
  // The draw of a retired index-pruning option: kept, and discarded, so
  // every seeded instance stays the same.
  (void)rng->NextBernoulli(0.3);
  opts.verify = true;
  SEQHIDE_CHECK(opts.Validate().ok());
  return opts;
}

PropInstance GenInstance(Rng* rng, const GenOptions& opts) {
  PropInstance inst;
  inst.db = GenDatabase(rng, opts);
  size_t sigma = std::max<size_t>(inst.db.alphabet().size(), 1);

  // Sanitize() rejects patterns longer than every database row, so the
  // instance must contain at least one row a pattern can fit in; clamp
  // pattern lengths to the longest row (regenerating row 0 if every row
  // came out empty).
  size_t max_len = 0;
  for (const Sequence& row : inst.db.sequences()) {
    max_len = std::max(max_len, row.size());
  }
  if (max_len == 0) {
    max_len = Between(rng, 1, std::max<size_t>(opts.max_length, 1));
    *inst.db.mutable_sequence(0) = GenSequence(
        rng, max_len, sigma, opts.delta_density, opts.repeat_bias);
  }
  GenOptions clamped = opts;
  clamped.max_pattern_length =
      std::min(std::max<size_t>(opts.max_pattern_length, 1), max_len);
  clamped.min_pattern_length =
      std::min(std::max<size_t>(opts.min_pattern_length, 1),
               clamped.max_pattern_length);

  size_t want_patterns =
      Between(rng, std::max<size_t>(opts.min_patterns, 1),
              std::max<size_t>(opts.max_patterns, 1));
  // Sanitize() rejects duplicate patterns; draw with a bounded number of
  // retries, settling for fewer patterns when the space is tiny.
  for (size_t attempts = 0;
       inst.patterns.size() < want_patterns && attempts < 8 * want_patterns;
       ++attempts) {
    Sequence candidate = GenPattern(rng, inst.db, sigma, clamped);
    bool duplicate = false;
    for (const Sequence& existing : inst.patterns) {
      if (existing == candidate) duplicate = true;
    }
    if (!duplicate) inst.patterns.push_back(std::move(candidate));
  }

  bool any_constrained = false;
  for (const Sequence& pattern : inst.patterns) {
    ConstraintSpec spec;
    if (rng->NextBernoulli(opts.constrained_probability)) {
      spec = GenConstraintSpec(rng, pattern.size(), max_len);
    }
    if (!spec.IsUnconstrained()) any_constrained = true;
    inst.constraints.push_back(std::move(spec));
  }
  // The all-unconstrained case is passed as an empty vector half the
  // time, to exercise both accepted forms of the argument.
  if (!any_constrained && rng->NextBernoulli(0.5)) inst.constraints.clear();

  if (opts.randomize_options) {
    inst.options = GenSanitizeOptions(rng, inst.db.size());
  } else {
    inst.options = SanitizeOptions::HH();
    inst.options.psi = rng->NextBounded(inst.db.size() + 1);
  }
  return inst;
}

std::string PropInstance::DebugString() const {
  std::string out;
  out += "database (" + std::to_string(db.size()) + " rows, |sigma|=" +
         std::to_string(db.alphabet().size()) + "):\n";
  for (size_t i = 0; i < db.size(); ++i) {
    out += "  T" + std::to_string(i) + " = " +
           db[i].ToString(db.alphabet()) + "\n";
  }
  for (size_t p = 0; p < patterns.size(); ++p) {
    out += "pattern S" + std::to_string(p) + " = " +
           patterns[p].ToString(db.alphabet());
    if (p < constraints.size() && !constraints[p].IsUnconstrained()) {
      out += "  [" + constraints[p].ToString() + "]";
    }
    out += "\n";
  }
  out += "options: local=" + ToString(options.local) +
         " global=" + ToString(options.global) +
         " psi=" + std::to_string(options.psi) +
         " seed=" + std::to_string(options.seed) +
         " threads=" + std::to_string(options.num_threads) + "\n";
  return out;
}

}  // namespace proptest
}  // namespace seqhide
