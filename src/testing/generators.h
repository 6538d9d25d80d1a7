// Seeded random-instance generators for property-based testing.
//
// Every randomized test input in the repo flows through these generators
// so that one 64-bit seed reproduces one instance exactly, everywhere: a
// failing property prints its case seed, and re-running with
// SEQHIDE_PROP_SEED=<seed> regenerates the identical database, patterns,
// constraints, and options (see prop.h). Generation draws only from the
// repo's own Rng (common/random.h), never from std:: distributions, so
// instances are stable across platforms and standard libraries.
//
// The generators are deliberately biased toward *small, nasty* instances:
// tiny alphabets (forcing symbol collisions and large matching sets),
// embedded patterns (so matches actually exist), Δ-marked positions,
// tight gap/window constraints, and boundary ψ values. Sizes are kept
// small enough that the exponential oracles in oracles.h stay cheap.

#ifndef SEQHIDE_TESTING_GENERATORS_H_
#define SEQHIDE_TESTING_GENERATORS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/constraints/constraints.h"
#include "src/hide/options.h"
#include "src/seq/database.h"
#include "src/seq/sequence.h"
#include "src/temporal/timed_sequence.h"

namespace seqhide {
namespace proptest {

// Tuning knobs for GenInstance and the piecewise generators. Defaults are
// sized for tier-1: brute-force oracles over these instances run in
// microseconds, so hundreds of cases per property stay fast.
struct GenOptions {
  // Database shape.
  size_t min_sequences = 1;
  size_t max_sequences = 10;
  size_t min_length = 0;
  size_t max_length = 12;
  // Alphabet |Σ| is drawn uniformly from [min_alphabet, max_alphabet].
  size_t min_alphabet = 1;
  size_t max_alphabet = 6;
  // Probability that a generated database position starts Δ-marked
  // (sanitization inputs are usually clean; oracles must also hold on
  // partially marked sequences).
  double delta_density = 0.1;
  // Probability that a symbol repeats its predecessor (auto-correlation;
  // high values produce the Lemma 1 worst-case shapes).
  double repeat_bias = 0.2;

  // Pattern shape.
  size_t min_patterns = 1;
  size_t max_patterns = 3;
  size_t min_pattern_length = 1;
  size_t max_pattern_length = 4;
  // Probability that a pattern is drawn as a real subsequence of a random
  // database row (guaranteeing support) instead of independently.
  double embed_probability = 0.6;

  // Probability that a pattern gets a non-trivial ConstraintSpec.
  double constrained_probability = 0.5;

  // When false, GenInstance leaves SanitizeOptions at HH defaults with a
  // small random ψ; when true it also randomizes strategies, threads,
  // and seed.
  bool randomize_options = true;
};

// Random sequence of `length` symbols over ids [0, alphabet_size), each
// position independently Δ-marked with probability delta_density and
// repeating its predecessor with probability repeat_bias.
Sequence GenSequence(Rng* rng, size_t length, size_t alphabet_size,
                     double delta_density = 0.0, double repeat_bias = 0.0);

// Random timed row (§7.2): symbols as GenSequence, times non-decreasing.
// With `tenths` every step is 0, 1, 2 or 3 tenths added up in floating
// point (0.1 + 0.1 + 0.1 = 0.30000000000000004), so spans between events
// sit on rounding boundaries; otherwise steps are uniform in [0, 2).
TimedSequence GenTimedSequence(Rng* rng, size_t length, size_t alphabet_size,
                               bool tenths, double delta_density = 0.0);

// Random time constraints for `row`. With `tenths` each bound is 0.1 × k
// for k the tenth-count between two of the row's events, so a bound equals
// a span up to rounding; otherwise bounds are uniform. Always valid.
TimeConstraintSpec GenTimeSpec(Rng* rng, const TimedSequence& row,
                               bool tenths);

// A max-window spec for `row` (always windowed): the window is 0, the
// span between two of the row's events (rounded to tenths with `tenths`,
// so it sits on a rounding boundary of the spans it should admit), or
// past the row's duration, so every anchor's span reaches the row's end;
// the gaps are drawn as in GenTimeSpec. Always valid.
TimeConstraintSpec GenTimedWindowSpec(Rng* rng, const TimedSequence& row,
                                      bool tenths);

// Random database under `opts`. The alphabet is pre-interned as
// "s0".."s<k-1>" so symbol ids are stable regardless of usage order (the
// same convention as MakeRandomDatabase in data/workload.h).
SequenceDatabase GenDatabase(Rng* rng, const GenOptions& opts);

// Random pattern over the same id space as `db`. With probability
// opts.embed_probability (and a non-empty database) the pattern is a
// uniformly chosen subsequence of a random row's unmarked positions, so
// it is guaranteed to be supported; otherwise symbols are independent.
// Never contains Δ; never empty.
Sequence GenPattern(Rng* rng, const SequenceDatabase& db,
                    size_t alphabet_size, const GenOptions& opts);

// Random occurrence constraints for a pattern of `pattern_length`
// symbols: unconstrained, uniform gap, per-arrow gaps, window-only, or
// gaps+window, with small bounds so constrained counts are frequently
// strictly between 0 and the unconstrained count. Always passes
// ConstraintSpec::Validate(pattern_length).
ConstraintSpec GenConstraintSpec(Rng* rng, size_t pattern_length,
                                 size_t max_seq_length);

// A max-window spec for a pattern of `pattern_length` symbols over rows of
// at most `max_seq_length`: the window is 1, the pattern length, a width
// in between and the row length, or the row length or more (so every
// anchor's span is clipped at the row's end), over no gaps, bounded gaps
// or min-gap-only (unbounded) gaps. A window shorter than the pattern
// fails Validate, but the DPs must still count it (as 0).
ConstraintSpec GenWindowedSpec(Rng* rng, size_t pattern_length,
                               size_t max_seq_length);

// Random SanitizeOptions: strategy pair, ψ in [0, db_size], thread count
// in {1, 2, 3, 8}, and RNG seed. Always passes Validate().
SanitizeOptions GenSanitizeOptions(Rng* rng, size_t db_size);

// One complete property-test instance: everything Sanitize() consumes.
// The patterns are non-empty, Δ-free, and pairwise distinct, and
// constraints are parallel to patterns (possibly all-unconstrained), so
// the instance is always accepted by Sanitize().
struct PropInstance {
  SequenceDatabase db;
  std::vector<Sequence> patterns;
  std::vector<ConstraintSpec> constraints;
  SanitizeOptions options;

  // Multi-line human-readable dump: database rows (io.h text format),
  // patterns with their constraints, and the option fields that affect
  // results. This is what the property harness prints for a shrunken
  // counterexample.
  std::string DebugString() const;
};

// Generates a full instance. Deterministic in (*rng state, opts).
PropInstance GenInstance(Rng* rng, const GenOptions& opts);

}  // namespace proptest
}  // namespace seqhide

#endif  // SEQHIDE_TESTING_GENERATORS_H_
