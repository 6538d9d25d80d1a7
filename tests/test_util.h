// Shared helpers for the seqhide test suite.
//
// Random inputs are routed through the property-testing generators in
// src/testing/generators.h so every suite shares one generator and one
// seeding convention (an explicit Rng* owns all randomness — no separate
// per-helper seeds).

#ifndef SEQHIDE_TESTS_TEST_UTIL_H_
#define SEQHIDE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/seq/alphabet.h"
#include "src/seq/sequence.h"
#include "src/testing/generators.h"

namespace seqhide {
namespace testutil {

// Builds a sequence from whitespace-separated symbol names, interning
// into `alphabet`. "a a b c" -> <a,a,b,c>.
inline Sequence Seq(Alphabet* alphabet, const std::string& text) {
  return Sequence::FromNames(alphabet, SplitWhitespace(text));
}

// Random sequence of `length` symbols drawn from ids [0, alphabet_size),
// with no Δ marks and no repeat bias.
inline Sequence RandomSeq(Rng* rng, size_t length, size_t alphabet_size) {
  return proptest::GenSequence(rng, length, alphabet_size,
                               /*delta_density=*/0.0, /*repeat_bias=*/0.0);
}

// Random database of exactly `rows` unmarked sequences with lengths in
// [min_length, max_length] over an alphabet of `alphabet_size` symbols
// ("s0".."sN", pre-interned). All randomness comes from `rng`.
inline SequenceDatabase RandomDb(Rng* rng, size_t rows, size_t min_length,
                                 size_t max_length, size_t alphabet_size) {
  proptest::GenOptions gen;
  gen.min_sequences = rows;
  gen.max_sequences = rows;
  gen.min_length = min_length;
  gen.max_length = max_length;
  gen.min_alphabet = alphabet_size;
  gen.max_alphabet = alphabet_size;
  gen.delta_density = 0.0;
  return proptest::GenDatabase(rng, gen);
}

// A fresh directory owned by the running test case and process:
// <TempDir>/<Suite>.<Case>.<pid>, emptied if a previous run left it.
// Fixtures that write fixed file names or bind fixed socket paths put
// them here, so test cases running as concurrent processes (ctest -j)
// never share a path.
inline std::string UniqueTestDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += std::string(info != nullptr ? info->test_suite_name() : "test") +
         "." + (info != nullptr ? info->name() : "case") + "." +
         std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace testutil
}  // namespace seqhide

#endif  // SEQHIDE_TESTS_TEST_UTIL_H_
