// Property suites for the seqhidb binary format: on generated instances
// (src/testing generators), (1) text→binary→text round trips are
// identity, (2) the screened support / match-count loop answers the
// oracles' values on the in-memory and mapped views alike, with or
// without row signatures, and (3) SanitizeView on the mapped view reproduces
// Sanitize() byte for byte — report and output database alike.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/hide/sanitizer.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/scratch.h"
#include "src/obs/metrics.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"
#include "src/testing/oracles.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

// Serializes, reopens, and returns the mapped image of inst.db; empty
// string in *error on success.
Result<MappedDatabase> MapInstance(const PropInstance& inst) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string bytes,
                           WriteBinaryDatabaseToString(inst.db));
  return MappedDatabase::FromBuffer(bytes, {.verify_checksums = true});
}

TEST(BinaryFormatProps, TextBinaryRoundTripIsIdentity) {
  PropConfig config;
  config.name = "binary/round-trip-identity";
  config.seed = 0x5eedb001;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto mapped = MapInstance(inst);
    if (!mapped.ok()) return "write/open failed: " + mapped.status().ToString();
    auto back = mapped->ToDatabase();
    if (!back.ok()) {
      return "ToDatabase failed: " + back.status().ToString();
    }
    if (WriteDatabaseToString(*back) != WriteDatabaseToString(inst.db)) {
      return std::string("text serialization changed across the binary trip");
    }
    // And the binary image itself is a fixed point.
    auto again = WriteBinaryDatabaseToString(*back);
    auto first = WriteBinaryDatabaseToString(inst.db);
    if (!again.ok() || !first.ok() || *again != *first) {
      return std::string("binary serialization is not a fixed point");
    }
    return std::string();
  }));
}

#if !defined(SEQHIDE_OBS_DISABLED)
uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}
#endif

// The screened support / match-count loop answers the same on every view
// of one database: the in-memory rows, the mapped rows with no signatures
// (no screen), the mapped rows with their ValidateRows signatures, and
// all-ones signatures (a screen that keeps every row). Alphabets run to
// 96 symbols, so ids 64 apart share a signature bit and ids 63, 127 share
// Δ's; each pattern also gets ghost variants whose last symbol is outside
// the alphabet, one of them on Δ's bit so Δ-marked rows pass the screen.
TEST(BinaryFormatProps, MappedKernelsEqualInMemoryKernels) {
  PropConfig config;
  config.name = "binary/screened-loop-differential";
  config.seed = 0x5eedb002;
  config.gen.min_alphabet = 2;
  config.gen.max_alphabet = 96;
  config.gen.delta_density = 0.2;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto mapped = MapInstance(inst);
    if (!mapped.ok()) return "write/open failed: " + mapped.status().ToString();
    std::vector<uint64_t> signatures;
    const Status valid = mapped->ValidateRows(&signatures);
    if (!valid.ok()) return "ValidateRows: " + valid.ToString();
    const std::vector<uint64_t> all_ones(inst.db.size(), ~uint64_t{0});
    const DatabaseView views[] = {
        DatabaseView(inst.db), mapped->view(),
        mapped->view().WithSignatures(signatures),
        mapped->view().WithSignatures(all_ones)};
    const char* view_names[] = {"in-memory", "mapped", "mapped+signatures",
                                "mapped+all-ones"};

    const SymbolId sigma = static_cast<SymbolId>(inst.db.alphabet().size());
    const SymbolId ghost_on_delta_bit = (sigma / 64 + 1) * 64 + 63;
    std::vector<Sequence> patterns;
    std::vector<ConstraintSpec> specs;
    for (size_t p = 0; p < inst.patterns.size(); ++p) {
      const ConstraintSpec spec = inst.constraints.empty()
                                      ? ConstraintSpec()
                                      : inst.constraints[p];
      patterns.push_back(inst.patterns[p]);
      specs.push_back(spec);
      for (SymbolId ghost : {sigma, ghost_on_delta_bit}) {
        const Sequence& base = inst.patterns[p];
        Sequence variant;
        for (size_t i = 0; i + 1 < base.size(); ++i) variant.Append(base[i]);
        variant.Append(ghost);
        patterns.push_back(std::move(variant));
        specs.push_back(spec);
      }
    }

    MatchScratch scratch;
    for (size_t p = 0; p < patterns.size(); ++p) {
      const Sequence& pattern = patterns[p];
      const ConstraintSpec& spec = specs[p];
      const size_t support = OracleSupport(pattern, spec, inst.db);
      uint64_t matchings = 0;
      for (size_t t = 0; t < inst.db.size(); ++t) {
        matchings = SatAdd(matchings,
                           OracleConstrainedCount(pattern, spec, inst.db[t]));
      }
      for (size_t v = 0; v < 4; ++v) {
        const std::string where = std::string(view_names[v]) + " S" +
                                  std::to_string(p) + " " +
                                  pattern.DebugString();
#if !defined(SEQHIDE_OBS_DISABLED)
        const uint64_t rows_before = CounterValue("bindb.candidate.rows");
        const uint64_t pruned_before = CounterValue("bindb.candidate.pruned");
#endif
        if (ConstrainedSupport(pattern, spec, views[v], &scratch) != support) {
          return "ConstrainedSupport != oracle on " + where;
        }
#if !defined(SEQHIDE_OBS_DISABLED)
        const uint64_t screened =
            (CounterValue("bindb.candidate.rows") - rows_before) +
            (CounterValue("bindb.candidate.pruned") - pruned_before);
        if (screened != inst.db.size()) {
          return "rows + pruned != |D| on " + where;
        }
#endif
        if (ConstrainedMatchCount(pattern, spec, views[v], &scratch) !=
            matchings) {
          return "ConstrainedMatchCount != oracle on " + where;
        }
      }
    }
    return std::string();
  }));
}

TEST(BinaryFormatProps, MappedSanitizeEqualsInMemorySanitize) {
  PropConfig config;
  config.name = "binary/mapped-sanitize-differential";
  config.seed = 0x5eedb003;
  config.cases = 100;  // two full sanitize runs per case
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto mapped = MapInstance(inst);
    if (!mapped.ok()) return "write/open failed: " + mapped.status().ToString();

    SequenceDatabase in_memory = inst.db;
    auto expected =
        Sanitize(&in_memory, inst.patterns, inst.constraints, inst.options);
    auto actual = SanitizeView(mapped->view(), inst.patterns,
                               inst.constraints, inst.options);
    if (expected.ok() != actual.ok()) {
      return "status mismatch: in-memory " + expected.status().ToString() +
             " vs mapped " + actual.status().ToString();
    }
    if (!expected.ok()) {
      // Same rejection either way (e.g. pattern longer than every row).
      return std::string();
    }
    const SanitizeReport& e = *expected;
    const SanitizeReport& a = actual->report;
    if (a.marks_introduced != e.marks_introduced ||
        a.sequences_sanitized != e.sequences_sanitized ||
        a.supports_before != e.supports_before ||
        a.supports_after != e.supports_after || a.degraded != e.degraded ||
        a.count_rows != e.count_rows ||
        a.verify_recount_rows != e.verify_recount_rows ||
        a.verify_rescan_rows != e.verify_rescan_rows) {
      return std::string("report mismatch: in-memory ") + e.ToString() +
             " vs mapped " + a.ToString();
    }
    std::ostringstream streamed;
    Status ws =
        WriteDatabase(mapped->view().Overlay(actual->overlay), streamed);
    if (!ws.ok()) return "WriteDatabase: " + ws.ToString();
    if (streamed.str() != WriteDatabaseToString(in_memory)) {
      return std::string("sanitized outputs differ byte-wise");
    }
    return std::string();
  }));
}

TEST(BinaryFormatProps, MappedStatsEqualsInMemoryStats) {
  PropConfig config;
  config.name = "binary/stats-differential";
  config.seed = 0x5eedb004;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto mapped = MapInstance(inst);
    if (!mapped.ok()) return "write/open failed: " + mapped.status().ToString();
    DatabaseStats a = inst.db.Stats();
    DatabaseStats b = mapped->Stats();
    if (a.num_sequences != b.num_sequences ||
        a.total_symbols != b.total_symbols || a.total_marks != b.total_marks ||
        a.min_length != b.min_length || a.max_length != b.max_length ||
        a.mean_length != b.mean_length ||
        a.alphabet_size != b.alphabet_size) {
      return std::string("DatabaseStats mismatch");
    }
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
