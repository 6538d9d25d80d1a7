// Generates structured seed corpora for the libFuzzer harnesses in
// tests/fuzz/ from the property-testing generators (src/testing/), so the
// fuzzers start from inputs that already exercise the deep parser paths
// (marked symbols, long rows, many-symbol alphabets, nested JSON) instead
// of having to discover the formats by mutation.
//
// Usage: gen_fuzz_corpus <corpus_root> [files_per_harness] [seed]
//
// Writes <corpus_root>/db_reader/gen_<nn>.txt,
// <corpus_root>/json/gen_<nn>.json and
// <corpus_root>/binary_db/gen_<nn>.hidb (seqhidb v1 images for the
// binary reader harness; even indexes keep the prefix index, odd ones
// drop it so both layouts are seeded). Deterministic for a fixed seed;
// the checked-in corpus under tests/fuzz/corpus/ was produced with the
// defaults (12 files per harness, seed 0xC0B905).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/common/random.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"
#include "src/testing/generators.h"

namespace seqhide {
namespace {

proptest::GenOptions CorpusGenOptions(uint64_t index) {
  proptest::GenOptions gen;
  // Sweep sizes with the file index so the corpus spans tiny through
  // mid-sized inputs rather than clustering around the defaults.
  gen.min_sequences = 1;
  gen.max_sequences = 2 + index % 7;
  gen.min_length = 0;
  gen.max_length = 4 + 2 * (index % 5);
  gen.min_alphabet = 1 + index % 4;
  gen.max_alphabet = 2 + index % 6;
  if (gen.min_alphabet > gen.max_alphabet) gen.min_alphabet = gen.max_alphabet;
  gen.delta_density = 0.05 * static_cast<double>(index % 6);
  return gen;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// A stats-json-shaped document derived from a generated instance: the
// same nesting the CLI's --stats-json output uses, plus an array-of-rows
// encoding of the database to cover arrays, negatives, and nulls.
std::string InstanceToJson(const proptest::PropInstance& inst, Rng* rng) {
  std::string out = "{\"schema\":1,\"db\":[";
  for (size_t t = 0; t < inst.db.size(); ++t) {
    if (t > 0) out.push_back(',');
    out.push_back('[');
    for (size_t i = 0; i < inst.db[t].size(); ++i) {
      if (i > 0) out.push_back(',');
      out += std::to_string(inst.db[t][i]);  // Δ serializes as -1
    }
    out.push_back(']');
  }
  out += "],\"patterns\":[";
  for (size_t p = 0; p < inst.patterns.size(); ++p) {
    if (p > 0) out.push_back(',');
    out += "\"" + JsonEscape(inst.patterns[p].ToString(inst.db.alphabet())) +
           "\"";
  }
  out += "],\"options\":{\"psi\":" + std::to_string(inst.options.psi) +
         ",\"threads\":" + std::to_string(inst.options.num_threads) +
         ",\"verify\":" + (inst.options.verify ? "true" : "false") +
         ",\"note\":" + (rng->NextBernoulli(0.5) ? "null" : "\"g\\u00e9n\"") +
         ",\"ratio\":" + std::to_string(rng->NextDouble()) + "}}";
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
  return true;
}

}  // namespace
}  // namespace seqhide

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <corpus_root> [files_per_harness] [seed]\n",
                 argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  const uint64_t count = argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 12;
  const uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 0) : 0xC0B905;

  seqhide::Rng rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    seqhide::proptest::PropInstance inst =
        seqhide::proptest::GenInstance(&rng, seqhide::CorpusGenOptions(i));

    char name[32];
    std::snprintf(name, sizeof(name), "gen_%02llu",
                  static_cast<unsigned long long>(i));
    if (!seqhide::WriteFile(root + "/db_reader/" + name + ".txt",
                            seqhide::WriteDatabaseToString(inst.db))) {
      return 1;
    }
    if (!seqhide::WriteFile(root + "/json/" + name + ".json",
                            seqhide::InstanceToJson(inst, &rng))) {
      return 1;
    }
    seqhide::BinaryWriteOptions bin_opts;
    bin_opts.prefix_k = (i % 2 == 0) ? 2 : 0;
    auto image = seqhide::WriteBinaryDatabaseToString(inst.db, bin_opts);
    if (!image.ok()) {
      std::fprintf(stderr, "binary serialization failed: %s\n",
                   image.status().ToString().c_str());
      return 1;
    }
    if (!seqhide::WriteFile(root + "/binary_db/" + name + ".hidb", *image)) {
      return 1;
    }
  }
  return 0;
}
