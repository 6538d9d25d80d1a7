// Differential property for seqhide_server's query path: on seeded random
// instances, every support / match-count answer a live server gives must
// equal the direct kernels (HasConstrainedMatch, CountConstrainedMatchings)
// run row by row over the materialized image.
//
// Each case writes the instance database twice — as a text file and as a
// seqhidb image, the two builders of the per-row symbol signatures — and
// stands up real servers over a Unix socket with 1, 2 and 8 workers,
// playing one pipelined volley cold and then warm (every answer a cache
// hit the second time). The instances cover what the signature screen
// must never get wrong:
//   * constrained patterns (gap and window specs);
//   * unknown symbols, interned into a request-private alphabet;
//   * Δ-marked rows, as in a sanitized image (Δ folds onto a shared bit);
//   * alphabets above 64 symbols, where distinct symbols share a bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/seq/binary_format.h"
#include "src/seq/database.h"
#include "src/seq/io.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

using serve::Method;
using serve::Request;
using serve::Response;
using serve::ServeClient;
using serve::Server;
using serve::ServerOptions;

// Instances with Δ-marked rows and alphabets from 2 to 96 symbols, so
// about a third of the cases fold several symbols onto one signature bit.
GenOptions ServeGen() {
  GenOptions gen;
  gen.min_sequences = 1;
  gen.max_sequences = 12;
  gen.min_length = 1;
  gen.max_length = 12;
  gen.min_alphabet = 2;
  gen.max_alphabet = 96;
  gen.delta_density = 0.1;
  gen.max_patterns = 3;
  gen.randomize_options = false;
  return gen;
}

// Renders a pattern + constraints in the wire text syntax
// ("a ->[0..2] b ; window<=5"); ConstraintSpec::ToString() is a debug
// format, not parser input.
std::string PatternText(const Alphabet& alphabet, const Sequence& pattern,
                        const ConstraintSpec& spec) {
  std::string out;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i > 0) {
      const GapBound g = spec.gap(i - 1);
      if (g.IsUnconstrained()) {
        out += " -> ";
      } else {
        out += " ->[";
        if (g.min_gap == g.max_gap) {
          out += std::to_string(g.min_gap);
        } else if (g.max_gap == GapBound::kNoMax) {
          out += std::to_string(g.min_gap) + "..";
        } else if (g.min_gap == 0) {
          out += ".." + std::to_string(g.max_gap);
        } else {
          out += std::to_string(g.min_gap) + ".." + std::to_string(g.max_gap);
        }
        out += "] ";
      }
    }
    out += alphabet.Name(pattern[i]);
  }
  if (spec.HasWindow()) {
    out += " ; window<=" + std::to_string(*spec.max_window());
  }
  return out;
}

// One request per pattern (alternating methods), the whole set under
// both methods, and a set holding an unknown symbol. Deduped by
// (method, pattern-set) fingerprint: two identical requests in flight
// would race for the cache miss, making the cache field scheduling-
// dependent.
std::vector<Request> BuildVolley(const PropInstance& inst) {
  const Alphabet& alphabet = inst.db.alphabet();
  std::vector<std::string> texts;
  for (size_t i = 0; i < inst.patterns.size(); ++i) {
    // An all-unconstrained instance may carry no specs at all.
    texts.push_back(PatternText(alphabet, inst.patterns[i],
                                inst.constraints.empty()
                                    ? ConstraintSpec()
                                    : inst.constraints[i]));
  }
  std::vector<Request> volley;
  std::set<uint64_t> seen;
  uint64_t id = 1;
  auto add = [&](Method method, std::vector<std::string> patterns) {
    const uint64_t fp =
        serve::FingerprintPatterns(serve::MethodName(method), patterns);
    if (!seen.insert(fp).second) return;
    Request req;
    req.id = id++;
    req.method = method;
    req.patterns = std::move(patterns);
    volley.push_back(std::move(req));
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    add(i % 2 == 0 ? Method::kMatchCount : Method::kSupport, {texts[i]});
  }
  add(Method::kMatchCount, texts);
  add(Method::kSupport, texts);
  const std::string first = alphabet.Name(inst.patterns[0][0]);
  add(Method::kSupport, {"ghost", first + " -> ghost", texts[0]});
  add(Method::kMatchCount, {"ghost -> " + first, texts[0]});
  return volley;
}

// The expected values of every request, from the direct kernels over the
// image as a materialized database (patterns parsed into a copy of its
// alphabet, as the server does).
Result<std::map<uint64_t, std::vector<uint64_t>>> ExpectedValues(
    const SequenceDatabase& image, const std::vector<Request>& volley) {
  std::map<uint64_t, std::vector<uint64_t>> out;
  for (const Request& req : volley) {
    Alphabet alphabet = image.alphabet();
    std::vector<uint64_t>& values = out[req.id];
    for (const std::string& text : req.patterns) {
      SEQHIDE_ASSIGN_OR_RETURN(ConstrainedPattern cp,
                               ParseConstrainedPattern(&alphabet, text));
      uint64_t value = 0;
      for (const Sequence& row : image.sequences()) {
        if (req.method == Method::kSupport) {
          if (HasConstrainedMatch(cp.pattern, cp.constraints, row)) ++value;
        } else {
          value = SatAdd(value, CountConstrainedMatchings(
                                    cp.pattern, cp.constraints, row));
        }
      }
      values.push_back(value);
    }
  }
  return out;
}

// Pipelines the volley (all sends, then all receives) and checks every
// response against `want`, expecting cache field `cache`. Returns "" or
// the first divergence.
std::string PlayVolley(ServeClient* client, const std::vector<Request>& volley,
                       const std::map<uint64_t, std::vector<uint64_t>>& want,
                       const std::string& cache, const std::string& tag) {
  for (const Request& req : volley) {
    const Status sent = client->Send(req);
    if (!sent.ok()) return tag + ": send failed: " + sent.ToString();
  }
  std::set<uint64_t> answered;
  for (size_t i = 0; i < volley.size(); ++i) {
    auto resp = client->Receive();
    if (!resp.ok()) {
      return tag + ": receive failed: " + resp.status().ToString();
    }
    if (!answered.insert(resp->id).second || want.count(resp->id) == 0) {
      return tag + ": unexpected response id " + std::to_string(resp->id);
    }
    if (resp->status != "ok") {
      return tag + ": id " + std::to_string(resp->id) + " answered " +
             resp->status + ": " + resp->error;
    }
    Response expected;
    expected.id = resp->id;
    expected.values = want.at(resp->id);
    expected.cache = cache;
    resp->queue_us = 0;
    resp->work_us = 0;
    const std::string got_line = serve::SerializeResponse(*resp);
    const std::string want_line = serve::SerializeResponse(expected);
    if (got_line != want_line) {
      return tag + ": id " + std::to_string(resp->id) +
             " diverges:\n  server:  " + got_line +
             "\n  kernels: " + want_line;
    }
  }
  return std::string();
}

// Boots a server over `db_path` with `workers` workers, plays the volley
// cold and warm, and drains.
std::string CheckServer(const std::string& db_path, const std::string& socket,
                        size_t workers, const std::vector<Request>& volley,
                        const std::map<uint64_t, std::vector<uint64_t>>& want,
                        const std::string& tag) {
  ServerOptions opts;
  opts.db_path = db_path;
  opts.socket_path = socket;
  opts.num_workers = workers;
  opts.cache_entries = 128;
  auto server = Server::Create(opts);
  if (!server.ok()) {
    return tag + ": create failed: " + server.status().ToString();
  }
  const Status started = (*server)->Start();
  if (!started.ok()) return tag + ": start failed: " + started.ToString();
  std::string error;
  auto client = ServeClient::ConnectUnix(socket);
  if (!client.ok()) {
    error = tag + ": connect failed: " + client.status().ToString();
  } else {
    error = PlayVolley(client->get(), volley, want, "miss", tag + " cold");
    if (error.empty()) {
      error = PlayVolley(client->get(), volley, want, "hit", tag + " warm");
    }
  }
  (*server)->RequestDrain();
  (*server)->Join();
  std::remove(socket.c_str());
  return error;
}

TEST(ServeProps, AnswersEqualDirectKernelsOnTextAndBinaryImages) {
  PropConfig config;
  config.name = "serve/answers-equal-kernels";
  config.seed = 0x5e7e51;
  // Each case boots eight real servers (two images × four worker counts,
  // 0 = one per hardware thread)
  // and plays the volley twice on each — fewer, richer cases.
  config.cases = 20;
  config.gen = ServeGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    const std::string dir = ::testing::TempDir();
    const std::string text_path = dir + "/prop_serve_db.txt";
    const std::string binary_path = dir + "/prop_serve_db.sdb";
    Status written = WriteDatabaseToFile(inst.db, text_path);
    if (written.ok()) written = WriteBinaryDatabaseToFile(inst.db, binary_path);
    if (!written.ok()) return "write failed: " + written.ToString();

    // The images as the server reads them.
    auto text_image = ReadDatabaseFromFile(text_path);
    if (!text_image.ok()) return "text reread: " + text_image.status().ToString();
    auto mapped = MappedDatabase::OpenMapped(binary_path);
    if (!mapped.ok()) return "open: " + mapped.status().ToString();
    auto binary_image = mapped->ToDatabase();
    if (!binary_image.ok()) {
      return "materialize: " + binary_image.status().ToString();
    }

    const std::vector<Request> volley = BuildVolley(inst);
    int variant = 0;
    for (const auto& [path, image] :
         {std::pair<std::string, const SequenceDatabase*>{text_path,
                                                          &*text_image},
          {binary_path, &*binary_image}}) {
      auto want = ExpectedValues(*image, volley);
      if (!want.ok()) return "expected: " + want.status().ToString();
      for (const size_t workers : {0u, 1u, 2u, 8u}) {
        const std::string tag = path.substr(path.rfind('.')) +
                                " workers=" + std::to_string(workers);
        const std::string socket =
            dir + "/prop_serve_" + std::to_string(variant++) + ".sock";
        const std::string error =
            CheckServer(path, socket, workers, volley, *want, tag);
        if (!error.empty()) return error;
      }
    }
    std::remove(text_path.c_str());
    std::remove(binary_path.c_str());
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
