// Batch-path tests for seqhide_server: the batcher's planning rules
// (union dedup, per-origin slot attribution, solo-path error precedence,
// shared-alphabet interning), the union counting kernel against the
// scalar reference, and deterministic end-to-end coalescing — pipelined
// queries against a batching server must answer byte-identically (modulo
// timings) to a `--batch-max-size 1` reference server, with errors and
// constrained members isolated to their own responses.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/count.h"
#include "src/match/pattern_trie.h"
#include "src/match/scratch.h"
#include "src/match/subsequence.h"
#include "src/seq/database.h"
#include "src/serve/batcher.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "tests/test_util.h"

namespace seqhide {
namespace serve {
namespace {

// ----------------------------------------------------------------- planner

TEST(BatcherTest, OnlyCountingQueriesAreBatchable) {
  EXPECT_TRUE(BatchableMethod(Method::kSupport));
  EXPECT_TRUE(BatchableMethod(Method::kMatchCount));
  EXPECT_FALSE(BatchableMethod(Method::kPing));
  EXPECT_FALSE(BatchableMethod(Method::kSanitize));
}

TEST(PatternSetUnionTest, DedupsIdenticalPatternsAcrossOrigins) {
  Alphabet alphabet;
  const Sequence ab = Sequence::FromNames(&alphabet, {"a", "b"});
  const Sequence bc = Sequence::FromNames(&alphabet, {"b", "c"});
  const Sequence ca = Sequence::FromNames(&alphabet, {"c", "a"});

  PatternSetUnion u;
  const size_t o0 = u.AddOrigin({ab, bc});
  const size_t o1 = u.AddOrigin({bc, ca, ab});
  ASSERT_EQ(u.num_origins(), 2u);
  // {ab, bc} ∪ {bc, ca, ab} = {ab, bc, ca}, first-seen order.
  ASSERT_EQ(u.union_patterns().size(), 3u);
  EXPECT_EQ(u.slot(o0, 0), 0u);  // ab
  EXPECT_EQ(u.slot(o0, 1), 1u);  // bc
  EXPECT_EQ(u.slot(o1, 0), 1u);  // bc, shared
  EXPECT_EQ(u.slot(o1, 1), 2u);  // ca, fresh
  EXPECT_EQ(u.slot(o1, 2), 0u);  // ab, shared
}

TEST(BatcherTest, PlanDedupsAndAttributesSlots) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  alphabet.Intern("c");

  Request r0;
  r0.method = Method::kMatchCount;
  r0.patterns = {"a -> b", "b -> c"};
  Request r1;
  r1.method = Method::kSupport;
  r1.patterns = {"b -> c", "a -> b"};  // same set, different order

  const BatchPlan plan = BuildBatchPlan(alphabet, {&r0, &r1});
  ASSERT_EQ(plan.members.size(), 2u);
  EXPECT_TRUE(plan.members[0].error.ok());
  EXPECT_TRUE(plan.members[1].error.ok());
  // Two distinct patterns total, each member reads its own order.
  EXPECT_EQ(plan.union_size(), 2u);
  ASSERT_EQ(plan.members[0].slots.size(), 2u);
  ASSERT_EQ(plan.members[1].slots.size(), 2u);
  EXPECT_EQ(plan.members[0].slots[0], plan.members[1].slots[1]);  // a -> b
  EXPECT_EQ(plan.members[0].slots[1], plan.members[1].slots[0]);  // b -> c
}

TEST(BatcherTest, ConstrainedPatternsStaySoloInsideTheBatch) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");

  Request req;
  req.method = Method::kMatchCount;
  req.patterns = {"a -> b", "a ->[0..1] b", "a -> b ; window<=4"};

  const BatchPlan plan = BuildBatchPlan(alphabet, {&req});
  ASSERT_EQ(plan.members.size(), 1u);
  ASSERT_TRUE(plan.members[0].error.ok());
  ASSERT_EQ(plan.members[0].slots.size(), 3u);
  EXPECT_EQ(plan.union_size(), 1u);  // only the unconstrained pattern
  EXPECT_EQ(plan.members[0].slots[0], 0u);
  EXPECT_EQ(plan.members[0].slots[1], BatchPlan::kSoloPattern);
  EXPECT_EQ(plan.members[0].slots[2], BatchPlan::kSoloPattern);
}

TEST(BatcherTest, ErrorPrecedenceMatchesSoloPath) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");

  // Pattern-order precedence: the member's reported error is its FIRST
  // failing pattern's, exactly as the solo path reports it.
  Request first_error_wins;
  first_error_wins.method = Method::kSupport;
  first_error_wins.patterns = {"a -> b", "a ->[bogus] b",
                               "a -> b ; window<=1"};

  // A member whose only failure is an unsatisfiable window.
  Request window_too_small;
  window_too_small.method = Method::kSupport;
  window_too_small.patterns = {"a -> b ; window<=1"};

  // A healthy member sharing the batch with both broken ones.
  Request healthy;
  healthy.method = Method::kSupport;
  healthy.patterns = {"a -> b"};

  const BatchPlan plan = BuildBatchPlan(
      alphabet, {&first_error_wins, &window_too_small, &healthy});
  ASSERT_EQ(plan.members.size(), 3u);
  EXPECT_TRUE(plan.members[0].error.IsInvalidArgument());
  // The second pattern's gap-spec failure, not the third's window.
  EXPECT_NE(plan.members[0].error.message().find("bogus"), std::string::npos)
      << plan.members[0].error;
  EXPECT_TRUE(plan.members[1].error.IsInvalidArgument());
  EXPECT_NE(plan.members[1].error.message().find("window"), std::string::npos)
      << plan.members[1].error;
  EXPECT_TRUE(plan.members[2].error.ok());
  EXPECT_EQ(plan.union_size(), 1u);  // only the healthy member contributes
  EXPECT_EQ(plan.members[2].slots[0], 0u);
}

TEST(BatcherTest, SharedAlphabetInternsUnseenSymbolsConsistently) {
  Alphabet alphabet;
  alphabet.Intern("a");
  const size_t before = alphabet.size();

  Request r0;
  r0.method = Method::kMatchCount;
  r0.patterns = {"a -> ghost"};
  Request r1;
  r1.method = Method::kMatchCount;
  r1.patterns = {"a -> ghost"};

  const BatchPlan plan = BuildBatchPlan(alphabet, {&r0, &r1});
  ASSERT_TRUE(plan.members[0].error.ok());
  ASSERT_TRUE(plan.members[1].error.ok());
  // Both members interned "ghost" into the same private id, so the two
  // pattern instances deduped into one union slot...
  EXPECT_EQ(plan.union_size(), 1u);
  EXPECT_EQ(plan.members[0].slots[0], plan.members[1].slots[0]);
  // ...and the serving alphabet itself was never mutated.
  EXPECT_EQ(alphabet.size(), before);
}

// ------------------------------------------------------------ union kernel

TEST(CountUnionOverDbTest, MatchesScalarCountsAndSupports) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b", "c", "a", "b"});
  db.AddFromNames({"b", "c", "a", "b", "c"});
  db.AddFromNames({"a", "a", "b", "b", "c"});
  db.AddFromNames({"c", "b", "a", "b", "a"});

  Alphabet alphabet = db.alphabet();
  const std::vector<Sequence> patterns = {
      Sequence::FromNames(&alphabet, {"a", "b"}),
      Sequence::FromNames(&alphabet, {"b", "c"}),
      Sequence::FromNames(&alphabet, {"a", "b", "c"}),
      Sequence::FromNames(&alphabet, {"c", "c", "c"}),  // zero matches
  };

  const PatternTrie trie(patterns, {});
  MatchScratch scratch;
  std::vector<uint64_t> totals;
  std::vector<uint64_t> supports;
  ASSERT_TRUE(
      CountUnionOverDb(trie, DatabaseView(db), &scratch, &totals, &supports));
  ASSERT_EQ(totals.size(), patterns.size());
  ASSERT_EQ(supports.size(), patterns.size());

  for (size_t p = 0; p < patterns.size(); ++p) {
    uint64_t want_total = 0;
    for (size_t row = 0; row < db.size(); ++row) {
      want_total = SatAdd(want_total, CountMatchings(patterns[p], db[row]));
    }
    EXPECT_EQ(totals[p], want_total) << "pattern " << p;
    EXPECT_EQ(supports[p], Support(patterns[p], db)) << "pattern " << p;
  }
}

// ------------------------------------------------------------- end to end

// Two servers over the same database file: `batched` coalesces (size 8,
// generous window), `reference` is pinned to the legacy solo path with
// --batch-max-size 1. Caches are disabled on both so every request
// recomputes and the comparison is compute-vs-compute.
class ServerBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::UniqueTestDir();
    db_path_ = dir_ + "/serve_batch_db.txt";
    std::ofstream out(db_path_);
    out << "a b c a b\nb c a b c\na a b b c\nc b a b a\n";
    out.close();
  }

  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  ServerOptions Options(const std::string& socket, size_t batch_max_size) {
    ServerOptions opts;
    opts.db_path = db_path_;
    opts.socket_path = dir_ + "/" + socket;
    opts.num_workers = 2;
    opts.cache_entries = 0;
    opts.batch_max_size = batch_max_size;
    opts.batch_max_wait_us = 50000;  // plenty for a pipelined volley
    return opts;
  }

  std::unique_ptr<Server> StartServer(const ServerOptions& opts) {
    auto created = Server::Create(opts);
    EXPECT_TRUE(created.ok()) << created.status();
    if (!created.ok()) return nullptr;
    const Status started = (*created)->Start();
    EXPECT_TRUE(started.ok()) << started;
    return std::move(created).value();
  }

  // Sends the volley pipelined (all Sends, then all Receives) and returns
  // the responses keyed by request id, with timings zeroed so responses
  // can be compared byte-for-byte across servers.
  std::map<uint64_t, std::string> Volley(ServeClient* client,
                                         const std::vector<Request>& reqs) {
    std::map<uint64_t, std::string> out;
    for (const Request& req : reqs) {
      const Status sent = client->Send(req);
      EXPECT_TRUE(sent.ok()) << sent;
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
      auto resp = client->Receive();
      EXPECT_TRUE(resp.ok()) << resp.status();
      if (!resp.ok()) break;
      resp->queue_us = 0;
      resp->work_us = 0;
      out[resp->id] = SerializeResponse(*resp);
    }
    return out;
  }

  std::string dir_;
  std::string db_path_;
};

TEST_F(ServerBatchTest, CoalescedVolleyIsByteIdenticalToSoloServer) {
  auto batched = StartServer(Options("batched.sock", 8));
  auto reference = StartServer(Options("reference.sock", 1));
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(reference, nullptr);

  std::vector<Request> volley;
  const std::vector<std::vector<std::string>> pattern_sets = {
      {"a -> b"},
      {"b -> c", "a -> b"},            // overlaps the first member
      {"a -> b -> c"},
      {"a ->[0..1] b", "c -> a"},      // constrained + shared-eligible
      {"ghost -> a"},                  // unseen symbol, counts zero
      {"a ->[oops] b"},                // parse error, isolated
  };
  uint64_t id = 100;
  for (size_t i = 0; i < pattern_sets.size(); ++i) {
    Request req;
    req.id = id++;
    req.method = i % 2 == 0 ? Method::kMatchCount : Method::kSupport;
    req.patterns = pattern_sets[i];
    volley.push_back(req);
  }

  auto batched_client = ServeClient::ConnectUnix(batched->socket_path());
  auto reference_client = ServeClient::ConnectUnix(reference->socket_path());
  ASSERT_TRUE(batched_client.ok()) << batched_client.status();
  ASSERT_TRUE(reference_client.ok()) << reference_client.status();

  const auto got = Volley(batched_client->get(), volley);
  const auto want = Volley(reference_client->get(), volley);
  ASSERT_EQ(got.size(), volley.size());
  ASSERT_EQ(want.size(), volley.size());
  for (const auto& [rid, line] : want) {
    auto it = got.find(rid);
    ASSERT_NE(it, got.end()) << "missing response for id " << rid;
    EXPECT_EQ(it->second, line) << "id " << rid;
  }

  batched->RequestDrain();
  batched->Join();
  reference->RequestDrain();
  reference->Join();

  // The volley actually coalesced on the batching server...
  EXPECT_GE(batched->stats().batches, 1u);
  EXPECT_GE(batched->stats().coalesced, 2u);
  // ...and never on the reference server.
  EXPECT_EQ(reference->stats().batches, 0u);
  EXPECT_EQ(reference->stats().coalesced, 0u);
  // Batch composition is invisible to the semantic outcome counters: one
  // invalid member, five ok, on both servers.
  EXPECT_EQ(batched->stats().requests_ok, 5u);
  EXPECT_EQ(batched->stats().requests_error, 1u);
  EXPECT_EQ(reference->stats().requests_ok, 5u);
  EXPECT_EQ(reference->stats().requests_error, 1u);
}

TEST_F(ServerBatchTest, SingleQueryThroughBatchPathMatchesSolo) {
  // batch_max_size > 1 routes even a lone query through the batch
  // machinery (window opens, nobody else arrives): same bytes out.
  ServerOptions opts = Options("single.sock", 4);
  opts.batch_max_wait_us = 100;  // don't stall the lone request
  auto batched = StartServer(opts);
  auto reference = StartServer(Options("single_ref.sock", 1));
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(reference, nullptr);

  Request req;
  req.id = 7;
  req.method = Method::kMatchCount;
  req.patterns = {"a -> b", "b -> c"};

  auto batched_client = ServeClient::ConnectUnix(batched->socket_path());
  auto reference_client = ServeClient::ConnectUnix(reference->socket_path());
  ASSERT_TRUE(batched_client.ok()) << batched_client.status();
  ASSERT_TRUE(reference_client.ok()) << reference_client.status();

  const auto got = Volley(batched_client->get(), {req});
  const auto want = Volley(reference_client->get(), {req});
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(got.at(7), want.at(7));

  batched->RequestDrain();
  batched->Join();
  reference->RequestDrain();
  reference->Join();
  EXPECT_EQ(batched->stats().coalesced, 0u);  // solo pass, not coalesced
}

}  // namespace
}  // namespace serve
}  // namespace seqhide
