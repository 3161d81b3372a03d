// Tests for the label-discrimination query index (runtime/query_index.h,
// DESIGN.md §3.1) and the executor dispatch built on it:
//
//  - the posting-list container itself (insert order, wildcard bucket,
//    miss behavior);
//  - indexed dispatch matches the one-time oracle (snapshot reducibility,
//    Def. 14) at sampled instants at num_workers = 1, across batch sizes,
//    both PATH implementations, and deletion-heavy streams — the index
//    prunes guaranteed-no-op work, never semantics;
//  - sharded runs match the same oracle and are byte-deterministic
//    run-to-run;
//  - the index is maintained incrementally as queries are registered on
//    a live engine, and cross-query subtree sharing registers a shared
//    scan's posting exactly once;
//  - wildcard scans (kWScan with input_label = kInvalidLabel) land in
//    the always-on bucket, admit every label, and coexist with labeled
//    queries (both checked against the oracle);
//  - posting coverage: every label in a registered plan's admission
//    predicate (algebra/translate.h PlanAdmission) is findable in the
//    executor's index, and the index holds no label outside the union
//    of registered admission predicates.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "algebra/translate.h"
#include "core/engine.h"
#include "core/query_processor.h"
#include "runtime/query_index.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::OraclePairsAt;
using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

// ---------------------------------------------------------------------------
// QueryIndex container
// ---------------------------------------------------------------------------

TEST(QueryIndexTest, FindMissesReturnNullAndWildcardStartsEmpty) {
  QueryIndex index;
  EXPECT_EQ(index.Find(7), nullptr);
  EXPECT_TRUE(index.wildcard().empty());
  EXPECT_EQ(index.NumLabels(), 0u);
  EXPECT_EQ(index.NumPostings(), 0u);
  EXPECT_EQ(index.NumWildcard(), 0u);
}

TEST(QueryIndexTest, PostingsKeepRegistrationOrderPerLabel) {
  QueryIndex index;
  index.Add(3, /*op=*/5);
  index.Add(3, /*op=*/2, /*port=*/1);
  index.Add(9, /*op=*/7);
  const QueryIndex::PostingList* postings = index.Find(3);
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 2u);
  // Registration order, not op-id order: sources receive an edge in the
  // order their queries registered.
  EXPECT_EQ((*postings)[0].op, 5);
  EXPECT_EQ((*postings)[0].port, 0);
  EXPECT_EQ((*postings)[1].op, 2);
  EXPECT_EQ((*postings)[1].port, 1);
  EXPECT_EQ(index.NumLabels(), 2u);
  EXPECT_EQ(index.NumPostings(), 3u);
  EXPECT_EQ(index.Find(4), nullptr);
}

TEST(QueryIndexTest, WildcardBucketIsSeparateFromLabelPostings) {
  QueryIndex index;
  index.AddWildcard(11);
  index.Add(3, 5);
  index.AddWildcard(13);
  EXPECT_EQ(index.NumWildcard(), 2u);
  ASSERT_EQ(index.wildcard().size(), 2u);
  EXPECT_EQ(index.wildcard()[0].op, 11);
  EXPECT_EQ(index.wildcard()[1].op, 13);
  // Find() intentionally excludes the wildcard bucket: the dispatch
  // appends it after the label postings itself.
  const QueryIndex::PostingList* postings = index.Find(3);
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(postings->size(), 1u);
}

// ---------------------------------------------------------------------------
// Indexed dispatch vs the one-time oracle
// ---------------------------------------------------------------------------

struct Config {
  const char* query;
  PathImpl path_impl;
};

const Config kConfigs[] = {
    {"Answer(x,z) <- a(x,y), b(y,z)", PathImpl::kSPath},
    {"Answer(x,y) <- a+(x,y)", PathImpl::kSPath},
    {"Answer(x,y) <- a+(x,y)", PathImpl::kDeltaPath},
    {"Answer(x,z) <- a+(x,y), b(y,z)", PathImpl::kSPath},
    {"Answer(x,z) <- a+(x,y), b(y,z)", PathImpl::kDeltaPath},
};

InputStream DeletionHeavyStream(uint64_t seed, Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 150;
  opt.max_gap = 2;
  opt.deletion_probability = 0.2;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

std::vector<Sgt> RunEngine(const StreamingGraphQuery& query,
                           const Vocabulary& vocab,
                           const InputStream& stream,
                           EngineOptions options) {
  auto qp = QueryProcessor::FromQuery(query, vocab, options);
  EXPECT_TRUE(qp.ok()) << qp.status().ToString();
  if (!qp.ok()) return {};
  (*qp)->PushAll(stream);
  return (*qp)->results();
}

void ExpectByteIdentical(const std::vector<Sgt>& expected,
                         const std::vector<Sgt>& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i]) << context << " position " << i;
  }
}

/// \brief Asserts the snapshot of `results` equals the oracle's answer for
/// `query` at every sampled instant of `stream`.
void ExpectMatchesOracle(const std::vector<Sgt>& results,
                         const InputStream& stream,
                         const StreamingGraphQuery& query,
                         const Vocabulary& vocab,
                         const std::string& context) {
  for (Timestamp t : SampleTimes(stream, 8)) {
    ASSERT_EQ(ResultPairsAt(results, t), OraclePairsAt(stream, query, vocab, t))
        << context << " t=" << t;
  }
}

TEST(IndexedDispatchTest, SingleWorkerRunsMatchOracle) {
  for (uint64_t seed : {3u, 41u, 99u}) {
    for (const Config& config : kConfigs) {
      Vocabulary vocab;
      const InputStream stream = DeletionHeavyStream(seed, &vocab);
      auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
      ASSERT_TRUE(query.ok()) << config.query;
      for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
        EngineOptions options;
        options.path_impl = config.path_impl;
        options.batch_size = batch;
        ExpectMatchesOracle(
            RunEngine(*query, vocab, stream, options), stream, *query, vocab,
            std::string(config.query) + " batch=" + std::to_string(batch) +
                " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(IndexedDispatchTest, ShardedRunsMatchOracle) {
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(17, &vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      EngineOptions options;
      options.path_impl = config.path_impl;
      options.num_workers = workers;
      options.batch_size = 64;
      ExpectMatchesOracle(
          RunEngine(*query, vocab, stream, options), stream, *query, vocab,
          std::string(config.query) + " workers=" + std::to_string(workers));
    }
  }
}

TEST(IndexedDispatchTest, ShardedIndexedRunsAreByteDeterministic) {
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(23, &vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;
    EngineOptions options;
    options.path_impl = config.path_impl;
    options.num_workers = 4;
    options.batch_size = 64;
    ExpectByteIdentical(RunEngine(*query, vocab, stream, options),
                        RunEngine(*query, vocab, stream, options),
                        std::string(config.query) + " repeat");
  }
}

// ---------------------------------------------------------------------------
// Incremental maintenance while queries are registered
// ---------------------------------------------------------------------------

TEST(IndexMaintenanceTest, PostingsGrowWithEachRegisteredQuery) {
  Vocabulary vocab;
  const WindowSpec window(12, 3);
  Engine engine{EngineOptions{}};

  auto q_a = MakeQuery("Answer(x,y) <- a(x,y)", window, &vocab);
  ASSERT_TRUE(q_a.ok());
  ASSERT_TRUE(engine.AddQuery(*q_a, vocab).ok());
  const LabelId a = *vocab.FindLabel("a");
  const QueryIndex& index = engine.executor().query_index();
  EXPECT_EQ(index.NumLabels(), 1u);
  ASSERT_NE(index.Find(a), nullptr);
  EXPECT_EQ(index.Find(a)->size(), 1u);

  auto q_b = MakeQuery("Answer(x,z) <- b(x,y), b(y,z)", window, &vocab);
  ASSERT_TRUE(q_b.ok());
  ASSERT_TRUE(engine.AddQuery(*q_b, vocab).ok());
  const LabelId b = *vocab.FindLabel("b");
  EXPECT_EQ(index.NumLabels(), 2u);
  ASSERT_NE(index.Find(b), nullptr);
  EXPECT_EQ(index.Find(b)->size(), 1u);

  // Re-registering the a query dedups its scan against the live topology
  // (cross-query sharing), so the shared source's posting is NOT
  // duplicated: the index tracks operators, not subscriptions.
  ASSERT_TRUE(engine.AddQuery(*q_a, vocab).ok());
  EXPECT_EQ(index.NumLabels(), 2u);
  EXPECT_EQ(index.Find(a)->size(), 1u);
  EXPECT_EQ(index.NumWildcard(), 0u);

  // With sharing disabled every registration compiles private sources,
  // and the posting list for the label grows with the population.
  EngineOptions unshared;
  unshared.cross_query_sharing = false;
  Engine ablation{unshared};
  ASSERT_TRUE(ablation.AddQuery(*q_a, vocab).ok());
  ASSERT_TRUE(ablation.AddQuery(*q_a, vocab).ok());
  const QueryIndex& ablation_index = ablation.executor().query_index();
  ASSERT_NE(ablation_index.Find(a), nullptr);
  EXPECT_EQ(ablation_index.Find(a)->size(), 2u);
}

// ---------------------------------------------------------------------------
// Wildcard scans
// ---------------------------------------------------------------------------

/// \brief The label-agnostic query a wildcard scan answers: the union of
/// single-atom rules over every stream label.
StreamingGraphQuery AnyLabelQuery(const WindowSpec& window,
                                  Vocabulary* vocab) {
  auto query = MakeQuery(
      "Answer(x,y) <- a(x,y)\nAnswer(x,y) <- b(x,y)\nAnswer(x,y) <- c(x,y)",
      window, vocab);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return query.ok() ? *query : StreamingGraphQuery{};
}

TEST(WildcardSourceTest, WildcardScanAdmitsEveryLabel) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.num_labels = 3;
  opt.num_edges = 60;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  Engine engine{EngineOptions{}};
  // A bare wildcard scan: input_label = kInvalidLabel admits every
  // label; WScanOp re-emits each arriving element under its own label.
  const WindowSpec window(1000, 10);
  auto added = engine.AddPlan(*MakeWScan(kInvalidLabel, window), vocab);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_TRUE(engine.Finalize().ok());
  EXPECT_EQ(engine.executor().query_index().NumWildcard(), 1u);
  EXPECT_EQ(engine.executor().query_index().NumLabels(), 0u);
  engine.PushAll(*stream);
  // Every non-deletion element is admitted and emitted (the window
  // outlives the stream, so nothing expires).
  EXPECT_EQ(engine.results(*added).size(), stream->size());
  for (std::size_t i = 0; i < engine.results(*added).size(); ++i) {
    EXPECT_EQ(engine.results(*added)[i].label, (*stream)[i].label);
  }
  ExpectMatchesOracle(engine.results(*added), *stream,
                      AnyLabelQuery(window, &vocab), vocab, "wildcard scan");
}

TEST(WildcardSourceTest, WildcardAndLabelQueriesCoexist) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = 5;
  opt.num_labels = 3;
  opt.num_edges = 120;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  const WindowSpec window(12, 3);
  auto labeled = MakeQuery("Answer(x,z) <- a(x,y), b(y,z)", window, &vocab);
  ASSERT_TRUE(labeled.ok());

  Engine engine{EngineOptions{}};
  auto wildcard = engine.AddPlan(*MakeWScan(kInvalidLabel, window), vocab);
  ASSERT_TRUE(wildcard.ok());
  auto q = engine.AddQuery(*labeled, vocab);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(*stream);
  EXPECT_FALSE(engine.results(*wildcard).empty());
  ExpectMatchesOracle(engine.results(*wildcard), *stream,
                      AnyLabelQuery(window, &vocab), vocab, "wildcard");
  ExpectMatchesOracle(engine.results(*q), *stream, *labeled, vocab,
                      "labeled");
}

// ---------------------------------------------------------------------------
// Posting coverage: compile-time admission predicates vs the live index
// ---------------------------------------------------------------------------

TEST(PostingCoverageTest, AdmissionPredicateMatchesPlanLeaves) {
  Vocabulary vocab;
  ASSERT_TRUE(vocab.InternInputLabel("a").ok());
  ASSERT_TRUE(vocab.InternInputLabel("b").ok());
  auto query =
      MakeQuery("Answer(x,z) <- a+(x,y), b(y,z)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  auto plan = TranslateToCanonicalPlan(*query, vocab);
  ASSERT_TRUE(plan.ok());
  const AdmissionPredicate admission = PlanAdmission(**plan);
  EXPECT_FALSE(admission.wildcard);
  std::vector<LabelId> expected = {*vocab.FindLabel("a"),
                                   *vocab.FindLabel("b")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(admission.labels, expected);

  const AdmissionPredicate wild =
      PlanAdmission(*MakeWScan(kInvalidLabel, WindowSpec(12, 3)));
  EXPECT_TRUE(wild.wildcard);
  EXPECT_TRUE(wild.labels.empty());
}

TEST(PostingCoverageTest, IndexCoversExactlyTheRegisteredAdmissions) {
  const char* kTexts[] = {
      "Answer(x,y) <- a(x,y)",
      "Answer(x,z) <- a(x,y), b(y,z)",
      "Answer(x,y) <- b+(x,y)",
      "Answer(x,z) <- c+(x,y), a(y,z)",
      "Answer(x,w) <- a(x,y), b(y,z), c(z,w)",
  };
  Vocabulary vocab;
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(vocab.InternInputLabel(name).ok());
  }

  Engine engine{EngineOptions{}};
  std::set<LabelId> admitted;
  bool any_wildcard = false;
  for (const char* text : kTexts) {
    auto query = MakeQuery(text, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << text;
    auto plan = TranslateToCanonicalPlan(*query, vocab);
    ASSERT_TRUE(plan.ok()) << text;
    const AdmissionPredicate admission = PlanAdmission(**plan);
    admitted.insert(admission.labels.begin(), admission.labels.end());
    any_wildcard |= admission.wildcard;
    ASSERT_TRUE(engine.AddPlan(**plan, vocab).ok()) << text;

    // Invariant at every registration point, not just at the end: each
    // admission label is findable with at least one valid posting.
    const QueryIndex& index = engine.executor().query_index();
    for (LabelId label : admission.labels) {
      const QueryIndex::PostingList* postings = index.Find(label);
      ASSERT_NE(postings, nullptr)
          << text << " label " << vocab.LabelName(label);
      EXPECT_FALSE(postings->empty());
      for (const SourcePosting& posting : *postings) {
        EXPECT_GE(posting.op, 0);
        EXPECT_LT(static_cast<std::size_t>(posting.op),
                  engine.executor().NumOps());
      }
    }
  }

  // No stray postings: the index's label set is exactly the union of the
  // registered plans' admission predicates, and nothing registered a
  // wildcard bucket entry.
  const QueryIndex& index = engine.executor().query_index();
  const std::vector<LabelId> labels = index.Labels();
  const std::set<LabelId> indexed(labels.begin(), labels.end());
  EXPECT_EQ(indexed, admitted);
  EXPECT_EQ(index.NumWildcard(), any_wildcard ? 1u : 0u);
}

}  // namespace
}  // namespace sgq
