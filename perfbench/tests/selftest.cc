// Self-tests of the benchmark harness: its order statistics, slide
// bucketing, the oracle gate, and whole runs of every workload at a small
// input size. Run with `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <numeric>

#include "bench_util.h"
#include "core/engine.h"
#include "gate.h"
#include "workload/generators.h"
#include "workload/queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentileTest, CapsAtP99WhenTenSamplesLieBeyond) {
  const Tail tail = TailPercentile(OneTo(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail.q, 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.n, 1000u);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentileTest, FallsBackToHighestSupportedPercentile) {
  // 500 samples leave ten beyond p98 but only five beyond p99.
  const Tail tail = TailPercentile(OneTo(500), 0.99);
  EXPECT_DOUBLE_EQ(tail.q, 0.98);
  EXPECT_DOUBLE_EQ(tail.value, 490.0);
  EXPECT_EQ(tail.n, 500u);
  EXPECT_EQ(tail.beyond, 10u);
  // The order of the samples does not matter.
  std::vector<double> shuffled = OneTo(500);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_DOUBLE_EQ(TailPercentile(shuffled, 0.99).value, 490.0);
}

TEST(TailPercentileTest, TooFewSamplesReportTheMedian) {
  const Tail tail = TailPercentile(OneTo(10), 0.99);
  EXPECT_DOUBLE_EQ(tail.q, 0.5);
  EXPECT_DOUBLE_EQ(tail.value, 5.0);
  EXPECT_LT(tail.beyond, kTailSamples);
  EXPECT_EQ(TailPercentile({}, 0.99).n, 0u);
}

TEST(BucketBySlideTest, HandBuiltStream) {
  sgq::InputStream stream;
  for (sgq::Timestamp t : {0, 0, 3, 4, 4, 9, 10, 23}) {
    stream.emplace_back(1, 2, 0, t);
  }
  const std::vector<SlideRange> slides = BucketBySlide(stream, 4);
  ASSERT_EQ(slides.size(), 4u);
  const SlideRange want[] = {{0, 0, 3}, {4, 3, 5}, {8, 5, 7}, {20, 7, 8}};
  for (std::size_t i = 0; i < slides.size(); ++i) {
    EXPECT_EQ(slides[i].start, want[i].start) << i;
    EXPECT_EQ(slides[i].begin, want[i].begin) << i;
    EXPECT_EQ(slides[i].end, want[i].end) << i;
  }
  EXPECT_TRUE(BucketBySlide({}, 4).empty());
}

TEST(OracleGateTest, DroppingOneResultTupleFailsTheGate) {
  sgq::Vocabulary vocab;
  sgq::SoOptions so;
  so.seed = 5;
  so.num_vertices = 40;
  so.num_edges = 400;
  so.edges_per_hour = 2.5;
  so.deletion_probability = 0.15;
  auto stream = sgq::GenerateSoStream(so, &vocab);
  ASSERT_TRUE(stream.ok());
  const sgq::WindowSpec window(2 * sgq::kDay, sgq::kHour);
  auto query = sgq::MakeQuery("Answer(x,z) <- a2q+(x,y), c2q(y,z)", window,
                              &vocab);
  ASSERT_TRUE(query.ok());
  sgq::Engine engine;
  auto id = engine.AddQuery(*query, vocab);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Finalize().ok());
  for (const sgq::Sge& e : *stream) engine.Push(e);
  sgq::SgtStream results = engine.TakeResults(*id);

  OracleGate gate(*stream, window);
  const sgq::Timestamp t = stream->back().t;
  std::string why;
  auto ok = gate.Check(0, *query, vocab, results, t, &why);
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(*ok) << why;
  const sgq::VertexPairSet expected = ResultPairsAt(results, t);
  ASSERT_FALSE(expected.empty());

  // Drop the one tuple whose removal takes a pair out of the snapshot.
  bool dropped = false;
  for (std::size_t i = 0; i < results.size() && !dropped; ++i) {
    if (results[i].is_deletion || !results[i].validity.Contains(t)) continue;
    sgq::SgtStream fewer = results;
    fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(i));
    if (ResultPairsAt(fewer, t) == expected) continue;
    dropped = true;
    auto after = gate.Check(0, *query, vocab, fewer, t, &why);
    ASSERT_TRUE(after.ok());
    EXPECT_FALSE(*after);
    EXPECT_NE(why.find("1 pairs missing"), std::string::npos) << why;
  }
  EXPECT_TRUE(dropped);
}

RunOptions Small(const std::string& workload, std::uint64_t seed) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 0;
  options.scale = 0.05;
  return options;
}

TEST(RunWorkloadTest, SameSeedSameResultCountsAndAnotherSeedPasses) {
  auto first = RunWorkload(Small("so-deletes", 3));
  auto second = RunWorkload(Small("so-deletes", 3));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->correct) << first->errors.front();
  EXPECT_GT(first->gate_checks, 0u);
  ASSERT_EQ(first->result_counts.size(), 3u);
  EXPECT_GT(std::accumulate(first->result_counts.begin(),
                            first->result_counts.end(), std::size_t{0}),
            0u);
  EXPECT_EQ(first->result_counts, second->result_counts);

  auto other = RunWorkload(Small("so-deletes", 4));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->correct);
  EXPECT_NE(other->result_counts, first->result_counts);
}

TEST(RunWorkloadTest, EveryWorkloadPassesTheGateTracedAndUntraced) {
  for (const std::string& name : WorkloadNames()) {
    for (bool trace : {false, true}) {
      RunOptions options = Small(name, 7);
      options.trace = trace;
      auto report = RunWorkload(options);
      ASSERT_TRUE(report.ok()) << name;
      EXPECT_TRUE(report->correct)
          << name << " trace=" << trace << ": "
          << (report->errors.empty() ? "no gate checks"
                                     : report->errors.front());
      EXPECT_EQ(report->failed, 0u) << name;
      EXPECT_GT(report->gate_pairs, 0u) << name << ": the oracle was empty";
      EXPECT_FALSE(report->metrics.empty()) << name;
      for (const Metric& m : report->metrics) {
        if (!trace) EXPECT_GT(m.value, 0) << name << " " << m.name;
      }
    }
  }
}

TEST(RunWorkloadTest, UnknownWorkloadIsAnError) {
  EXPECT_FALSE(RunWorkload(Small("no-such-workload", 1)).ok());
}

}  // namespace
}  // namespace perfbench
