// Engine-level crash recovery (DESIGN.md §7): kill/restore/resume must be
// indistinguishable from never having crashed. The differential runs a
// deletion-heavy stream uninterrupted, then re-runs it through the
// RunSgaCheckpointKill harness (checkpoint → keep running → simulated
// SIGKILL → fresh engine → Restore → resume) and demands *byte-identical*
// results at workers=1 — at every batch boundary, across PathImpl × batch
// size. The fault-injection half mutilates real engine snapshots (per-
// section corruption, truncation at every frame boundary, identity skew,
// vocabulary conflicts) and demands a positioned rejection with no crash
// and no partial restore observable.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query_processor.h"
#include "model/checkpoint.h"
#include "model/stream_io.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/harness.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::TempPath;

/// \brief Deletion-heavy stream: deletions land on live window state, so
/// checkpoints capture truncated intervals, scrubbed PATTERN ports, and
/// lazily enabled reverse indexes — the state most likely to diverge.
InputStream DeletionHeavyStream(Vocabulary* vocab, std::uint64_t seed,
                                std::size_t num_edges) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = 10;
  opt.num_labels = 3;
  opt.num_edges = num_edges;
  opt.max_gap = 2;
  opt.deletion_probability = 0.25;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return *stream;
}

/// \brief The uninterrupted reference: same engine configuration, never
/// crashed, full stream.
std::vector<Sgt> ReferenceRun(const InputStream& stream,
                              const StreamingGraphQuery& query,
                              const Vocabulary& vocab,
                              const EngineOptions& options) {
  auto qp = QueryProcessor::FromQuery(query, vocab, options);
  EXPECT_TRUE(qp.ok()) << qp.status().ToString();
  (*qp)->PushAll(stream);
  return (*qp)->results();
}

/// \brief Field-wise, *order-sensitive* comparison: the byte-identical bar
/// of the determinism ladder, not just multiset equality.
void ExpectIdenticalResults(const std::vector<Sgt>& expected,
                            const std::vector<Sgt>& actual,
                            const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Sgt& e = expected[i];
    const Sgt& a = actual[i];
    ASSERT_TRUE(e.src == a.src && e.trg == a.trg && e.label == a.label &&
                e.validity.ts == a.validity.ts &&
                e.validity.exp == a.validity.exp &&
                e.is_deletion == a.is_deletion)
        << what << ": result " << i << " diverged";
  }
}

// PATH + PATTERN in one plan: reaches WindowEdgeStore, PatternOp levels,
// the coalescer, and the shared window partitions.
constexpr char kQuery[] = "Answer(x,y) <- a+(x,y), b(x,m), c(m,y)";

// ---------------------------------------------------------------------------
// Differential: kill/restore/resume == uninterrupted
// ---------------------------------------------------------------------------

TEST(EngineCheckpointTest, KillRestoreResumeMatchesUninterrupted) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 21, 160);
  auto query = MakeQuery(kQuery, WindowSpec(20, 2), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  int config = 0;
  for (PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
      EngineOptions options;
      options.path_impl = impl;
      options.batch_size = batch;
      const std::vector<Sgt> expected =
          ReferenceRun(stream, *query, vocab, options);
      ASSERT_FALSE(expected.empty());

      const std::string path =
          TempPath("ckpt_matrix_" + std::to_string(config++) + ".sgqc");
      std::vector<Sgt> resumed;
      auto metrics = RunSgaCheckpointKill(
          stream, *query, vocab, options, path, stream.size() / 3,
          2 * stream.size() / 3, "kill", &resumed);
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      EXPECT_GT(metrics->checkpoint_bytes, 0u);
      ExpectIdenticalResults(expected, resumed,
                             "impl=" + std::to_string(static_cast<int>(impl)) +
                                 " batch=" + std::to_string(batch));
      std::remove(path.c_str());
    }
  }
}

TEST(EngineCheckpointTest, EveryBatchBoundaryIsACleanRecoveryPoint) {
  // Satellite bar: checkpoint at *every* batch boundary of a deletion-heavy
  // stream, restore each, resume, and diff against the uninterrupted run.
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 9, 60);
  auto query = MakeQuery(kQuery, WindowSpec(14, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::vector<Sgt> expected =
      ReferenceRun(stream, *query, vocab, options);

  const std::string path = TempPath("ckpt_boundary.sgqc");
  for (std::size_t at = 1; at < stream.size(); ++at) {
    std::vector<Sgt> resumed;
    const std::size_t kill = std::min(at + 9, stream.size());
    auto metrics = RunSgaCheckpointKill(stream, *query, vocab, options, path,
                                        at, kill, "boundary", &resumed);
    ASSERT_TRUE(metrics.ok())
        << "checkpoint at " << at << ": " << metrics.status().ToString();
    ExpectIdenticalResults(expected, resumed,
                           "checkpoint at element " + std::to_string(at));
  }
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, PatternDeletionStreamResumesByteIdentically) {
  // PATTERN-only plans under a deletion-heavy stream: every deletion
  // scrubs the buckets its retract cascade reached and replays the
  // re-assert candidates, and the retract scratch is empty at every batch
  // boundary (it is not serialized). A checkpoint taken mid-stream must
  // resume to exactly the uninterrupted output.
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 13, 240);
  int config = 0;
  for (const char* text : {"Answer(x,w) <- a(x,y), b(y,z), c(z,w)",
                           "Answer(x,v) <- a(x,y), b(y,z), c(z,w), a(w,v)",
                           "Answer(x,w) <- a(x,y), b(z,w), c(w,x)"}) {
    auto query = MakeQuery(text, WindowSpec(20, 2), &vocab);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      EngineOptions options;
      options.batch_size = batch;
      const std::vector<Sgt> expected =
          ReferenceRun(stream, *query, vocab, options);
      std::size_t retractions = 0;
      for (const Sgt& t : expected) retractions += t.is_deletion ? 1 : 0;
      ASSERT_GT(retractions, 0u) << text;

      const std::string path =
          TempPath("ckpt_pattern_" + std::to_string(config++) + ".sgqc");
      std::vector<Sgt> resumed;
      auto metrics = RunSgaCheckpointKill(stream, *query, vocab, options,
                                          path, stream.size() / 2,
                                          3 * stream.size() / 4, "pattern",
                                          &resumed);
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      ExpectIdenticalResults(expected, resumed,
                             std::string(text) +
                                 " batch=" + std::to_string(batch));
      std::remove(path.c_str());
    }
  }
}

TEST(EngineCheckpointTest, ShardedResumeStaysDeterministic) {
  // workers>1 relaxes the bar from byte-identical to the sharded contract:
  // the resumed run must equal the *uninterrupted sharded* run, which is
  // itself deterministic — so plain equality still holds, run to run.
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 33, 140);
  auto query = MakeQuery(kQuery, WindowSpec(18, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  options.num_workers = 2;
  const std::vector<Sgt> expected =
      ReferenceRun(stream, *query, vocab, options);

  const std::string path = TempPath("ckpt_sharded.sgqc");
  std::vector<Sgt> resumed;
  auto metrics = RunSgaCheckpointKill(stream, *query, vocab, options, path,
                                      stream.size() / 2,
                                      3 * stream.size() / 4, "sharded",
                                      &resumed);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ExpectIdenticalResults(expected, resumed, "workers=2");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Refusals: wrong engine, wrong vocab, dirty engine
// ---------------------------------------------------------------------------

/// \brief Builds a processor, pushes a prefix, checkpoints, and returns the
/// snapshot path.
std::string SnapshotAfterPrefix(const InputStream& stream,
                                const StreamingGraphQuery& query,
                                Vocabulary* vocab,
                                const EngineOptions& options,
                                const std::string& name) {
  auto qp = QueryProcessor::FromQuery(query, *vocab, options);
  EXPECT_TRUE(qp.ok());
  for (std::size_t i = 0; i < stream.size() / 2; ++i) {
    (*qp)->Push(stream[i]);
  }
  const std::string path = TempPath(name);
  Status st = (*qp)->engine().Checkpoint(path, vocab);
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = (*qp)->engine().WaitForCheckpoint();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

TEST(EngineCheckpointTest, OptionsIdentityMismatchRefused) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 4, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions spath;
  spath.path_impl = PathImpl::kSPath;
  const std::string path =
      SnapshotAfterPrefix(stream, *query, &vocab, spath, "ckpt_id.sgqc");

  EngineOptions delta;
  delta.path_impl = PathImpl::kDeltaPath;
  auto qp = QueryProcessor::FromQuery(*query, vocab, delta);
  ASSERT_TRUE(qp.ok());
  Status st = (*qp)->engine().Restore(path, &vocab);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("path_impl"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("identity mismatch"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, MetaKeepsConstantQueryIndexIdentityKey) {
  // Dispatch always uses the query index, results always coalesce and the
  // sharded time advance has no state bar, but each identity key stays in
  // the meta section at its old constant value so snapshots written by
  // engines that recorded the choice keep restoring, and vice versa.
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 5, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());
  const std::string path = SnapshotAfterPrefix(stream, *query, &vocab, {},
                                               "ckpt_meta.sgqc");
  auto reader = CheckpointReader::ParseFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto meta = reader->Open("meta");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  const std::uint32_t n_keys = meta->U32();
  std::unordered_map<std::string, std::string> identity;
  for (std::uint32_t i = 0; i < n_keys && meta->ok(); ++i) {
    const std::string key = meta->Str();
    identity[key] = meta->Str();
  }
  ASSERT_TRUE(meta->ok()) << meta->status().ToString();
  EXPECT_EQ(identity["use_query_index"], "1");
  EXPECT_EQ(identity["coalesce_output"], "1");
  EXPECT_EQ(identity["time_advance_parallel_state_bar"], "8192");
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, VocabularyIsVerifiedAndAdopted) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 6, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::string path =
      SnapshotAfterPrefix(stream, *query, &vocab, options, "ckpt_vocab.sgqc");

  // A conflicting vocabulary — same names interned to different ids — must
  // be refused: restored label ids would silently mean different labels.
  {
    Vocabulary conflicting;
    ASSERT_TRUE(conflicting.InternInputLabel("z").ok());  // shifts ids
    ASSERT_TRUE(conflicting.InternInputLabel("a").ok());
    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    Status st = (*qp)->engine().Restore(path, &conflicting);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("vocab"), std::string::npos)
        << st.ToString();
  }

  // The matching vocabulary restores cleanly.
  {
    Vocabulary same = vocab;
    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    Status st = (*qp)->engine().Restore(path, &same);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ((*qp)->engine().ingested(), stream.size() / 2);
  }
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, RestoreOnNonFreshEngineRefused) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 8, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::string path =
      SnapshotAfterPrefix(stream, *query, &vocab, options, "ckpt_dirty.sgqc");

  auto qp = QueryProcessor::FromQuery(*query, vocab, options);
  ASSERT_TRUE(qp.ok());
  (*qp)->Push(stream[0]);  // no longer fresh
  Status st = (*qp)->engine().Restore(path, &vocab);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("non-fresh"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault injection on real snapshots
// ---------------------------------------------------------------------------

TEST(EngineCheckpointTest, CorruptionInAnySectionRejectedPositioned) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 12, 100);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::string path = SnapshotAfterPrefix(stream, *query, &vocab,
                                               options, "ckpt_corrupt.sgqc");
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  auto reader = CheckpointReader::Parse(*bytes, path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_GE(reader->sections().size(), 5u) << "expected a full engine image";

  const std::string bad_path = TempPath("ckpt_corrupt_bad.sgqc");
  for (const CheckpointSection& section : reader->sections()) {
    ASSERT_GT(section.length, 0u) << section.name;
    std::string bad = *bytes;
    bad[section.offset] = static_cast<char>(bad[section.offset] ^ 0x40);
    ASSERT_TRUE(WriteFileBytes(bad_path, bad).ok());

    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    Vocabulary fresh_vocab;
    Status st = (*qp)->engine().Restore(bad_path, &fresh_vocab);
    ASSERT_FALSE(st.ok()) << "corrupt '" << section.name << "' accepted";
    // Positioned: the whole-file CRC catches it first and names the file.
    EXPECT_NE(st.message().find("CRC"), std::string::npos)
        << section.name << ": " << st.ToString();
    EXPECT_NE(st.message().find(bad_path), std::string::npos)
        << section.name << ": " << st.ToString();
  }

  // No partial restore: a *rebuilt* engine still restores the good file
  // and resumes to the uninterrupted result.
  const std::vector<Sgt> expected =
      ReferenceRun(stream, *query, vocab, options);
  auto qp = QueryProcessor::FromQuery(*query, vocab, options);
  ASSERT_TRUE(qp.ok());
  ASSERT_TRUE((*qp)->engine().Restore(path, &vocab).ok());
  for (std::size_t i = (*qp)->engine().ingested(); i < stream.size(); ++i) {
    (*qp)->Push(stream[i]);
  }
  (*qp)->Flush();
  ExpectIdenticalResults(expected, (*qp)->results(), "after bad candidates");

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(EngineCheckpointTest, TruncationAtEverySectionBoundaryRejected) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 14, 100);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::string path = SnapshotAfterPrefix(stream, *query, &vocab,
                                               options, "ckpt_trunc.sgqc");
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  auto reader = CheckpointReader::Parse(*bytes, path);
  ASSERT_TRUE(reader.ok());

  const std::string bad_path = TempPath("ckpt_trunc_bad.sgqc");
  std::vector<std::size_t> cuts = {0, 4, 12};  // magic, header, first frame
  for (const CheckpointSection& section : reader->sections()) {
    cuts.push_back(section.offset);                   // before the payload
    cuts.push_back(section.offset + section.length);  // after the payload
  }
  cuts.push_back(bytes->size() - 1);  // inside the footer CRC
  for (std::size_t cut : cuts) {
    ASSERT_TRUE(WriteFileBytes(bad_path, bytes->substr(0, cut)).ok());
    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    Status st = (*qp)->engine().Restore(bad_path);
    ASSERT_FALSE(st.ok()) << "truncation at byte " << cut << " accepted";
    EXPECT_NE(st.message().find("trunc"), std::string::npos)
        << "cut " << cut << ": " << st.ToString();
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(EngineCheckpointTest, MissingFileIsACleanError) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 2, 40);
  auto query = MakeQuery(kQuery, WindowSpec(12, 2), &vocab);
  ASSERT_TRUE(query.ok());
  auto qp = QueryProcessor::FromQuery(*query, vocab, {});
  ASSERT_TRUE(qp.ok());
  Status st = (*qp)->engine().Restore(TempPath("no_such_ckpt.sgqc"));
  ASSERT_FALSE(st.ok());
}

// ---------------------------------------------------------------------------
// Metrics and extras
// ---------------------------------------------------------------------------

TEST(EngineCheckpointTest, MetricsAndExtrasRoundTrip) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 18, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  auto qp = QueryProcessor::FromQuery(*query, vocab, options);
  ASSERT_TRUE(qp.ok());
  for (std::size_t i = 0; i < stream.size() / 2; ++i) (*qp)->Push(stream[i]);

  const std::string path = TempPath("ckpt_extras.sgqc");
  std::string blob;
  PutU64(&blob, 12345);
  ASSERT_TRUE((*qp)
                  ->engine()
                  .Checkpoint(path, &vocab, {{"x-reorder", blob}})
                  .ok());
  ASSERT_TRUE((*qp)->engine().WaitForCheckpoint().ok());
  // checkpoint_bytes counts the encoded image == the durable file.
  auto on_disk = ReadFileBytes(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ((*qp)->engine().checkpoint_bytes(), on_disk->size());

  auto restored = QueryProcessor::FromQuery(*query, vocab, options);
  ASSERT_TRUE(restored.ok());
  std::unordered_map<std::string, std::string> extra;
  ASSERT_TRUE((*restored)->engine().Restore(path, &vocab, &extra).ok());
  ASSERT_EQ(extra.count("x-reorder"), 1u);
  ByteReader in(extra["x-reorder"], "extra");
  EXPECT_EQ(in.U64(), 12345u);
  EXPECT_TRUE(in.ExpectEnd().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgq
