// Per-operator SerializeState/DeserializeState round trips (DESIGN.md §7).
// The property under test is behavioral, not just structural: a restored
// operator must (a) re-serialize to byte-identical state and (b) behave
// identically to the original on every subsequent input — probes, purges,
// suppression decisions, releases. Byte-equal re-serialization is the
// cheap proxy the engine-level differential leans on, so it is pinned
// here at the smallest scope.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "core/pattern_op.h"
#include "core/reorder_buffer.h"
#include "core/window_store.h"
#include "model/checkpoint.h"
#include "model/coalesce.h"
#include "model/vocabulary.h"
#include "runtime/channel.h"

namespace sgq {
namespace {

/// \brief Serialize → restore into a fresh instance → assert the restored
/// bytes match. Returns the restored instance through `out`.
template <typename Op>
std::string RoundTrip(const Op& original, Op* out) {
  std::string bytes;
  original.SerializeState(&bytes);
  ByteReader in(bytes, "round-trip");
  Status st = out->DeserializeState(&in);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(in.ExpectEnd().ok()) << in.status().ToString();
  std::string again;
  out->SerializeState(&again);
  EXPECT_EQ(bytes, again) << "restored state re-serializes differently";
  return bytes;
}

// ---------------------------------------------------------------------------
// WindowEdgeStore
// ---------------------------------------------------------------------------

/// \brief A store exercised through inserts, coalescing overlaps, explicit
/// deletions, value scrubs, and purges — every mutation path.
void ChurnStore(WindowEdgeStore* store, std::uint32_t seed,
                bool with_in_index) {
  if (with_in_index) store->EnableInIndex();
  std::mt19937 rng(seed);
  std::uniform_int_distribution<VertexId> vertex(0, 9);
  std::uniform_int_distribution<LabelId> label(0, 2);
  std::uniform_int_distribution<Timestamp> ts(0, 80);
  for (int i = 0; i < 200; ++i) {
    const VertexId src = vertex(rng);
    const VertexId trg = vertex(rng);
    const LabelId l = label(rng);
    const Timestamp t = ts(rng);
    const int action = i % 10;
    if (action < 7) {
      store->Insert(src, trg, l, Interval(t, t + 20));
    } else if (action < 9) {
      store->DeleteAt(src, trg, l, t);
    } else {
      store->RemoveValue(src, trg, l);
    }
  }
  store->PurgeExpired(40);
}

void ExpectSameEdges(const WindowEdgeStore::EdgeRun& a,
                     const WindowEdgeStore::EdgeRun& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trg, b[i].trg) << what << " entry " << i;
    EXPECT_EQ(a[i].validity.ts, b[i].validity.ts) << what << " entry " << i;
    EXPECT_EQ(a[i].validity.exp, b[i].validity.exp) << what << " entry " << i;
  }
}

TEST(WindowEdgeStoreCheckpointTest, RoundTripPreservesProbesAndPurges) {
  for (std::uint32_t seed : {1u, 7u, 42u}) {
    WindowEdgeStore original;
    ChurnStore(&original, seed, /*with_in_index=*/true);

    WindowEdgeStore restored;
    restored.EnableInIndex();
    RoundTrip(original, &restored);
    EXPECT_EQ(restored.NumEntries(), original.NumEntries());

    // Identical probe results — including run *order*, which downstream
    // traversals and probe loops depend on for byte-identical output.
    for (VertexId v = 0; v < 10; ++v) {
      for (LabelId l = 0; l < 3; ++l) {
        ExpectSameEdges(original.OutEdges(v, l), restored.OutEdges(v, l),
                        "out-edges");
        ExpectSameEdges(original.InEdges(v, l), restored.InEdges(v, l),
                        "in-edges");
      }
    }

    // Identical behavior from here on: purge both at the same instant and
    // compare the drops, then the surviving adjacency.
    const std::vector<Sgt> d1 = original.PurgeExpired(70);
    const std::vector<Sgt> d2 = restored.PurgeExpired(70);
    ASSERT_EQ(d1.size(), d2.size()) << "seed " << seed;
    for (std::size_t i = 0; i < d1.size(); ++i) {
      EXPECT_EQ(d1[i].src, d2[i].src);
      EXPECT_EQ(d1[i].trg, d2[i].trg);
      EXPECT_EQ(d1[i].validity.ts, d2[i].validity.ts);
    }
    std::string a, b;
    original.SerializeState(&a);
    restored.SerializeState(&b);
    EXPECT_EQ(a, b) << "post-purge state diverged, seed " << seed;
  }
}

TEST(WindowEdgeStoreCheckpointTest, AdoptsLazilyEnabledInIndex) {
  // PATH consumers enable the reverse index lazily on the first delete, so
  // a snapshot can carry in_index=true while the fresh restore-target store
  // has it false. Restore must adopt the flag and the index content.
  WindowEdgeStore original;
  original.Insert(1, 2, 0, Interval(0, 50));
  original.Insert(3, 2, 0, Interval(5, 50));
  original.EnableInIndex();  // the lazy enable, mid-run

  WindowEdgeStore restored;  // fresh: flag off
  RoundTrip(original, &restored);
  EXPECT_TRUE(restored.in_index_enabled());
  ExpectSameEdges(original.InEdges(2, 0), restored.InEdges(2, 0),
                  "adopted in-edges");
}

TEST(WindowEdgeStoreCheckpointTest, NonEmptyTargetRefused) {
  WindowEdgeStore original;
  original.Insert(1, 2, 0, Interval(0, 10));
  std::string bytes;
  original.SerializeState(&bytes);

  WindowEdgeStore dirty;
  dirty.Insert(5, 6, 1, Interval(0, 10));
  ByteReader in(bytes, "dirty");
  Status st = dirty.DeserializeState(&in);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not empty"), std::string::npos)
      << st.ToString();
}

TEST(WindowEdgeStoreCheckpointTest, TruncatedStateRejected) {
  WindowEdgeStore original;
  ChurnStore(&original, 3, /*with_in_index=*/false);
  std::string bytes;
  original.SerializeState(&bytes);
  for (std::size_t len : {std::size_t{0}, bytes.size() / 3,
                          bytes.size() - 1}) {
    WindowEdgeStore target;
    ByteReader in(std::string_view(bytes.data(), len), "trunc");
    Status st = target.DeserializeState(&in);
    if (st.ok()) st = in.ExpectEnd();
    EXPECT_FALSE(st.ok()) << "accepted " << len << " of " << bytes.size();
  }
}

// ---------------------------------------------------------------------------
// StreamingCoalescer
// ---------------------------------------------------------------------------

TEST(StreamingCoalescerCheckpointTest, RoundTripPreservesSuppression) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<VertexId> vertex(0, 5);
  std::uniform_int_distribution<Timestamp> ts(0, 60);

  StreamingCoalescer original;
  for (int i = 0; i < 150; ++i) {
    const Timestamp t = ts(rng);
    original.Offer(Sgt(vertex(rng), vertex(rng), 0, Interval(t, t + 10)));
  }
  original.PurgeBefore(20);
  original.Forget(EdgeRef{1, 2, 0}, 30);

  StreamingCoalescer restored;
  RoundTrip(original, &restored);
  EXPECT_EQ(restored.NumKeys(), original.NumKeys());

  // The restored coalescer must make the *same* accept/suppress decision
  // as the original on every further offer.
  std::mt19937 probe_rng(99);
  for (int i = 0; i < 300; ++i) {
    const Timestamp t = ts(probe_rng);
    const Sgt probe(vertex(probe_rng), vertex(probe_rng), 0,
                    Interval(t, t + 5));
    EXPECT_EQ(original.Offer(probe), restored.Offer(probe))
        << "offer " << i << " diverged";
  }
  std::string a, b;
  original.SerializeState(&a);
  restored.SerializeState(&b);
  EXPECT_EQ(a, b);
}

TEST(StreamingCoalescerCheckpointTest, NonEmptyTargetRefused) {
  StreamingCoalescer original;
  original.Offer(Sgt(1, 2, 0, Interval(0, 10)));
  std::string bytes;
  original.SerializeState(&bytes);

  StreamingCoalescer dirty;
  dirty.Offer(Sgt(3, 4, 0, Interval(0, 10)));
  ByteReader in(bytes, "dirty");
  EXPECT_FALSE(dirty.DeserializeState(&in).ok());
}

// ---------------------------------------------------------------------------
// PatternOp
// ---------------------------------------------------------------------------

class CollectOp : public PhysicalOp {
 public:
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    tuples.push_back(tuple);
  }
  std::string Name() const override { return "COLLECT"; }
  std::vector<Sgt> tuples;
};

/// \brief A 3-atom chain a(x,y), b(y,z), c(z,w) -> (x,w) with every port
/// in a private table (no WindowStore partitions), so all join state
/// round-trips through PatternOp's own encoding.
class PatternCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"a", "b", "c"}) {
      labels_.push_back(*vocab_.InternInputLabel(name));
    }
    out_ = *vocab_.InternDerivedLabel("out");
    std::vector<LogicalPlan> children;
    for (LabelId l : labels_) {
      children.push_back(MakeWScan(l, WindowSpec(20, 1)));
    }
    plan_ = MakePattern(out_, {{"x", "y"}, {"y", "z"}, {"z", "w"}}, "x", "w",
                        std::move(children));
  }

  /// \brief Random inserts and deletions on every port; `sink` sees the
  /// emissions. Deterministic in `seed` and `from`.
  void Churn(PatternOp* op, std::uint32_t seed, Timestamp from, int n) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<VertexId> vertex(0, 5);
    std::uniform_int_distribution<int> port(0, 2);
    std::uniform_int_distribution<int> action(0, 9);
    Timestamp t = from;
    for (int i = 0; i < n; ++i) {
      t += i % 3 == 0 ? 1 : 0;
      const int p = port(rng);
      const VertexId s = vertex(rng);
      const VertexId g = vertex(rng);
      const LabelId l = labels_[static_cast<std::size_t>(p)];
      if (action(rng) < 2) {
        op->OnTuple(p, Sgt(s, g, l, Interval(t, kMaxTimestamp), {},
                           /*del=*/true));
      } else {
        op->OnTuple(p, Sgt(s, g, l, Interval(t, t + 20)));
      }
      if (i % 40 == 39) op->Purge(t);
    }
  }

  /// \brief The payload of an empty PatternOp of this shape, with one
  /// level-0 left binding and its expiry hint spliced in. Each length can
  /// be set wrong independently; the CRC-free bytes are otherwise valid.
  std::string CraftedState(std::uint32_t key_len, std::uint32_t arity,
                           std::uint32_t hint_key_len) {
    std::string out;
    PutU32(&out, 2);  // levels
    // Level 0: one left bucket (key y) holding one binding.
    PutU64(&out, 1);
    PutU32(&out, key_len);
    for (std::uint32_t i = 0; i < key_len; ++i) PutU64(&out, 7);
    PutU32(&out, 1);
    PutU32(&out, arity);
    for (std::uint32_t i = 0; i < arity; ++i) PutU64(&out, 7);
    PutI64(&out, 0);
    PutI64(&out, 20);
    PutU64(&out, 1);  // left entries
    PutU8(&out, 0);   // private right table
    PutU64(&out, 0);  // ... with no keys
    PutU64(&out, 0);
    // Level 1: empty.
    PutU64(&out, 0);
    PutU64(&out, 0);
    PutU8(&out, 0);
    PutU64(&out, 0);
    PutU64(&out, 0);
    // One expiry hint for the level-0 bucket.
    PutU64(&out, 1);
    PutI64(&out, 20);
    PutU32(&out, 0);
    PutU8(&out, 1);
    PutU32(&out, hint_key_len);
    for (std::uint32_t i = 0; i < hint_key_len; ++i) PutU64(&out, 7);
    StreamingCoalescer().SerializeState(&out);
    return out;
  }

  Vocabulary vocab_;
  std::vector<LabelId> labels_;
  LabelId out_ = kInvalidLabel;
  LogicalPlan plan_;
};

TEST_F(PatternCheckpointTest, RoundTripAfterDeletionsPreservesEmissions) {
  for (std::uint32_t seed : {2u, 9u, 31u}) {
    PatternOp original(*plan_);
    CollectOp original_sink;
    OutputChannel original_wire(&original_sink, 0);
    original.BindOutput(&original_wire);
    Churn(&original, seed, 0, 300);
    ASSERT_GT(original.StateSize(), 0u);

    PatternOp restored(*plan_);
    CollectOp restored_sink;
    OutputChannel restored_wire(&restored_sink, 0);
    restored.BindOutput(&restored_wire);
    RoundTrip(original, &restored);
    EXPECT_EQ(restored.StateSize(), original.StateSize());

    // Same retractions, re-assertions and joins from here on, in order.
    original_sink.tuples.clear();
    Churn(&original, seed + 1, 200, 300);
    Churn(&restored, seed + 1, 200, 300);
    ASSERT_EQ(original_sink.tuples.size(), restored_sink.tuples.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < original_sink.tuples.size(); ++i) {
      EXPECT_TRUE(original_sink.tuples[i] == restored_sink.tuples[i])
          << "seed " << seed << " emission " << i;
    }
    std::string a, b;
    original.SerializeState(&a);
    restored.SerializeState(&b);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST_F(PatternCheckpointTest, MalformedLengthsRejectedWithPosition) {
  // Level 0 joins on y (one key value); bindings bind x, y, z and w.
  {
    PatternOp op(*plan_);
    const std::string bytes = CraftedState(1, 4, 1);
    ByteReader in(bytes, "well-formed");
    Status st = op.DeserializeState(&in);
    if (st.ok()) st = in.ExpectEnd();
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(op.StateSize(), 1u);
  }
  struct Case {
    std::uint32_t key_len, arity, hint_key_len;
    const char* message;
  };
  const Case cases[] = {
      {1, 2, 1, "binding arity"},  // too few values: reads past vals
      {1, 5, 1, "binding arity"},
      {1, 0, 1, "binding arity"},
      {0, 4, 1, "join key length"},
      {3, 4, 1, "join key length"},
      {1, 4, 0, "expiry hint key length"},
      {1, 4, 2, "expiry hint key length"},
  };
  for (const Case& c : cases) {
    PatternOp op(*plan_);
    const std::string bytes = CraftedState(c.key_len, c.arity, c.hint_key_len);
    ByteReader in(bytes, "crafted");
    const Status st = op.DeserializeState(&in);
    ASSERT_FALSE(st.ok()) << "accepted key_len=" << c.key_len
                          << " arity=" << c.arity
                          << " hint_key_len=" << c.hint_key_len;
    EXPECT_NE(st.message().find(c.message), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find("crafted: offset "), std::string::npos)
        << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// ReorderBuffer
// ---------------------------------------------------------------------------

TEST(ReorderBufferCheckpointTest, RoundTripPreservesReleases) {
  std::mt19937 rng(5);
  std::uniform_int_distribution<Timestamp> jitter(0, 8);

  ReorderBuffer original(/*slack=*/8);
  for (Timestamp base = 0; base < 40; ++base) {
    const Timestamp t = base + jitter(rng) - 4;
    original.Offer(Sge{static_cast<VertexId>(base % 7),
                       static_cast<VertexId>(base % 5), 0,
                       t < 0 ? 0 : t, false});
  }

  ReorderBuffer restored(/*slack=*/8);
  RoundTrip(original, &restored);
  EXPECT_EQ(restored.Buffered(), original.Buffered());
  EXPECT_EQ(restored.Watermark(), original.Watermark());
  EXPECT_EQ(restored.LateCount(), original.LateCount());

  // Identical releases for every further offer, then identical flushes.
  std::mt19937 probe_rng(17);
  for (Timestamp base = 40; base < 70; ++base) {
    const Timestamp t = base + jitter(probe_rng) - 4;
    const Sge sge{static_cast<VertexId>(base % 7),
                  static_cast<VertexId>(base % 5), 0, t, false};
    const std::vector<Sge> r1 = original.Offer(sge);
    const std::vector<Sge> r2 = restored.Offer(sge);
    ASSERT_EQ(r1.size(), r2.size()) << "offer at base " << base;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].t, r2[i].t);
      EXPECT_EQ(r1[i].src, r2[i].src);
      EXPECT_EQ(r1[i].trg, r2[i].trg);
    }
  }
  const std::vector<Sge> f1 = original.Flush();
  const std::vector<Sge> f2 = restored.Flush();
  ASSERT_EQ(f1.size(), f2.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(f1[i].t, f2[i].t);
    EXPECT_EQ(f1[i].src, f2[i].src);
  }
}

TEST(ReorderBufferCheckpointTest, CorruptStateRejected) {
  ReorderBuffer original(4);
  original.Offer(Sge{1, 2, 0, 10, false});
  original.Offer(Sge{2, 3, 0, 12, false});
  std::string bytes;
  original.SerializeState(&bytes);
  // Truncate inside the buffered-elements array.
  ReorderBuffer target(4);
  ByteReader in(std::string_view(bytes.data(), bytes.size() - 3), "trunc");
  Status st = target.DeserializeState(&in);
  if (st.ok()) st = in.ExpectEnd();
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace sgq
