// The benchmark's correctness gate: snapshot reducibility (paper Def. 15)
// checked at sampled instants. A query's result snapshot at instant t —
// SnapshotEdges over everything drained from it so far — must equal the
// one-time oracle (EvaluateOneTime) on the snapshot of the windowed input
// at t. The gate runs with the measurement clock paused.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <map>
#include <string>
#include <utility>

#include "common/result.h"
#include "model/sgt.h"
#include "model/snapshot_graph.h"
#include "model/vocabulary.h"
#include "model/window.h"
#include "query/oracle.h"
#include "query/rq.h"

namespace perfbench {

/// \brief Result snapshot of a drained result stream at instant `t`, as
/// vertex pairs.
sgq::VertexPairSet ResultPairsAt(const sgq::SgtStream& results,
                                 sgq::Timestamp t);

/// \brief Oracle side of the gate over one input stream and the window
/// every gated query uses. Every pass of a run replays the same stream, so
/// the oracle's answers are memoized by (query key, instant) and computed
/// once per run. The input snapshot of the last instant asked for is
/// cached too, so checking several queries at one instant builds it once.
class OracleGate {
 public:
  /// `stream` is borrowed, timestamp-ordered, and must outlive the gate.
  OracleGate(const sgq::InputStream& stream, sgq::WindowSpec window)
      : stream_(stream), window_(window) {}

  /// \brief True when `results` (everything drained from `query` so far)
  /// agrees with the oracle at `t`; on a mismatch `*why` says how many
  /// pairs are missing and how many are extra. `key` names the query for
  /// the memo: equal keys must mean equal queries. `*oracle_pairs`, when
  /// given, receives the size of the oracle's answer.
  sgq::Result<bool> Check(std::size_t key,
                          const sgq::StreamingGraphQuery& query,
                          const sgq::Vocabulary& vocab,
                          const sgq::SgtStream& results, sgq::Timestamp t,
                          std::string* why,
                          std::size_t* oracle_pairs = nullptr);

 private:
  /// \brief Snapshot of W(S) at `t`: only elements with timestamps in
  /// [t - size - slide, t] can be valid at t, so only those are windowed.
  const sgq::SnapshotGraph& InputSnapshotAt(sgq::Timestamp t);

  const sgq::InputStream& stream_;
  const sgq::WindowSpec window_;
  std::map<std::pair<std::size_t, sgq::Timestamp>, sgq::VertexPairSet>
      expected_;
  bool cached_ = false;
  sgq::Timestamp cached_t_ = 0;
  sgq::SnapshotGraph cached_snapshot_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
