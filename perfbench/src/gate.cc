#include "gate.h"

#include <algorithm>

#include "model/coalesce.h"

namespace perfbench {

using sgq::Timestamp;

sgq::VertexPairSet ResultPairsAt(const sgq::SgtStream& results,
                                 Timestamp t) {
  sgq::VertexPairSet out;
  for (const sgq::EdgeRef& e : sgq::SnapshotEdges(results, t)) {
    out.insert({e.src, e.trg});
  }
  return out;
}

const sgq::SnapshotGraph& OracleGate::InputSnapshotAt(Timestamp t) {
  if (cached_ && cached_t_ == t) return cached_snapshot_;
  const Timestamp lo = t - window_.size - window_.slide;
  auto by_time = [](const sgq::Sge& e, Timestamp x) { return e.t < x; };
  auto first = std::lower_bound(stream_.begin(), stream_.end(), lo, by_time);
  auto last = std::lower_bound(first, stream_.end(), t + 1, by_time);
  // WSCAN semantics (Def. 16); deletions become negative tuples at their
  // deletion instant, which SnapshotGraph::At applies to prior insertions.
  sgq::SgtStream windowed;
  windowed.reserve(static_cast<std::size_t>(last - first));
  for (auto it = first; it != last; ++it) {
    const sgq::Sge& e = *it;
    if (e.is_deletion) {
      windowed.emplace_back(e.src, e.trg, e.label,
                            sgq::Interval(e.t, sgq::kMaxTimestamp),
                            sgq::Payload{e.edge()}, /*del=*/true);
    } else {
      windowed.emplace_back(e.src, e.trg, e.label,
                            sgq::Interval(e.t, window_.ExpiryFor(e.t)),
                            sgq::Payload{e.edge()});
    }
  }
  cached_snapshot_ = sgq::SnapshotGraph::At(windowed, t);
  cached_t_ = t;
  cached_ = true;
  return cached_snapshot_;
}

sgq::Result<bool> OracleGate::Check(std::size_t key,
                                    const sgq::StreamingGraphQuery& query,
                                    const sgq::Vocabulary& vocab,
                                    const sgq::SgtStream& results,
                                    Timestamp t, std::string* why,
                                    std::size_t* oracle_pairs) {
  auto memo = expected_.find({key, t});
  if (memo == expected_.end()) {
    SGQ_ASSIGN_OR_RETURN(
        sgq::VertexPairSet answer,
        sgq::EvaluateOneTime(query.rq, InputSnapshotAt(t), vocab));
    memo = expected_.emplace(std::make_pair(key, t), std::move(answer)).first;
  }
  const sgq::VertexPairSet& expected = memo->second;
  if (oracle_pairs != nullptr) *oracle_pairs = expected.size();
  const sgq::VertexPairSet got = ResultPairsAt(results, t);
  if (got == expected) return true;
  std::size_t missing = 0;
  for (const auto& p : expected) missing += got.count(p) == 0 ? 1 : 0;
  std::size_t extra = 0;
  for (const auto& p : got) extra += expected.count(p) == 0 ? 1 : 0;
  *why = "t=" + std::to_string(t) + ": " + std::to_string(missing) +
         " pairs missing, " + std::to_string(extra) + " extra (oracle has " +
         std::to_string(expected.size()) + ")";
  return false;
}

}  // namespace perfbench
