// Physical operator interface of the push-based dataflow runtime (§6).
//
// Operators are non-blocking: each arriving sgt is processed immediately
// (the paper's prototype behaves the same way on top of Timely Dataflow;
// see DESIGN.md for the substitution note). Operators do not call each
// other: outputs go through an OutputChannel, and the Executor
// (runtime/executor.h) that owns the operator topology drives
// OnTuple/OnTimeAdvance/MaybePurge waves in topological order. Time
// advances monotonically; OnTimeAdvance lets stateful operators process
// expirations and purge state.

#ifndef SGQ_CORE_PHYSICAL_H_
#define SGQ_CORE_PHYSICAL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "model/checkpoint.h"
#include "model/sgt.h"
#include "runtime/channel.h"
#include "runtime/shard.h"

namespace sgq {

/// \brief Base class of all physical operators.
///
/// Multi-input operators distinguish inputs by port number. Output goes to
/// the bound OutputChannel; an unbound channel discards emissions (useful
/// for operators probed only for their state).
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  /// \brief Processes one input tuple arriving on `port`.
  virtual void OnTuple(int port, const Sgt& tuple) = 0;

  /// \brief Processes a micro-batch of tuples arriving on `port`. The
  /// default forwards tuple-at-a-time; operators with batch-amortizable
  /// work (hash-table probes, window inserts) may override.
  virtual void OnBatch(int port, const Sgt* tuples, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) OnTuple(port, tuples[i]);
  }

  /// \brief Notifies the operator that time advanced to `now`. Called for
  /// every distinct input timestamp (so negative-tuple expiry processing is
  /// exact) and at every slide boundary. Default: no-op — operators using
  /// the *direct* approach need no expiry processing (§6.2.4).
  ///
  /// CONTRACT: an operator that overrides this must also override
  /// HasTimeDrivenWork() to return true. The executor's dispatch
  /// (runtime/executor.h) skips the time-advance phase of every operator that does not declare itself — exact only because
  /// undeclared operators are guaranteed this base no-op.
  virtual void OnTimeAdvance(Timestamp now) { (void)now; }

  /// \brief Purges internal state that expired before `now`. Affects
  /// memory, never results (expired entries are already invisible to
  /// probes because interval intersections come out empty).
  virtual void Purge(Timestamp now) { (void)now; }

  /// \brief Purge the runtime runs at every slide boundary. Default:
  /// amortized — a full Purge() scan runs only once StateSize() has
  /// doubled since the last one, so an operator whose purge scans all of
  /// its state (PATH's trees) pays O(state) amortized, not O(state) per
  /// slide. Operators whose expired entries are indexed by an expiry
  /// calendar (multi-atom PATTERN) override it to purge at every
  /// boundary, at the cost of what expired.
  virtual void MaybePurge(Timestamp now) {
    if (!WatermarkReached(StateSize())) return;
    Purge(now);
    RearmWatermark(StateSize());
  }

  /// \brief True when MaybePurge(now) has purge work to do. The sharded
  /// executor uses this to skip the worker-pool dispatch on the slide
  /// boundaries where every shard's check would return immediately.
  virtual bool PurgeDue(Timestamp now) const {
    (void)now;
    return WatermarkReached(StateSize());
  }

  /// \brief Sets the expiry-calendar bucket granularity of stateful
  /// operators to the engine's window slide. Called by the executor at
  /// Finalize, before any tuple; the default (slide 1) is always correct,
  /// just finer-bucketed, so standalone operator tests need not call it.
  virtual void ConfigureExpirySlide(Timestamp slide) { (void)slide; }

  /// \brief Operator name for plan explanations.
  virtual std::string Name() const = 0;

  /// \brief How tuples arriving on `port` are distributed across this
  /// operator's shards under sharded execution (num_workers > 1). The
  /// default hash-partitions by edge value, which is correct for any
  /// operator whose state (if any) is keyed by the tuple's endpoints —
  /// stateless operators trivially qualify. Operators whose state can
  /// grow from tuples with unrelated keys (PATH) override to kBroadcast.
  /// Ignored when the operator has a single instance.
  virtual RoutingKey InputRouting(int port) const {
    (void)port;
    return RoutingKey::kEdgeValue;
  }

  /// \brief True when sharded deletion processing must be coordinated
  /// across shards (two-phase retract/reassert; see DeletionCoordination).
  /// Such operators must also implement DeletionCoordination.
  virtual bool NeedsDeletionCoordination() const { return false; }

  /// \brief True when the operator's per-shard output coalescers cannot
  /// see each other's emissions: a value-equivalent result derived on two
  /// shards is emitted twice even though a single instance would have
  /// suppressed the repeat. The executor then runs the deterministic
  /// post-merge stream through a merge-side coalescer at the exchange,
  /// restoring single-worker emission volume (DESIGN.md §2.4). Only
  /// meaningful for operators whose output values can be derived on more
  /// than one shard (multi-atom PATTERN); PATH partitions its output
  /// values by tree root, so its merged stream is already duplicate-free.
  virtual bool CoalesceAtMerge() const { return false; }

  /// \brief True when OnTimeAdvance can perform substantial work (Δ-tree
  /// expiry re-derivation). Time-advance phases fire for *every distinct
  /// input timestamp*, so the sharded executor dispatches them to the
  /// worker pool only for operators that declare heavy time-driven work;
  /// everyone else's (near-)no-op calls run inline on the driver thread,
  /// skipping a pool wakeup per timestamp.
  ///
  /// Mandatory for OnTimeAdvance overriders (see its contract note): the
  /// indexed dispatch runs time-advance phases ONLY for operators that
  /// return true here.
  virtual bool HasTimeDrivenWork() const { return false; }

  /// \brief Approximate number of state entries held (for diagnostics).
  virtual std::size_t StateSize() const { return 0; }

  /// \brief Approximate resident bytes of operator state (containers at
  /// capacity plus arena slabs). Tracks memory wins alongside StateSize's
  /// entry counts; 0 for stateless operators.
  virtual std::size_t StateBytes() const { return 0; }

  /// \brief Binds the output channel tuples are emitted into. The channel
  /// is owned by the Executor (engine mode) or by the caller (direct mode).
  void BindOutput(OutputChannel* out) { out_ = out; }

  /// \brief Checkpoint hook (model/checkpoint.h, DESIGN.md §7): appends
  /// the operator's complete runtime state. Stateful operators override
  /// both hooks; the default (stateless) pair writes/reads nothing.
  /// Contract: at a batch boundary, DeserializeState on a freshly built
  /// instance of the same plan must reproduce state whose future behavior
  /// is byte-identical to the serialized instance's.
  virtual void SerializeState(std::string* out) const { (void)out; }

  /// \brief Restores SerializeState bytes into a freshly built operator
  /// (same plan, same configuration, no tuples processed).
  virtual Status DeserializeState(ByteReader* in) {
    (void)in;
    return Status::OK();
  }

  /// \brief MaybePurge's adaptive threshold — checkpointed and restored
  /// (runtime/executor.h) so the resumed run purges at the same boundaries
  /// as the uninterrupted one, keeping container histories identical.
  std::size_t checkpoint_purge_watermark() const { return purge_watermark_; }
  void restore_purge_watermark(std::size_t watermark) {
    purge_watermark_ = watermark;
  }

 protected:
  /// \brief Pushes an output tuple into the bound output channel.
  void EmitTuple(const Sgt& tuple) {
    if (out_ != nullptr) out_->Push(tuple);
  }

  /// \brief The amortized-purge watermark: true once `size` (the state
  /// the amortized scan covers) reached it; RearmWatermark sets the next
  /// one from the size the scan left.
  bool WatermarkReached(std::size_t size) const {
    return size >= purge_watermark_;
  }
  void RearmWatermark(std::size_t size) {
    purge_watermark_ = std::max<std::size_t>(1024, 2 * size);
  }

 private:
  OutputChannel* out_ = nullptr;
  std::size_t purge_watermark_ = 1024;
};

/// \brief A source operator: entry point of raw stream elements. The
/// Executor routes each ingested sge to the sources registered for its
/// label.
class SourceOp : public PhysicalOp {
 public:
  /// \brief Processes one raw stream element.
  virtual void OnSge(const Sge& sge) = 0;
};

/// \brief Two-phase deletion protocol for sharded operators whose output
/// values can be derived on several shards (PATTERN: an output pair may
/// have witness derivations owned by different port-0 bindings, hence
/// different shards).
///
/// A single-shard deletion replay cannot decide whether a retracted value
/// survives via another shard's derivations, so the Executor drives the
/// deletion in two barrier-separated phases:
///
///  1. RetractForDeletion on the shard(s) the deletion routes to — emits
///     the negative tuples, scrubs local state, and returns the retracted
///     output values.
///  2. ReassertRetracted with the *union* of all shards' retracted values
///     and the deletion instant on every shard — each shard re-emits
///     positives for the values it can still derive, so a value with a
///     surviving witness anywhere is re-asserted after the retraction.
///
/// The unsharded path composes the two phases back-to-back on the single
/// instance, which reproduces the original single-threaded deletion
/// handling exactly.
class DeletionCoordination {
 public:
  virtual ~DeletionCoordination() = default;

  /// \brief Phase 1: replays the deletion of `tuple` (arriving on `port`)
  /// against local pre-deletion state, emitting negative tuples and
  /// scrubbing local state. Returns the retracted output values in a
  /// deterministic (sorted) order.
  virtual std::vector<EdgeRef> RetractForDeletion(int port,
                                                  const Sgt& tuple) = 0;

  /// \brief Phase 2: re-derives every value in `retracted` that local
  /// state still supports and re-emits its positive tuple. `now` is the
  /// deletion instant: a derivation whose interval ends at or before it
  /// changes no snapshot from then on and is not re-emitted.
  virtual void ReassertRetracted(const std::vector<EdgeRef>& retracted,
                                 Timestamp now) = 0;
};

/// \brief Physical implementation choices for the PATH logical operator.
enum class PathImpl {
  kSPath,      ///< Algorithm S-PATH: direct approach (§6.2.4)
  kDeltaPath,  ///< Δ-tree of [57]: negative-tuple approach (§6.2.3)
};

}  // namespace sgq

#endif  // SGQ_CORE_PHYSICAL_H_
