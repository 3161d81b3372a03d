// Double-buffered async ingest (DESIGN.md §6): a dedicated ingest thread
// produces micro-batch N+1 — pulling elements from a producer callback
// (stream parsing, generators) and, when slack is configured, absorbing
// bounded out-of-order arrival through a ReorderBuffer — while the
// execution thread runs batch N through the operator topology.
//
// Hand-off protocol: fixed pool of batch buffers cycling through two
// bounded SPSC queues (runtime/spsc_queue.h) —
//
//     ingest thread                       execution thread
//        fill / reorder / batch   full →    ExecuteOrderedBatch
//        (parse cost lives here)  ← free    (dataflow waves, worker pool)
//
// The `full` queue (ingest_queue_depth batches) carries ready batches; the
// `free` queue returns drained buffers, so steady state allocates nothing.
// Backpressure is buffer-pool exhaustion: with every buffer queued or in
// use the ingest thread blocks on `free` until execution catches up, and
// each side's blocked time is recorded (ingest_stall_ns: ingest waited on
// execution; exec_stall_ns: execution starved for input — the pipeline is
// ingest-bound). Execution order and batch boundaries are exactly those of
// the synchronous Ingest/Flush path, so async_ingest changes *where* the
// producer work happens, never what the operators observe: workers=1 /
// batch=1 output stays byte-identical, everything else keeps the runtime's
// established snapshot-equivalence contract.
//
// Sharded parse stage (RunSharded): when a single parser thread is the
// throughput ceiling, the parse fans out over N parser threads consuming
// byte-range chunks of the input (model/stream_io.h ChunkedStream, chunk c
// owned by parser c mod N) into per-parser "gutter" segment queues, and an
// order-restoring merge — chunks visited in index order, segments FIFO per
// parser — re-serializes the element stream before the unchanged slack /
// batch staging and SPSC hand-off:
//
//     parser 0 ──gutter 0──┐
//     parser 1 ──gutter 1──┤  merge (chunk order) → slack/batch → full →
//        …        …        │    ← free gutter segments    exec thread
//     parser N-1 ─gutter N-1┘
//
// Because the merge restores exact stream order, every downstream
// equivalence contract is untouched; with one parser RunSharded collapses
// to the classic single-producer pipeline (byte-identical output). Per-
// parser blocked/busy time lands in IngestStats (parser_stall_ns /
// parser_busy_ns — busy time is the pure tokenize/decode cost, the number
// parse_tuples_per_sec is derived from).
//
// Pinning policy (ExecutorOptions::pin_workers): pool workers own cores
// [pin 0, num_workers); the ingest/merge thread takes the next slot
// (num_workers) and parser threads the slots after it, so parsing never
// migrates onto an execution core. The execution thread is pinned to slot
// 0 for the duration of Run and its previous affinity is restored on
// exit. All pins are best-effort.

#ifndef SGQ_RUNTIME_INGEST_PIPELINE_H_
#define SGQ_RUNTIME_INGEST_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "model/sgt.h"
#include "runtime/spsc_queue.h"

namespace sgq {

class ChunkedStream;
class Executor;

/// \brief Producer side of the pipeline: fills up to `cap` stream elements
/// into `buf` and returns how many were written; 0 ends the stream.
/// Called repeatedly from the dedicated ingest thread — producers touching
/// shared state (Vocabulary interning does its own locking) must be safe
/// to call off the execution thread. Elements must be timestamp-ordered
/// unless the pipeline runs with reorder slack.
using IngestProducer = std::function<std::size_t(Sge* buf, std::size_t cap)>;

/// \brief Counters of one or more pipelined runs (cumulative).
struct IngestStats {
  /// Nanoseconds the ingest/merge thread spent blocked on backpressure
  /// (every batch buffer queued or executing). High value = execution-
  /// bound.
  uint64_t ingest_stall_ns = 0;
  /// Nanoseconds the execution thread spent starved for a ready batch.
  /// High value = ingest-bound (the pipeline's parse stage is the
  /// bottleneck async ingest exists to hide).
  uint64_t exec_stall_ns = 0;
  std::size_t batches = 0;       ///< batches handed across the queue
  std::size_t late_dropped = 0;  ///< late elements dropped by the slack stage
  bool ingest_pinned = false;    ///< the ingest/merge thread's pin took

  // --- sharded parse stage (RunSharded; zero/empty when only the single-
  // producer Run() was used) ---
  /// Parser threads of the most recent sharded run (1 = the collapsed
  /// single-producer path).
  std::size_t parsers = 0;
  /// Nanoseconds the merge thread spent blocked on empty gutters (all
  /// parsers behind) — the sharded analogue of exec_stall_ns one stage up.
  uint64_t merge_stall_ns = 0;
  /// Per parser thread: nanoseconds blocked on gutter backpressure (the
  /// merge, and transitively execution, not keeping up).
  std::vector<uint64_t> parser_stall_ns;
  /// Per parser thread: nanoseconds inside StreamCursor::Next — the pure
  /// parse/decode cost (parse_tuples_per_sec = elements / max busy).
  std::vector<uint64_t> parser_busy_ns;
  /// Nanoseconds spent inside the chunk feeder across all parser threads
  /// (file-backed sources only: page-in/scan time plus readahead-
  /// window backpressure; 0 for fully materialized streams). High value =
  /// the run is I/O-bound or the window is too small.
  uint64_t readahead_stall_ns = 0;
};

/// \brief One pipelined ingest run over an Executor. Construct, Run once,
/// read stats. Executor::RunPipelined wraps this.
class IngestPipeline {
 public:
  explicit IngestPipeline(Executor* executor) : executor_(executor) {}

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// \brief Runs `fill` to exhaustion: spawns the ingest thread, executes
  /// every produced batch on the calling thread, joins. Blocking; the
  /// executor is in a normal between-pushes state afterwards (more input
  /// or AdvanceTo may follow).
  void Run(const IngestProducer& fill);

  /// \brief Sharded parse run: `parsers` threads decode `stream`'s chunks
  /// into gutter buffers, the order-restoring merge feeds the batch
  /// hand-off, execution stays on the calling thread. Parse errors (and
  /// cross-chunk ordering violations) surface as the returned Status —
  /// elements preceding the error still execute, exactly like the
  /// sequential cursor path. `parsers <= 1` collapses to Run() over a
  /// sequential chunk walk.
  Status RunSharded(const ChunkedStream& stream, std::size_t parsers);

  const IngestStats& stats() const { return stats_; }

 private:
  using Batch = std::vector<Sge>;

  /// \brief Ingest-thread body: fill -> (reorder) -> batch -> full queue.
  void IngestThread(const IngestProducer& fill, SpscQueue<Batch>* full,
                    SpscQueue<Batch>* free_buffers);

  /// \brief Pops ready batches off `full` and executes them on the
  /// calling thread until the queue closes (shared by Run/RunSharded).
  void ExecuteLoop(SpscQueue<Batch>* full, SpscQueue<Batch>* free_buffers);

  /// \brief Folds one run's per-parser counters into the cumulative stats.
  void AccumulateParserStats(std::size_t parsers, const uint64_t* stall_ns,
                             const uint64_t* busy_ns);

  Executor* executor_;
  IngestStats stats_;
};

}  // namespace sgq

#endif  // SGQ_RUNTIME_INGEST_PIPELINE_H_
