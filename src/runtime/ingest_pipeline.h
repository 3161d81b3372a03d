// Double-buffered async ingest (DESIGN.md §6): a dedicated ingest thread
// produces micro-batch N+1 — walking a chunked stream's cursor and, when
// slack is configured, absorbing bounded out-of-order arrival through a
// ReorderBuffer — while the execution thread runs batch N through the
// operator topology. Executor::RunPipelinedSharded runs it when
// async_ingest is set.
//
// Hand-off protocol: fixed pool of batch buffers cycling through two
// bounded SPSC queues (runtime/spsc_queue.h) —
//
//     ingest thread                       execution thread
//        fill / reorder / batch   full →    ExecuteOrderedBatch
//        (parse cost lives here)  ← free    (dataflow waves, worker pool)
//
// The `full` queue (four batches deep) carries ready batches; the
// `free` queue returns drained buffers, so steady state allocates nothing.
// Backpressure is buffer-pool exhaustion: with every buffer queued or in
// use the ingest thread blocks on `free` until execution catches up, and
// each side's blocked time is recorded (ingest_stall_ns: ingest waited on
// execution; exec_stall_ns: execution starved for input — the pipeline is
// ingest-bound). Execution order and batch boundaries are exactly those of
// the synchronous Ingest/Flush path, so async_ingest changes *where* the
// parse happens, never what the operators observe: workers=1 /
// batch=1 output stays byte-identical, everything else keeps the runtime's
// established snapshot-equivalence contract.
//
// Sharded parse stage (ingest_parsers > 1): when one parser thread is the
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
// equivalence contract is untouched; with one parser the run collapses to
// the single-producer pipeline (byte-identical output). Per-
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
#include <vector>

#include "common/status.h"
#include "model/sgt.h"
#include "runtime/spsc_queue.h"

namespace sgq {

class ChunkWalkCursor;
class ChunkedStream;
class Executor;

/// \brief Counters of one or more RunPipelinedSharded calls (cumulative).
/// The inline placement fills only the parse-stage fields (parsers,
/// parser_busy_ns, readahead_stall_ns) and late_dropped.
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

  // --- parse stage ---
  /// Parser threads of the most recent run (1 = the inline walk or the
  /// single-producer pipeline).
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

  /// \brief Folds one run's per-parser counters into these stats.
  void AddParserRun(std::size_t num_parsers, const uint64_t* stall_ns,
                    const uint64_t* busy_ns);
};

/// \brief One pipelined ingest run over an Executor: construct, Run once.
/// Executor::RunPipelinedSharded wraps this when async_ingest is set.
class IngestPipeline {
 public:
  /// `stats` (the executor's cumulative counters) receives this run's.
  IngestPipeline(Executor* executor, IngestStats* stats)
      : executor_(executor), stats_(stats) {}

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// \brief Runs `stream` to exhaustion: options().ingest_parsers threads
  /// decode its chunks (a sequential walk on the one ingest thread when
  /// 1), execution stays on the calling thread, then joins. Parse errors
  /// (and cross-chunk ordering violations) surface as the returned Status
  /// — elements preceding the error still execute, exactly like the inline
  /// walk. Blocking; the executor is in a normal between-pushes state
  /// afterwards (more input or AdvanceTo may follow).
  Status Run(const ChunkedStream& stream);

 private:
  using Batch = std::vector<Sge>;

  /// \brief Single-producer body: the ingest thread walks `cursor` into
  /// batches while the calling thread executes them.
  void RunSingle(ChunkWalkCursor* cursor);

  /// \brief Sharded body: `parsers` threads decode chunks into gutters,
  /// the order-restoring merge feeds the batch hand-off.
  Status RunSharded(const ChunkedStream& stream, std::size_t parsers);

  /// \brief Ingest-thread body: cursor -> (reorder) -> batch -> full queue.
  void IngestThread(ChunkWalkCursor* cursor, SpscQueue<Batch>* full,
                    SpscQueue<Batch>* free_buffers);

  /// \brief Pops ready batches off `full` and executes them on the
  /// calling thread until the queue closes.
  void ExecuteLoop(SpscQueue<Batch>* full, SpscQueue<Batch>* free_buffers);

  Executor* executor_;
  IngestStats* stats_;
};

}  // namespace sgq

#endif  // SGQ_RUNTIME_INGEST_PIPELINE_H_
