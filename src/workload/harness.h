// Benchmark harness (§7.1.1): runs a query over a stream on one of the
// engines and reports the paper's metrics — sustained throughput
// (edges/second over the labels the query consumes) and the 99th-percentile
// latency of a window slide.

#ifndef SGQ_WORKLOAD_HARNESS_H_
#define SGQ_WORKLOAD_HARNESS_H_

#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/engine.h"
#include "core/query_processor.h"
#include "model/file_chunk_source.h"
#include "model/sgt.h"
#include "model/stream_io.h"
#include "query/rq.h"

namespace sgq {

/// \brief Runs `query` over `stream` on the SGA query processor (canonical
/// plan) and reports metrics. `options.path_impl` selects the PATH
/// implementation (Table 3 compares the two).
Result<RunMetrics> RunSga(const InputStream& stream,
                          const StreamingGraphQuery& query,
                          const Vocabulary& vocab, EngineOptions options,
                          std::string name);

/// \brief Runs an explicit logical plan on the SGA query processor
/// (plan-space experiments of §7.4).
Result<RunMetrics> RunSgaPlan(const InputStream& stream,
                              const LogicalOp& plan, const Vocabulary& vocab,
                              EngineOptions options, std::string name);

/// \brief How a run chunks its stream for RunPipelinedSharded, from the
/// ingest knobs: at least 2 chunks per parser when ingest_parsers > 1 (so
/// every parser gets work), a readahead window that lets every parser
/// hold a chunk while one more loads (at least ingest_parsers + 1), and
/// per-chunk ordering lifted when ingest_slack > 0 (the reorder stage
/// re-validates). The chunk count never changes the element sequence.
FileChunkOptions IngestChunkOptions(const ExecutorOptions& options);

/// \brief Runs `query` over raw stream bytes in `format` (CSV text or SGQB
/// binary), parsing as part of the run — the ingest-bound configuration
/// of bench_ingest_pipeline. One RunPipelinedSharded call over the chunked
/// bytes, so every parse placement sees the same element sequence:
///  - sync (async_ingest off): parse inline on the calling thread;
///  - async, ingest_parsers <= 1: parse on the dedicated ingest thread,
///    overlapped with execution;
///  - async, ingest_parsers = N > 1: sharded parse — N parser threads
///    over byte-range chunks behind the order-restoring merge.
/// Labels/vertices are interned into `*vocab`; fails on malformed or
/// out-of-order input. Parse-stage cost lands in RunMetrics
/// (parse_busy_ns / ParseTuplesPerSec).
Result<RunMetrics> RunSgaText(const std::string& bytes, StreamFormat format,
                              const StreamingGraphQuery& query,
                              Vocabulary* vocab, EngineOptions options,
                              std::string name);

/// \brief RunSgaText over CSV text.
Result<RunMetrics> RunSgaCsv(const std::string& csv_text,
                             const StreamingGraphQuery& query,
                             Vocabulary* vocab, EngineOptions options,
                             std::string name);

/// \brief Runs `query` over a stream *file* in `format` without
/// materializing it: the file is mapped and served through the bounded
/// readahead window of a model/file_chunk_source.h chunk feeder, so peak
/// resident stream bytes are O(readahead · ~256 KB) regardless of file
/// size. The decoded element sequence — and therefore every result and
/// error — is byte-identical to RunSgaText over the same file's bytes in
/// every parse placement. Feeder time lands in
/// RunMetrics::readahead_stall_ns.
Result<RunMetrics> RunSgaFile(const std::string& path, StreamFormat format,
                              const StreamingGraphQuery& query,
                              Vocabulary* vocab, EngineOptions options,
                              std::string name);

/// \brief Crash-recovery driver (DESIGN.md §7): runs `query` over
/// `stream`, checkpointing to `checkpoint_path` after element
/// `checkpoint_at`, keeps pushing until element `kill_at` and then
/// abandons that engine — the simulated crash, losing everything past
/// the snapshot. A fresh engine is compiled from the same query,
/// restored from the checkpoint, resumed from the element index the
/// snapshot recorded (`Engine::ingested()`), and run to the end of the
/// stream. `*results_out` (optional) receives the resumed run's complete
/// result stream; at workers == 1 it is byte-identical to the
/// uninterrupted run's, and identical as a multiset under the sharded
/// configurations' documented reordering.
Result<RunMetrics> RunSgaCheckpointKill(const InputStream& stream,
                                        const StreamingGraphQuery& query,
                                        const Vocabulary& vocab,
                                        EngineOptions options,
                                        const std::string& checkpoint_path,
                                        std::size_t checkpoint_at,
                                        std::size_t kill_at,
                                        std::string name,
                                        std::vector<Sgt>* results_out);

/// \brief Runs `query` on the DD-style baseline engine.
Result<RunMetrics> RunDd(const InputStream& stream,
                         const StreamingGraphQuery& query,
                         const Vocabulary& vocab, std::string name);

/// \brief Metrics of a multi-query Engine run: the aggregate stream-side
/// metrics plus the per-query result demux and sharing counters.
struct MultiQueryMetrics {
  RunMetrics totals;  ///< results_emitted sums every query's sink
  std::vector<std::size_t> per_query_results;  ///< index == QueryId
  std::size_t num_operators = 0;  ///< physical ops, sinks included
  /// Subtree dedup hits, within-registration reuse included (nonzero
  /// even with cross_query_sharing off — one plan's duplicate subtrees
  /// still compile once).
  std::size_t shared_subtrees = 0;
  /// Dedup hits against an earlier registration's operators — the
  /// cross-query sharing proper; 0 with cross_query_sharing off.
  std::size_t cross_query_shared = 0;
};

/// \brief Registers every plan on one multi-query Engine (core/engine.h),
/// runs `stream` through the shared dataflow once, and reports aggregate
/// plus per-query metrics. `options.cross_query_sharing` selects shared
/// vs per-query-private compilation (the bench_multi_query ablation).
Result<MultiQueryMetrics> RunMultiSgaPlans(
    const InputStream& stream, const std::vector<const LogicalOp*>& plans,
    const Vocabulary& vocab, EngineOptions options, std::string name);

/// \brief RunMultiSgaPlans over parsed SGQs (canonical plans).
Result<MultiQueryMetrics> RunMultiSga(
    const InputStream& stream,
    const std::vector<StreamingGraphQuery>& queries, const Vocabulary& vocab,
    EngineOptions options, std::string name);

/// \brief Prints a fixed-width metrics row:
/// name, throughput (edges/s), p99 slide latency (ms), #results.
void PrintMetricsRow(const RunMetrics& metrics);

/// \brief Prints the row header matching PrintMetricsRow.
void PrintMetricsHeader(const std::string& title);

}  // namespace sgq

#endif  // SGQ_WORKLOAD_HARNESS_H_
