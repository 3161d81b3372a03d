// The benchmark's workloads and the run loop that measures them.
//
// The harness is a closed loop with one client: it replays a stream that
// was generated from the seed before any clock starts, as fast as the
// engine accepts it. A run repeats passes — set up a fresh engine, replay
// the whole stream, check the results against the oracle — until its time
// is spent, and reports the median over passes, so `edges_per_s` is the
// sustainable rate at the workload's stated input size. Everything that is
// not a call into the engine (result retention, state sampling, the oracle
// gate) runs with the clock paused.
//
// With tracing on, passes alternate between untraced and traced; traced
// passes record a span around every call into a layer (trace.h) and give
// the per-layer metrics, and the ratio of traced to untraced throughput is
// the tracing overhead.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// \brief What one run measures.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Passes start while the run has spent less than this many seconds.
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory for the run's files (stream file, checkpoints, trace).
  std::string work_dir = ".";
  /// Input-size multiplier; the self-tests shrink the workloads with it.
  double scale = 1.0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief Outcome of one run.
struct RunReport {
  bool correct = false;
  /// Elements offered, session commands, checkpoints and oracle checks.
  std::uint64_t attempted = 0;
  /// Non-OK statuses, ERR lines, dropped elements and oracle mismatches.
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// The first few failures, for the log.
  std::vector<std::string> errors;
  /// Result tuples drained per query in the first pass, by registration
  /// order (subscription order for sessions).
  std::vector<std::size_t> result_counts;
  /// Passes made, oracle checks made in all of them, and the pairs the
  /// oracle's answers held in total.
  std::size_t passes = 0;
  std::size_t gate_checks = 0;
  std::size_t gate_pairs = 0;
};

/// \brief The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// \brief Generates the workload's inputs from the seed and measures it.
/// Errors are setup failures (unknown workload, unwritable work_dir);
/// failures during measurement are counted in the report instead.
sgq::Result<RunReport> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
