#include "runtime/ingest_pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "core/reorder_buffer.h"
#include "model/stream_io.h"
#include "runtime/executor.h"
#include "runtime/worker_pool.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sgq {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// \brief RAII pin of the calling (execution) thread to `cpu` that
/// restores the previous affinity mask on destruction, so a pinned
/// pipelined run does not leak core affinity into later unpinned runs of
/// the same process (bench binaries interleave both).
class ScopedThreadPin {
 public:
  ScopedThreadPin(bool enable, std::size_t cpu) {
#if defined(__linux__)
    if (!enable) return;
    saved_valid_ = pthread_getaffinity_np(pthread_self(), sizeof(saved_),
                                          &saved_) == 0;
    pinned_ = saved_valid_ && WorkerPool::PinThisThread(cpu);
#else
    (void)enable;
    (void)cpu;
#endif
  }
  ~ScopedThreadPin() {
#if defined(__linux__)
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
#endif
  }

  bool pinned() const { return pinned_; }

 private:
#if defined(__linux__)
  cpu_set_t saved_;
  bool saved_valid_ = false;
#endif
  bool pinned_ = false;
};

/// \brief The slack / batch staging stage shared by the single-producer
/// ingest thread and the sharded merge thread: elements pass through the
/// ReorderBuffer when slack is configured, accumulate into batch buffers,
/// and ship on the `full` queue, acquiring replacements from `free`
/// (blocking = the pipeline's backpressure, accounted to `*stall_ns`).
class BatchStager {
 public:
  using Batch = std::vector<Sge>;

  BatchStager(const ExecutorOptions& options, SpscQueue<Batch>* full,
              SpscQueue<Batch>* free_buffers, uint64_t* stall_ns)
      : batch_size_(options.batch_size),
        use_slack_(options.ingest_slack > 0),
        reorder_(options.ingest_slack),
        full_(full),
        free_(free_buffers),
        stall_(stall_ns) {}

  /// \brief Acquires the first staging buffer.
  bool Start() {
    const bool ok = free_->Pop(&current_, stall_);
    SGQ_CHECK(ok) << "free-buffer pool starts prefilled";
    return ok;
  }

  /// \brief Stages one element (through the slack stage when configured);
  /// false when the downstream queue closed mid-run.
  bool Emit(const Sge& sge) {
    if (!use_slack_) return Stage(sge);
    // Slack stage: out-of-order slack is absorbed here, on the producer
    // side, releasing a timestamp-ordered stream into the batches.
    for (const Sge& released : reorder_.Offer(sge)) {
      if (!Stage(released)) return false;
    }
    return true;
  }

  /// \brief Flushes the slack stage and ships any partial batch (skipped
  /// when `ok` is false — the run is aborting). Returns the slack stage's
  /// late-drop count. Call exactly once.
  std::size_t Finish(bool ok) {
    if (ok && use_slack_) {
      for (const Sge& released : reorder_.Flush()) {
        if (!Stage(released)) {
          ok = false;
          break;
        }
      }
    }
    if (ok && !current_.empty()) full_->Push(std::move(current_), stall_);
    return reorder_.LateCount();
  }

 private:
  /// \brief Appends to the staged batch; ships when it reaches batch size.
  /// Blocking on the free queue is the backpressure: every buffer is
  /// queued or executing.
  bool Stage(const Sge& sge) {
    current_.push_back(sge);
    if (current_.size() < batch_size_) return true;
    if (!full_->Push(std::move(current_), stall_)) return false;
    return free_->Pop(&current_, stall_);
  }

  const std::size_t batch_size_;
  const bool use_slack_;
  ReorderBuffer reorder_;
  SpscQueue<Batch>* full_;
  SpscQueue<Batch>* free_;
  uint64_t* stall_;
  Batch current_;
};

/// \brief Unit of the gutter hand-off: one run of consecutive elements of
/// one chunk, or the chunk's end marker (publishes its parse status).
struct Segment {
  std::vector<Sge> elems;
  std::size_t chunk = 0;
  bool end_of_chunk = false;
};

/// \brief Ready batches the hand-off queue holds (the backpressure bound);
/// the buffer pool holds kIngestQueueDepth + 2 (one staging at ingest, one
/// executing).
constexpr std::size_t kIngestQueueDepth = 4;

/// \brief The hand-off's buffer pool, prefilled with kIngestQueueDepth + 2
/// empty batches of `batch_size` capacity.
void FillBufferPool(SpscQueue<std::vector<Sge>>* free_buffers,
                    std::size_t batch_size) {
  for (std::size_t i = 0; i < kIngestQueueDepth + 2; ++i) {
    std::vector<Sge> buffer;
    buffer.reserve(batch_size);
    SGQ_CHECK(free_buffers->TryPush(std::move(buffer)));
  }
}

/// \brief Segments a parser may have in flight toward the merge; the free
/// pool holds kGutterDepth + 2 (one staging at the parser, one draining at
/// the merge), so steady state allocates nothing.
constexpr std::size_t kGutterDepth = 4;

}  // namespace

void IngestStats::AddParserRun(std::size_t num_parsers,
                               const uint64_t* stall_ns,
                               const uint64_t* busy_ns) {
  parsers = num_parsers;
  if (parser_stall_ns.size() < num_parsers) {
    parser_stall_ns.resize(num_parsers, 0);
    parser_busy_ns.resize(num_parsers, 0);
  }
  for (std::size_t p = 0; p < num_parsers; ++p) {
    parser_stall_ns[p] += stall_ns[p];
    parser_busy_ns[p] += busy_ns[p];
  }
}

void IngestPipeline::IngestThread(ChunkWalkCursor* cursor,
                                  SpscQueue<Batch>* full,
                                  SpscQueue<Batch>* free_buffers) {
  const ExecutorOptions& options = executor_->options();
  if (options.pin_workers &&
      options.num_workers < std::thread::hardware_concurrency()) {
    // The slot after the worker range, so parsing never competes with a
    // pinned execution core. When the workers already cover every core
    // the slot would wrap onto core 0 — the execution thread's pin — and
    // force exactly the timesharing pinning exists to avoid, so the
    // ingest thread floats instead.
    WorkerPool::PinThisThread(options.num_workers);
  }
  BatchStager stager(options, full, free_buffers, &stats_->ingest_stall_ns);
  bool ok = stager.Start();

  // Cursor reads need not align with batches; a modest fixed chunk keeps
  // per-call overhead low without adding latency at small batches.
  std::vector<Sge> chunk(
      std::clamp<std::size_t>(options.batch_size, 1, 1024));
  while (ok) {
    const std::size_t n = cursor->Next(chunk.data(), chunk.size());
    if (n == 0) break;
    for (std::size_t i = 0; i < n && ok; ++i) ok = stager.Emit(chunk[i]);
  }
  stats_->late_dropped += stager.Finish(ok);
  full->Close();
}

void IngestPipeline::ExecuteLoop(SpscQueue<Batch>* full,
                                 SpscQueue<Batch>* free_buffers) {
  Batch batch;
  while (full->Pop(&batch, &stats_->exec_stall_ns)) {
    executor_->ExecutePipelinedBatch(batch.data(), batch.size());
    ++stats_->batches;
    batch.clear();
    // Never blocks: the pool holds at most depth + 2 buffers.
    SGQ_CHECK(free_buffers->TryPush(std::move(batch)));
  }
}

Status IngestPipeline::Run(const ChunkedStream& stream) {
  // Drain anything the synchronous Ingest path queued before the pipeline
  // takes over, so batch boundaries stay exactly the synchronous ones.
  executor_->Flush();
  // Windowed file sources accumulate feeder time across every OpenChunk;
  // accounting the per-run delta keeps cumulative stats correct.
  const uint64_t readahead_before = stream.ReadaheadStallNs();
  const std::size_t parsers = executor_->options().ingest_parsers;
  Status status;
  if (parsers <= 1) {
    // One sequential chunk walk on the single-producer pipeline — the
    // same element sequence as the inline walk, so output stays
    // byte-identical to it.
    ChunkWalkCursor cursor(stream,
                           executor_->options().ingest_slack > 0);
    RunSingle(&cursor);
    const uint64_t stall = 0;
    const uint64_t busy = cursor.busy_ns();
    stats_->AddParserRun(1, &stall, &busy);
    status = cursor.status();
  } else {
    status = RunSharded(stream, parsers);
  }
  stats_->readahead_stall_ns += stream.ReadaheadStallNs() - readahead_before;
  return status;
}

void IngestPipeline::RunSingle(ChunkWalkCursor* cursor) {
  const ExecutorOptions& options = executor_->options();
  SpscQueue<Batch> full(kIngestQueueDepth);
  SpscQueue<Batch> free_buffers(kIngestQueueDepth + 2);
  FillBufferPool(&free_buffers, options.batch_size);

  std::thread ingest([&] { IngestThread(cursor, &full, &free_buffers); });
  {
    ScopedThreadPin pin_exec_thread(options.pin_workers, 0);
    (void)pin_exec_thread;
    ExecuteLoop(&full, &free_buffers);
  }
  ingest.join();
}

Status IngestPipeline::RunSharded(const ChunkedStream& stream,
                                  std::size_t parsers) {
  const ExecutorOptions& options = executor_->options();
  const bool allow_disorder = options.ingest_slack > 0;
  const std::size_t chunks = stream.NumChunks();
  SpscQueue<Batch> full(kIngestQueueDepth);
  SpscQueue<Batch> free_buffers(kIngestQueueDepth + 2);
  FillBufferPool(&free_buffers, options.batch_size);

  // Gutter stage: per-parser SPSC segment queues (parser -> merge) with a
  // free-list back-channel (merge -> parser). Chunk c is owned by parser
  // c mod parsers, and a parser walks its chunks in ascending order, so
  // per-queue FIFO delivery hands the merge whole chunks in index order.
  const std::size_t seg_cap =
      std::clamp<std::size_t>(options.batch_size, 1, 1024);
  std::vector<std::unique_ptr<SpscQueue<Segment>>> gutter;
  std::vector<std::unique_ptr<SpscQueue<Segment>>> gutter_free;
  for (std::size_t p = 0; p < parsers; ++p) {
    gutter.push_back(std::make_unique<SpscQueue<Segment>>(kGutterDepth));
    gutter_free.push_back(
        std::make_unique<SpscQueue<Segment>>(kGutterDepth + 2));
    for (std::size_t i = 0; i < kGutterDepth + 2; ++i) {
      Segment seg;
      seg.elems.reserve(seg_cap);
      SGQ_CHECK(gutter_free[p]->TryPush(std::move(seg)));
    }
  }
  // Per-chunk parse status, written by the owning parser before its
  // end-of-chunk marker (the queue's release publish orders it); the
  // merge reads it when the marker arrives, so the first error in chunk
  // order wins — exactly the sequential cursor's error.
  std::vector<Status> chunk_status(chunks);
  std::vector<uint64_t> parser_stall(parsers, 0);
  std::vector<uint64_t> parser_busy(parsers, 0);

  std::vector<std::thread> parser_threads;
  parser_threads.reserve(parsers);
  for (std::size_t p = 0; p < parsers; ++p) {
    parser_threads.emplace_back([&, p] {
      if (options.pin_workers) {
        // Parsers line up after the merge thread's slot (num_workers);
        // best-effort, and never onto a slot that does not exist.
        const std::size_t slot = options.num_workers + 1 + p;
        if (slot < std::thread::hardware_concurrency()) {
          WorkerPool::PinThisThread(slot);
        }
      }
      uint64_t stall = 0;
      uint64_t busy = 0;
      Segment seg;
      bool ok = gutter_free[p]->Pop(&seg, &stall);
      for (std::size_t c = p; ok && c < chunks; c += parsers) {
        std::unique_ptr<StreamCursor> cursor = stream.OpenChunk(c);
        for (;;) {
          seg.elems.resize(seg_cap);
          const auto t0 = Clock::now();
          const std::size_t n = cursor->Next(seg.elems.data(), seg_cap);
          busy += ElapsedNs(t0);
          if (n == 0) break;
          seg.elems.resize(n);
          seg.chunk = c;
          seg.end_of_chunk = false;
          // A failed push/pop means the merge aborted and closed the
          // gutters — stop parsing, the error is already decided.
          if (!gutter[p]->Push(std::move(seg), &stall) ||
              !gutter_free[p]->Pop(&seg, &stall)) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
        chunk_status[c] = cursor->status();
        seg.elems.clear();
        seg.chunk = c;
        seg.end_of_chunk = true;
        if (!gutter[p]->Push(std::move(seg), &stall)) break;
        if (c + parsers < chunks &&
            !gutter_free[p]->Pop(&seg, &stall)) {
          break;
        }
      }
      gutter[p]->Close();
      parser_stall[p] = stall;
      parser_busy[p] = busy;
    });
  }

  Status merge_error;
  std::thread merge([&] {
    if (options.pin_workers &&
        options.num_workers < std::thread::hardware_concurrency()) {
      WorkerPool::PinThisThread(options.num_workers);
    }
    BatchStager stager(options, &full, &free_buffers,
                       &stats_->ingest_stall_ns);
    bool ok = stager.Start();
    const bool check_order = !allow_disorder;
    Timestamp last_t = kMinTimestamp;
    for (std::size_t c = 0; ok && c < chunks; ++c) {
      SpscQueue<Segment>& q = *gutter[c % parsers];
      for (;;) {
        Segment seg;
        if (!q.Pop(&seg, &stats_->merge_stall_ns)) {
          // Parser vanished without an end-of-chunk marker: only happens
          // when the run is already aborting.
          if (merge_error.ok()) {
            merge_error =
                Status::Internal("sharded parse stage ended unexpectedly");
          }
          ok = false;
          break;
        }
        if (seg.end_of_chunk) {
          SGQ_CHECK_EQ(seg.chunk, c) << "gutters deliver chunks in order";
          if (!chunk_status[c].ok()) {
            merge_error = chunk_status[c];
            ok = false;
          }
          seg.elems.clear();
          gutter_free[c % parsers]->TryPush(std::move(seg));
          break;
        }
        // Chunk-local cursors validate ordering internally; the merge
        // closes the gap across chunk boundaries. (Within a chunk the
        // check never fires: front >= previous back already.)
        if (check_order && !seg.elems.empty() &&
            seg.elems.front().t < last_t) {
          merge_error = ChunkBoundaryError(c, seg.elems.front().t, last_t);
          ok = false;
        } else {
          for (const Sge& sge : seg.elems) {
            if (!(ok = stager.Emit(sge))) break;
          }
          if (!seg.elems.empty()) last_t = seg.elems.back().t;
        }
        seg.elems.clear();
        gutter_free[c % parsers]->TryPush(std::move(seg));
        if (!ok) break;
      }
    }
    if (!ok) {
      // Abort: wake every parser blocked on a gutter so the threads exit
      // (Close is safe from either side of an SPSC queue), and every
      // parser blocked inside a windowed file source's OpenChunk — a
      // chunk that will never retire once the merge stops draining.
      stream.Abort();
      for (std::size_t p = 0; p < parsers; ++p) {
        gutter[p]->Close();
        gutter_free[p]->Close();
      }
    }
    stats_->late_dropped += stager.Finish(ok);
    full.Close();
  });

  {
    ScopedThreadPin pin_exec_thread(options.pin_workers, 0);
    (void)pin_exec_thread;
    ExecuteLoop(&full, &free_buffers);
  }
  merge.join();
  for (std::thread& t : parser_threads) t.join();
  stats_->AddParserRun(parsers, parser_stall.data(), parser_busy.data());
  return merge_error;
}

}  // namespace sgq
