#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <streambuf>
#include <string_view>
#include <utility>

#include "bench_util.h"
#include "core/engine.h"
#include "gate.h"
#include "model/file_chunk_source.h"
#include "model/stream_io.h"
#include "server/session.h"
#include "trace.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace perfbench {

namespace {

using sgq::Engine;
using sgq::QueryId;
using sgq::Sge;
using sgq::Sgt;
using sgq::SgtStream;
using sgq::Status;
using sgq::Timestamp;
using Clock = std::chrono::steady_clock;

/// Slides between two StateBytes() samples. StateBytes walks every PATH
/// tree, so it is sampled at a fixed cadence with the clock paused rather
/// than every slide; the session workload's state is small and changes
/// with every rotation, so it is sampled more often.
constexpr std::size_t kStateCadence = 64;
constexpr std::size_t kSessionStateCadence = 8;
/// Share of a traced pass's wall time that the per-layer self times plus
/// the harness's own time may miss before the traced run fails.
constexpr double kLayerSumTolerance = 0.02;
/// Cap of the reported tail percentile (slide_ms_p99).
constexpr double kTailCap = 0.99;
/// Measured passes made at least, whatever the run's time says (traced
/// runs make at least this many of each kind). One unmeasured warm-up
/// pass comes first, so caches, page mappings and the allocator are warm
/// when measuring starts.
constexpr std::size_t kMinPasses = 3;
/// Set-ups made and torn down before the first pass, for setup_s.
constexpr std::size_t kSetupReps = 20;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// One measured replay of a workload's stream through a fresh engine.
struct Pass {
  Tracer* tracer = nullptr;
  /// Warm-up passes are checked like any other but not measured.
  bool warmup = false;
  bool traced = false;
  PausableClock clock;
  double setup_s = 0;
  std::size_t elements = 0;
  /// Harness-visible slide latencies (ms) and their per-pass summary.
  std::vector<double> slide_ms;
  double slide_p50_ms = 0;
  double slide_tail_ms = 0;
  std::size_t slide_n = 0;
  double state_bytes_peak = 0;
  double state_entries_peak = 0;
  std::size_t state_samples = 0;
  std::size_t results = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t gate_checks = 0;
  std::size_t gate_pairs = 0;
  std::vector<std::string>* errors = nullptr;
  /// Per-layer values read after the pass (counters, latency medians).
  std::map<std::string, double> values;
  std::vector<std::size_t> result_counts;

  void Fail(const std::string& why) {
    ++failed;
    if (errors->size() < 8) errors->push_back(why);
  }
  /// Counts one attempted operation that returned `st`.
  void Check(const Status& st, const char* what) {
    ++attempted;
    if (!st.ok()) Fail(std::string(what) + ": " + st.ToString());
  }
  /// Runs one oracle check of `results` at `t` and counts it.
  void GateCheck(OracleGate* gate, std::size_t key,
                 const sgq::StreamingGraphQuery& query,
                 const sgq::Vocabulary& vocab, const SgtStream& results,
                 Timestamp t, const std::string& who) {
    std::string why;
    std::size_t pairs = 0;
    auto ok = gate->Check(key, query, vocab, results, t, &why, &pairs);
    ++attempted;
    ++gate_checks;
    gate_pairs += pairs;
    if (!ok.ok()) {
      Fail("oracle: " + ok.status().ToString());
    } else if (!*ok) {
      Fail(who + " " + why);
    }
  }
  /// Samples operator state; the clock must be paused.
  void SampleState(const Engine& engine) {
    state_bytes_peak = std::max(state_bytes_peak,
                                static_cast<double>(engine.StateBytes()));
    state_entries_peak = std::max(state_entries_peak,
                                  static_cast<double>(engine.StateSize()));
    ++state_samples;
  }
  /// Read-after-run counters shared by every engine workload.
  void ReadEngineCounters(const Engine& engine) {
    const double processed =
        std::max<double>(1, static_cast<double>(engine.edges_processed()));
    values["runtime.ops_per_edge"] =
        static_cast<double>(engine.executor().ops_touched()) / processed;
    values["runtime.index_skipped_per_edge"] =
        static_cast<double>(engine.executor().index_skipped_dispatches()) /
        processed;
    values["core.operators"] = static_cast<double>(engine.NumOperators());
    values["core.cross_shared_subtrees"] =
        static_cast<double>(engine.NumCrossQuerySharedSubtrees());
    if (engine.edges_pushed() != elements) {
      Fail("engine took " + std::to_string(engine.edges_pushed()) +
           " elements of " + std::to_string(elements) + " offered");
    }
  }
};

/// Evenly spaced gate instants in [lo, hi] (just hi when lo > hi).
std::vector<Timestamp> GateInstants(Timestamp lo, Timestamp hi, int n) {
  if (lo >= hi) return {hi};
  std::vector<Timestamp> out;
  for (int i = 0; i < n; ++i) out.push_back(lo + (hi - lo) * i / (n - 1));
  return out;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed; not part of setup_s.
  virtual Status Generate(const RunOptions& options) = 0;
  /// Timed as setup_s: engine construction, query parse and compile,
  /// Finalize, and whatever else must happen before the first element.
  virtual Status SetUp(Tracer* tracer) = 0;
  /// Replays the whole stream once through the engine SetUp built.
  virtual void Replay(Pass* pass) = 0;
  /// Checks the pass's results against the oracle; clock paused.
  virtual void Gate(Pass* pass) = 0;
  /// Destroys the engine and everything the pass retained.
  virtual void TearDown() = 0;
  /// Removes files Generate wrote.
  virtual void Cleanup() {}
};

/// Traced runs: one untraced, gated pass of a companion workload (another
/// configuration over the same inputs), off the clock. Its failures and
/// checks count in `pass`; its measurements come back in the result.
Pass SidePass(Workload* companion, Pass* pass) {
  ScopedSpan span(pass->tracer, "bench.companion");
  Tracer off(false);
  Pass side;
  side.tracer = &off;
  side.errors = pass->errors;
  const Status st = companion->SetUp(&off);
  side.Check(st, "companion set-up");
  if (st.ok()) {
    companion->Replay(&side);
    companion->Gate(&side);
  }
  companion->TearDown();
  pass->attempted += side.attempted;
  pass->failed += side.failed;
  pass->gate_checks += side.gate_checks;
  pass->gate_pairs += side.gate_pairs;
  side.tracer = nullptr;
  return side;
}

// ---------------------------------------------------------------------------
// Engine workloads: so-deletes, zipf-fanout
// ---------------------------------------------------------------------------

/// Standing queries on one Engine, fed through the public API.
class EngineWorkload : public Workload {
 protected:
  /// Parses and compiles every query, then finalizes.
  Status BuildEngine(Tracer* tracer) {
    {
      ScopedSpan span(tracer, "core.engine_new");
      engine_ = std::make_unique<Engine>(options_);
    }
    queries_.clear();
    ids_.clear();
    for (const std::string& text : texts_) {
      auto query = [&] {
        ScopedSpan span(tracer, "query.parse");
        return sgq::MakeQuery(text, window_, &vocab_);
      }();
      SGQ_RETURN_NOT_OK(query.status());
      auto id = [&] {
        ScopedSpan span(tracer, "core.compile");
        return engine_->AddQuery(*query, vocab_);
      }();
      SGQ_RETURN_NOT_OK(id.status());
      queries_.push_back(std::move(*query));
      ids_.push_back(*id);
    }
    ScopedSpan span(tracer, "core.finalize");
    return engine_->Finalize();
  }

  /// Drains every query's results at the end of a slide (core.sink).
  void TakeAll(Tracer* tracer, bool aggregate) {
    SpanAggregate agg(tracer, "core.sink");
    for (std::size_t q = 0; q < ids_.size(); ++q) {
      if (aggregate && tracer->enabled()) {
        const auto t0 = Clock::now();
        taken_[q] = engine_->TakeResults(ids_[q]);
        agg.Add(t0, Clock::now());
      } else {
        ScopedSpan span(tracer, "core.sink");
        taken_[q] = engine_->TakeResults(ids_[q]);
      }
    }
    agg.Flush();
  }

  /// Off the clock: counts drained results and keeps the gated queries'.
  void Retain(Pass* pass) {
    for (std::size_t q = 0; q < taken_.size(); ++q) {
      pass->results += taken_[q].size();
      counts_[q] += taken_[q].size();
      if (gated_[q]) {
        retained_[q].insert(retained_[q].end(),
                            std::make_move_iterator(taken_[q].begin()),
                            std::make_move_iterator(taken_[q].end()));
      }
      taken_[q].clear();
    }
  }

  void ResetRetention() {
    taken_.assign(ids_.size(), {});
    retained_.assign(ids_.size(), {});
    counts_.assign(ids_.size(), 0);
  }

  void Gate(Pass* pass) override {
    if (gate_ == nullptr) {
      gate_ = std::make_unique<OracleGate>(stream_, window_);
    }
    const Timestamp lo =
        stream_.front().t + window_.size + window_.slide;
    for (Timestamp t : GateInstants(lo, gate_hi_, gate_instants_)) {
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        if (!gated_[q]) continue;
        pass->GateCheck(gate_.get(), q, queries_[q], vocab_, retained_[q], t,
                        "query " + std::to_string(q));
      }
    }
    pass->result_counts = counts_;
  }

  void TearDown() override {
    engine_.reset();
    taken_.clear();
    retained_.clear();
  }

  sgq::Vocabulary vocab_;
  sgq::InputStream stream_;
  sgq::WindowSpec window_;
  sgq::EngineOptions options_;
  std::vector<std::string> texts_;
  std::vector<bool> gated_;
  int gate_instants_ = 16;
  /// Last instant the gate may check: every element at or before it has
  /// been processed when the pass ends.
  Timestamp gate_hi_ = 0;
  std::unique_ptr<OracleGate> gate_;  ///< built at the first Gate

  std::unique_ptr<Engine> engine_;
  std::vector<sgq::StreamingGraphQuery> queries_;
  std::vector<QueryId> ids_;
  std::vector<std::vector<Sgt>> taken_;
  std::vector<SgtStream> retained_;
  std::vector<std::size_t> counts_;
};

/// so-deletes: SO-like stream with 15% explicit deletions, 7-day window
/// sliding hourly, three standing queries (a closure, a 3-atom PATTERN,
/// and the closure joined with c2q) on one engine; sync Push, batch 1,
/// one worker. PATTERN and PATH deletion and re-derivation dominate.
///
/// The stream is kCommunities independent SO-like communities of 320
/// vertices each, interleaved in time. One community's cost is set by
/// the hubs its seed happens to grow (5-15k edges/s across seeds for a
/// single 320-vertex stream); the sum over many communities is steady
/// across seeds, while the shared PATTERN tables still hold every
/// community's bindings, so a deletion's cost reflects the whole state.
class SoDeletes : public EngineWorkload {
 public:
  Status Generate(const RunOptions& options) override {
    for (std::size_t k = 0; k < kCommunities; ++k) {
      sgq::Vocabulary local;
      sgq::SoOptions so;
      so.seed = options.seed * kCommunities + k;
      so.num_vertices = 320;
      so.num_edges = static_cast<std::size_t>(1500 * options.scale);
      so.preferential_fraction = 0.3;
      so.edges_per_hour = 1.0;  // one element per community-hour
      so.deletion_probability = 0.15;
      so.deletion_horizon = 2048;
      SGQ_ASSIGN_OR_RETURN(sgq::InputStream part,
                           sgq::GenerateSoStream(so, &local));
      std::vector<sgq::VertexId> vertex(local.NumVertices());
      for (std::size_t v = 0; v < vertex.size(); ++v) {
        const auto id = static_cast<sgq::VertexId>(v);
        vertex[v] = vocab_.InternVertex("c" + std::to_string(k) +
                                        local.VertexName(id));
      }
      for (Sge e : part) {
        SGQ_ASSIGN_OR_RETURN(e.label,
                             vocab_.InternInputLabel(local.LabelName(e.label)));
        e.src = vertex[static_cast<std::size_t>(e.src)];
        e.trg = vertex[static_cast<std::size_t>(e.trg)];
        stream_.push_back(e);
      }
    }
    std::stable_sort(stream_.begin(), stream_.end(),
                     [](const Sge& a, const Sge& b) { return a.t < b.t; });
    window_ = sgq::WindowSpec(7 * sgq::kDay, sgq::kHour);
    texts_ = {
        "Answer(x,y) <- a2q+(x,y)",
        "Answer(x,y) <- a2q(x,z1), c2q(z1,z2), c2a(z2,y)",
        "Answer(x,z) <- a2q+(x,y), c2q(y,z)",
    };
    gated_.assign(texts_.size(), true);
    gate_instants_ = 8;
    slides_ = BucketBySlide(stream_, window_.slide);
    gate_hi_ = slides_.back().start;
    return Status::OK();
  }

  Status SetUp(Tracer* tracer) override {
    SGQ_RETURN_NOT_OK(BuildEngine(tracer));
    ResetRetention();
    return Status::OK();
  }

  void Replay(Pass* pass) override {
    Tracer* tr = pass->tracer;
    for (std::size_t s = 0; s < slides_.size(); ++s) {
      const SlideRange& slide = slides_[s];
      pass->clock.Resume();
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tr, "bench.slide");
        for (std::size_t i = slide.begin; i < slide.end; ++i) {
          const Sge& e = stream_[i];
          ScopedSpan push(tr, e.is_deletion ? "core.push_del"
                                            : "core.push_ins");
          engine_->Push(e);
        }
        {
          ScopedSpan advance(tr, "core.advance");
          engine_->AdvanceTo(slide.start + window_.slide);
        }
        TakeAll(tr, /*aggregate=*/false);
      }
      pass->slide_ms.push_back(Ms(Clock::now() - t0));
      pass->clock.Pause();
      ScopedSpan off(tr, "bench.offclock");
      Retain(pass);
      if (s % kStateCadence == 0 || s + 1 == slides_.size()) {
        pass->SampleState(*engine_);
      }
    }
    pass->elements = stream_.size();
    pass->attempted += stream_.size();
    pass->ReadEngineCounters(*engine_);
  }

 private:
  static constexpr std::size_t kCommunities = 64;
  std::vector<SlideRange> slides_;
};

/// The 512 standing queries of zipf-fanout, four shapes over the
/// 1024 Zipf labels (l0 hottest). The eight hottest labels feed no query,
/// so the index discards a third of the stream at dispatch.
std::string ZipfQuery(std::size_t q) {
  const std::size_t k = q / 4;
  auto l = [](std::size_t label) { return "l" + std::to_string(label); };
  switch (q % 4) {
    case 0:  // one atom
      return "Answer(x,y) <- " + l(8 + k) + "(x,y)";
    case 1:  // chain join
      return "Answer(x,y) <- " + l(136 + k) + "(x,z), " + l(264 + k) +
             "(z,y)";
    case 2:  // star join
      return "Answer(y,z) <- " + l(136 + k) + "(x,y), " + l(392 + k) +
             "(x,z)";
    default:  // closure on a cold label
      return "Answer(x,y) <- " + l(520 + k) + "+(x,y)";
  }
}

/// zipf-fanout: an insert-only Zipf stream over 1024 labels, written to a
/// CSV file before set-up, read back through the file chunk source and
/// fed to 512 standing queries, batch 64. The benchmark thread walks the
/// file with ChunkWalkCursor and pushes element by element.
///
/// Traced runs also replay the same file through RunPipelinedSharded with
/// two parser threads (execution, merge and two parsers: four threads), the
/// only path into runtime/ingest_pipeline and its order-restoring merge,
/// for the runtime.ingest.* metrics. That replay is off the clock and has
/// no end-to-end metrics: its rate depends on how fast idle cores wake
/// (1.1 M edges/s on an idle 4-CPU machine, 1.9 M with one busy neighbour
/// process), too unsteady for a bound.
class ZipfFanout : public EngineWorkload {
 public:
  explicit ZipfFanout(bool pipelined) : pipelined_(pipelined) {}

  Status Generate(const RunOptions& options) override {
    sgq::ZipfStreamOptions zipf;
    zipf.seed = options.seed;
    zipf.num_labels = 1024;
    zipf.num_vertices = 2000;
    zipf.num_edges = static_cast<std::size_t>(1000000 * options.scale);
    zipf.skew = 1.0;
    zipf.edges_per_hour = 50.0;
    SGQ_ASSIGN_OR_RETURN(stream_,
                         sgq::GenerateZipfLabelStream(zipf, &vocab_));
    path_ = options.work_dir + "/zipf-" + std::to_string(options.seed) +
            (pipelined_ ? "-p" : "-s") + ".csv";
    SGQ_RETURN_NOT_OK(sgq::WriteFileBytes(
        path_, sgq::FormatStreamCsv(stream_, vocab_)));
    window_ = sgq::WindowSpec(10 * sgq::kDay, 12 * sgq::kHour);
    options_.batch_size = 64;
    if (pipelined_) {
      options_.async_ingest = true;
      options_.ingest_parsers = kParsers;
    } else if (options.trace) {
      pipeline_ = std::make_unique<ZipfFanout>(true);
      SGQ_RETURN_NOT_OK(pipeline_->Generate(options));
    }
    texts_.clear();
    gated_.clear();
    for (std::size_t q = 0; q < kQueries; ++q) {
      texts_.push_back(ZipfQuery(q));
      // Eight gated queries, two of each shape.
      gated_.push_back(q % 64 == (q / 64) % 4);
    }
    gate_instants_ = 4;
    gate_hi_ = stream_.back().t;
    return Status::OK();
  }

  Status SetUp(Tracer* tracer) override {
    SGQ_RETURN_NOT_OK(BuildEngine(tracer));
    sgq::FileChunkOptions fco;
    if (pipelined_) {
      // The chunk floor and window RunSgaFile uses for sharded parse.
      fco.min_chunks = kParsers * 2;
      fco.readahead_chunks =
          std::max(options_.ingest_readahead_chunks, kParsers + 1);
    }
    ScopedSpan span(tracer, "model.file_open");
    SGQ_ASSIGN_OR_RETURN(source_, sgq::MakeFileChunkSource(
                                      path_, sgq::StreamFormat::kCsv,
                                      &vocab_, fco));
    ResetRetention();
    return Status::OK();
  }

  void Replay(Pass* pass) override {
    if (pipelined_) {
      ReplayPipelined(pass);
    } else {
      ReplaySync(pass);
    }
    pass->attempted += pass->elements;
    pass->ReadEngineCounters(*engine_);
    if (pipeline_ != nullptr && pass->traced) {
      const Pass side = SidePass(pipeline_.get(), pass);
      for (const auto& [name, value] : side.values) {
        if (name.rfind("runtime.ingest.", 0) == 0 ||
            name.rfind("model.", 0) == 0) {
          pass->values[name] = value;
        }
      }
    }
  }

  void TearDown() override {
    source_.reset();
    EngineWorkload::TearDown();
  }

  void Cleanup() override {
    std::remove(path_.c_str());
    if (pipeline_ != nullptr) pipeline_->Cleanup();
  }

 private:
  static constexpr std::size_t kQueries = 512;
  static constexpr std::size_t kParsers = 2;
  static constexpr std::size_t kReadBlock = 256;

  void ReplaySync(Pass* pass) {
    Tracer* tr = pass->tracer;
    const bool traced = tr->enabled();
    sgq::ChunkWalkCursor cursor(*source_, /*allow_disorder=*/false);
    std::vector<Sge> block(kReadBlock);
    SpanAggregate parse(tr, "model.parse");
    SpanAggregate push(tr, "core.push_ins");
    std::optional<ScopedSpan> slide_span;
    std::size_t slides = 0;
    std::size_t elements = 0;
    Timestamp slide_start = 0;
    bool open = false;
    Clock::time_point t0;

    auto begin_slide = [&]() {
      pass->clock.Resume();
      t0 = Clock::now();
      slide_span.emplace(tr, "bench.slide");
    };
    auto end_slide = [&]() {
      parse.Flush();
      push.Flush();
      {
        ScopedSpan advance(tr, "core.advance");
        engine_->AdvanceTo(slide_start + window_.slide);
      }
      TakeAll(tr, /*aggregate=*/true);
      slide_span.reset();
      pass->slide_ms.push_back(Ms(Clock::now() - t0));
      pass->clock.Pause();
      ScopedSpan off(tr, "bench.offclock");
      Retain(pass);
      if (slides++ % kStateCadence == 0) pass->SampleState(*engine_);
    };

    begin_slide();
    for (;;) {
      const auto p0 = traced ? Clock::now() : Clock::time_point{};
      const std::size_t n = cursor.Next(block.data(), block.size());
      if (traced) parse.Add(p0, Clock::now());
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        const Sge& e = block[i];
        const Timestamp start = (e.t / window_.slide) * window_.slide;
        if (open && start != slide_start) {
          end_slide();
          begin_slide();
        }
        slide_start = start;
        open = true;
        if (traced) {
          const auto s0 = Clock::now();
          engine_->Push(e);
          push.Add(s0, Clock::now());
        } else {
          engine_->Push(e);
        }
      }
      elements += n;
    }
    end_slide();
    pass->SampleState(*engine_);
    pass->Check(cursor.status(), "file cursor");
    pass->elements = elements;
  }

  /// One RunPipelinedSharded call over the whole file, then a drain.
  void ReplayPipelined(Pass* pass) {
    Tracer* tr = pass->tracer;
    pass->clock.Resume();
    const Status st = engine_->RunPipelinedSharded(*source_);
    TakeAll(tr, /*aggregate=*/true);
    pass->clock.Pause();
    pass->Check(st, "RunPipelinedSharded");
    Retain(pass);
    const sgq::IngestStats& in = engine_->ingest_stats();
    pass->elements = stream_.size();
    if (in.late_dropped != 0) {
      pass->Fail(std::to_string(in.late_dropped) + " elements dropped late");
    }
    std::uint64_t busy = 0;
    for (std::uint64_t ns : in.parser_busy_ns) busy += ns;
    std::uint64_t parser_stall = 0;
    for (std::uint64_t ns : in.parser_stall_ns) parser_stall += ns;
    pass->values["runtime.ingest.run_s"] = pass->clock.Seconds();
    pass->values["model.parse_busy_s"] = static_cast<double>(busy) * 1e-9;
    pass->values["model.readahead_stall_s"] =
        static_cast<double>(in.readahead_stall_ns) * 1e-9;
    pass->values["runtime.ingest.ingest_stall_s"] =
        static_cast<double>(in.ingest_stall_ns) * 1e-9;
    pass->values["runtime.ingest.exec_stall_s"] =
        static_cast<double>(in.exec_stall_ns) * 1e-9;
    pass->values["runtime.ingest.merge_stall_s"] =
        static_cast<double>(in.merge_stall_ns) * 1e-9;
    pass->values["runtime.ingest.parser_stall_s"] =
        static_cast<double>(parser_stall) * 1e-9;
  }

  const bool pipelined_;
  std::string path_;
  std::unique_ptr<sgq::FileChunkSource> source_;
  /// The pipelined replay traced runs also time (null otherwise).
  std::unique_ptr<ZipfFanout> pipeline_;
};

// ---------------------------------------------------------------------------
// snb-sessions
// ---------------------------------------------------------------------------

/// Output sink of the session server: keeps every byte written so the
/// harness can parse the responses once the clock is paused, and counts
/// them for server.result_mb.
class CaptureBuf : public std::streambuf {
 public:
  std::string& text() { return text_; }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text_.append(s, static_cast<std::size_t>(n));
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      text_.push_back(static_cast<char>(c));
      ++bytes_;
    }
    return traits_type::not_eof(c);
  }

 private:
  std::string text_;
  std::uint64_t bytes_ = 0;
};

/// Parses the text of one result tuple as SessionServer prints it:
/// `[-](src, label, trg, [ts, exp)[, <payload>])`. Only what the gate
/// reads is kept: endpoints, validity and the deletion flag.
bool ParseResultText(std::string_view s, const sgq::Vocabulary& vocab,
                     Sgt* out) {
  out->is_deletion = !s.empty() && s[0] == '-';
  if (out->is_deletion) s.remove_prefix(1);
  if (s.empty() || s[0] != '(') return false;
  s.remove_prefix(1);
  auto field = [&s](std::string_view sep, std::string_view* f) {
    const std::size_t at = s.find(sep);
    if (at == std::string_view::npos) return false;
    *f = s.substr(0, at);
    s.remove_prefix(at + sep.size());
    return true;
  };
  std::string_view src, label, trg, ts, exp;
  if (!field(", ", &src) || !field(", ", &label) || !field(", [", &trg) ||
      !field(", ", &ts) || !field(")", &exp)) {
    return false;
  }
  auto s_id = vocab.FindVertex(src);
  auto t_id = vocab.FindVertex(trg);
  if (!s_id.ok() || !t_id.ok()) return false;
  out->src = *s_id;
  out->trg = *t_id;
  out->validity = sgq::Interval(std::stoll(std::string(ts)),
                                std::stoll(std::string(exp)));
  return true;
}

/// snb-sessions: SNB-like stream driven through SessionServer::HandleLine,
/// one `INGEST k` per hourly slide, five live subscriptions from
/// SnbQuerySet() rotated by UNSUBSCRIBE/SUBSCRIBE every 25 slides, and an
/// Engine::Checkpoint every 250 slides; batch 64, one worker.
///
/// Traced runs also replay the session on two workers, off the clock, for
/// runtime.sharded.run_s. Two workers have no end-to-end metrics: with
/// INGESTs of a few elements the run is bound by handing waves to the
/// worker pool, and that swings with the machine's other load (72 k or
/// 34 k edges/s on one idle 4-CPU machine from one run to the next, 34 k
/// pinned), while one worker stays at 146-156 k.
class SnbSessions : public Workload {
 public:
  explicit SnbSessions(std::size_t workers) : workers_(workers) {}

  Status Generate(const RunOptions& options) override {
    sgq::SnbOptions snb;
    snb.seed = options.seed;
    snb.num_persons = 900;
    snb.num_communities = 45;
    snb.num_events = static_cast<std::size_t>(32000 * options.scale);
    snb.edges_per_hour = 4.0;
    SGQ_ASSIGN_OR_RETURN(stream_, sgq::GenerateSnbStream(snb, &vocab_));
    for (const sgq::BenchQuery& q : sgq::SnbQuerySet()) {
      texts_.push_back(q.text);
    }
    slides_ = BucketBySlide(stream_, sgq::kHour);
    checkpoint_path_ = options.work_dir + "/snb-" +
                       std::to_string(options.seed) + "-w" +
                       std::to_string(workers_) + ".sgqc";
    if (options.trace && workers_ == 1) {
      sharded_ = std::make_unique<SnbSessions>(2);
      SGQ_RETURN_NOT_OK(sharded_->Generate(options));
    }
    return Status::OK();
  }

  Status SetUp(Tracer* tracer) override {
    tracer_ = tracer;
    sgq::SessionOptions options;
    options.engine.num_workers = workers_;
    options.engine.batch_size = 64;
    options.window = kWindow;
    {
      ScopedSpan span(tracer, "server.init");
      server_ = std::make_unique<sgq::SessionServer>(options, &vocab_);
      SGQ_RETURN_NOT_OK(server_->Init());
    }
    subs_.clear();
    index_.clear();
    live_.clear();
    capture_.text().clear();
    next_query_ = 0;
    for (std::size_t i = 0; i < kLive; ++i) {
      SGQ_RETURN_NOT_OK(Subscribe(/*slide=*/0, nullptr));
    }
    return Status::OK();
  }

  void Replay(Pass* pass) override {
    Tracer* tr = pass->tracer;
    tracer_ = tr;
    const std::uint64_t bytes_before = capture_.bytes();
    std::vector<double> subscribe_ms;
    std::vector<double> unsubscribe_ms;
    std::vector<double> checkpoint_ms;
    std::vector<double> wait_ms;
    std::size_t checkpoints = 0;
    for (std::size_t s = 0; s < slides_.size(); ++s) {
      const SlideRange& slide = slides_[s];
      pass->clock.Resume();
      Clock::duration ingest{0};
      {
        ScopedSpan span(tr, "bench.slide");
        if (s > 0 && s % kRotateEvery == 0) {
          const auto u0 = Clock::now();
          Command("UNSUBSCRIBE " + std::to_string(subs_[live_.front()].id),
                  "server.unsubscribe", pass);
          unsubscribe_ms.push_back(Ms(Clock::now() - u0));
          subs_[live_.front()].detach_slide = s;
          live_.pop_front();
          const auto s0 = Clock::now();
          static_cast<void>(Subscribe(s, pass));  // failures counted in pass
          subscribe_ms.push_back(Ms(Clock::now() - s0));
        }
        if (s > 0 && s % kCheckpointEvery == 0) {
          {
            const auto w0 = Clock::now();
            ScopedSpan wait(tr, "core.checkpoint_wait");
            pass->Check(server_->engine().WaitForCheckpoint(),
                        "WaitForCheckpoint");
            wait_ms.push_back(Ms(Clock::now() - w0));
          }
          const auto c0 = Clock::now();
          ScopedSpan checkpoint(tr, "core.checkpoint");
          pass->Check(server_->engine().Checkpoint(checkpoint_path_, &vocab_),
                      "Checkpoint");
          checkpoint_ms.push_back(Ms(Clock::now() - c0));
          ++checkpoints;
        }
        const auto i0 = Clock::now();
        Command("INGEST " + std::to_string(slide.end - slide.begin),
                "server.ingest", pass);
        ingest = Clock::now() - i0;
      }
      pass->slide_ms.push_back(Ms(ingest));
      pass->clock.Pause();
      ScopedSpan off(tr, "bench.offclock");
      pass->attempted += slide.end - slide.begin;
      Consume(s, pass);
      if (s % kSessionStateCadence == 0 || s + 1 == slides_.size()) {
        pass->SampleState(server_->engine());
      }
    }
    {
      ScopedSpan off(tr, "bench.offclock");
      const auto w0 = Clock::now();
      pass->Check(server_->engine().WaitForCheckpoint(), "WaitForCheckpoint");
      wait_ms.push_back(Ms(Clock::now() - w0));
    }
    pass->elements = stream_.size();
    pass->ReadEngineCounters(server_->engine());
    if (server_->position() != stream_.size()) {
      pass->Fail("session ingested " + std::to_string(server_->position()) +
                 " of " + std::to_string(stream_.size()) + " elements");
    }
    pass->values["server.result_mb"] =
        static_cast<double>(capture_.bytes() - bytes_before) * 1e-6;
    pass->values["server.subscribe_ms_p50"] = Median(subscribe_ms);
    pass->values["server.subscribe_ms_p90"] = Percentile(subscribe_ms, 0.9);
    pass->values["server.unsubscribe_ms_p50"] = Median(unsubscribe_ms);
    pass->values["core.checkpoint_stall_ms_p50"] = Median(checkpoint_ms);
    pass->values["core.checkpoint_wait_ms_p50"] = Median(wait_ms);
    pass->values["core.checkpoint_mb"] =
        checkpoints == 0
            ? 0
            : static_cast<double>(server_->engine().checkpoint_bytes()) *
                  1e-6 / static_cast<double>(checkpoints);
    if (sharded_ != nullptr && pass->traced) {
      pass->values["runtime.sharded.run_s"] =
          SidePass(sharded_.get(), pass).clock.Seconds();
    }
  }

  /// Checks each subscription at instants at least one window after its
  /// attach and before its detach: only there does its result depend on
  /// nothing but the stream it saw.
  void Gate(Pass* pass) override {
    if (gate_ == nullptr) {
      gate_ = std::make_unique<OracleGate>(stream_, kWindow);
    }
    for (const Subscription& sub : subs_) {
      const std::size_t end =
          sub.detach_slide == 0 ? slides_.size() : sub.detach_slide;
      const Timestamp from = slides_[std::min(sub.attach_slide,
                                              slides_.size() - 1)]
                                 .start +
                             kWindow.size + kWindow.slide;
      std::vector<Timestamp> instants;
      for (std::size_t s = sub.attach_slide; s < end; ++s) {
        if (slides_[s].start >= from) instants.push_back(slides_[s].start);
      }
      if (instants.empty()) continue;
      auto query = sgq::MakeQuery(texts_[sub.query], kWindow, &vocab_);
      if (!query.ok()) {
        pass->Fail("query: " + query.status().ToString());
        continue;
      }
      for (Timestamp t : {instants[instants.size() / 2], instants.back()}) {
        pass->GateCheck(gate_.get(), sub.query, *query, vocab_, sub.results,
                        t, "subscription " + std::to_string(sub.id));
      }
    }
    for (const Subscription& sub : subs_) {
      pass->result_counts.push_back(sub.count);
    }
  }

  void TearDown() override {
    server_.reset();
    subs_.clear();
    index_.clear();
    live_.clear();
  }

  void Cleanup() override {
    std::remove(checkpoint_path_.c_str());
    if (sharded_ != nullptr) sharded_->Cleanup();
  }

 private:
  static inline const sgq::WindowSpec kWindow{4 * sgq::kDay, sgq::kHour};
  static constexpr std::size_t kLive = 5;
  static constexpr std::size_t kRotateEvery = 25;
  static constexpr std::size_t kCheckpointEvery = 250;

  struct Subscription {
    QueryId id = -1;
    std::size_t query = 0;         ///< index into texts_
    std::size_t attach_slide = 0;  ///< first slide ingested while live
    std::size_t detach_slide = 0;  ///< 0 while still live at pass end
    SgtStream results;
    std::size_t count = 0;
  };

  /// Sends one protocol line through HandleLine under a span.
  void Command(const std::string& line, const char* layer, Pass* pass) {
    std::ostream out(&capture_);
    bool quit = false;
    Status st = Status::OK();
    {
      ScopedSpan span(tracer_, layer);
      st = server_->HandleLine(line, stream_, out, &quit);
    }
    if (pass != nullptr) pass->Check(st, layer);
  }

  /// SUBSCRIBEs the next query of the rotation. The reply line, which
  /// carries the subscription id, stays in the capture for Consume.
  Status Subscribe(std::size_t slide, Pass* pass) {
    const std::size_t reply = capture_.text().size();
    Command("SUBSCRIBE " + texts_[next_query_], "server.subscribe", pass);
    const char* text = capture_.text().c_str() + reply;
    QueryId id = -1;
    if (std::sscanf(text, "SUBSCRIBED %d", &id) != 1) {
      const Status st =
          Status::Internal(std::string("SUBSCRIBE refused: ") + text);
      if (pass != nullptr) pass->Fail(st.message());
      return st;
    }
    Subscription sub;
    sub.id = id;
    sub.query = next_query_;
    sub.attach_slide = slide;
    index_[id] = subs_.size();
    live_.push_back(subs_.size());
    subs_.push_back(std::move(sub));
    next_query_ = (next_query_ + 1) % texts_.size();
    return Status::OK();
  }

  /// Off the clock: parses the responses of slide `s` into the
  /// subscriptions' result streams and checks the control replies.
  void Consume(std::size_t s, Pass* pass) {
    std::string_view text = capture_.text();
    const std::size_t expect = slides_[s].end - slides_[s].begin;
    bool ingested = false;
    while (!text.empty()) {
      const std::size_t eol = text.find('\n');
      const std::string_view line = text.substr(0, eol);
      text.remove_prefix(eol == std::string_view::npos ? text.size()
                                                       : eol + 1);
      if (line.empty()) continue;
      if (line[0] == 's') {
        const std::size_t tab = line.find('\t');
        Sgt r;
        QueryId id = -1;
        auto it = index_.end();
        if (tab != std::string_view::npos &&
            std::sscanf(std::string(line.substr(1, tab - 1)).c_str(), "%d",
                        &id) == 1) {
          it = index_.find(id);
        }
        if (it == index_.end() ||
            !ParseResultText(line.substr(tab + 1), vocab_, &r)) {
          pass->Fail("unparsable result line: " + std::string(line));
          continue;
        }
        Subscription& sub = subs_[it->second];
        ++sub.count;
        ++pass->results;
        sub.results.push_back(r);
      } else if (line.rfind("INGESTED ", 0) == 0) {
        ingested = std::stoul(std::string(line.substr(9))) == expect;
      } else if (line.rfind("SUBSCRIBED ", 0) == 0) {
        // The rotation's SUBSCRIBE already recorded its id.
      } else if (line.rfind("UNSUBSCRIBED ", 0) != 0) {
        pass->Fail("session: " + std::string(line));
      }
    }
    if (!ingested) {
      pass->Fail("slide " + std::to_string(s) + " not ingested in full");
    }
    capture_.text().clear();
  }

  const std::size_t workers_;
  sgq::Vocabulary vocab_;
  sgq::InputStream stream_;
  std::vector<std::string> texts_;
  std::vector<SlideRange> slides_;
  std::string checkpoint_path_;
  /// The two-worker replay traced runs also time (null otherwise).
  std::unique_ptr<SnbSessions> sharded_;
  std::unique_ptr<OracleGate> gate_;  ///< built at the first Gate

  Tracer* tracer_ = nullptr;
  CaptureBuf capture_;
  std::unique_ptr<sgq::SessionServer> server_;
  std::vector<Subscription> subs_;
  std::map<QueryId, std::size_t> index_;
  std::deque<std::size_t> live_;  ///< indices into subs_, oldest first
  std::size_t next_query_ = 0;
};

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "so-deletes") return std::make_unique<SoDeletes>();
  if (name == "zipf-fanout") return std::make_unique<ZipfFanout>(false);
  if (name == "snb-sessions") return std::make_unique<SnbSessions>(1);
  return nullptr;
}

/// Per-layer metrics: span self times (per pass) for the layers the harness
/// calls into, and counters read after the run. Every workload reports
/// every metric; a layer a workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"core.push_ins_s", "s"},
    {"core.push_del_s", "s"},
    {"core.advance_s", "s"},
    {"core.sink_s", "s"},
    {"model.parse_s", "s"},
    {"query.parse_s", "s"},
    {"core.engine_new_s", "s"},
    {"core.compile_s", "s"},
    {"core.finalize_s", "s"},
    {"model.file_open_s", "s"},
    {"runtime.ops_per_edge", "ratio"},
    {"runtime.index_skipped_per_edge", "ratio"},
    {"core.operators", "count"},
    {"core.cross_shared_subtrees", "count"},
    {"core.results_per_edge", "ratio"},
    {"core.state_entries_peak", "count"},
    {"runtime.ingest.run_s", "s"},
    {"model.parse_busy_s", "s"},
    {"model.readahead_stall_s", "s"},
    {"runtime.ingest.ingest_stall_s", "s"},
    {"runtime.ingest.exec_stall_s", "s"},
    {"runtime.ingest.merge_stall_s", "s"},
    {"runtime.ingest.parser_stall_s", "s"},
    {"runtime.sharded.run_s", "s"},
    {"server.init_s", "s"},
    {"server.ingest_s", "s"},
    {"server.result_mb", "MB"},
    {"server.subscribe_ms_p50", "ms"},
    {"server.subscribe_ms_p90", "ms"},
    {"server.unsubscribe_ms_p50", "ms"},
    {"core.checkpoint_stall_ms_p50", "ms"},
    {"core.checkpoint_wait_ms_p50", "ms"},
    {"core.checkpoint_mb", "MB"},
    {"bench.slide_self_s", "s"},
    {"bench.slide_samples", "count"},
    {"bench.state_samples", "count"},
    {"trace.unaccounted", "share"},
    {"trace.overhead", "ratio"},
};

double MedianOf(const std::vector<Pass>& passes, bool traced,
                double (*get)(const Pass&)) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    if (p.traced == traced && !p.warmup) v.push_back(get(p));
  }
  return Median(std::move(v));
}

double EdgesPerSecond(const Pass& p) {
  return static_cast<double>(p.elements) / std::max(p.clock.Seconds(), 1e-9);
}

/// Per-pass slide statistics from the harness-visible samples.
void SummarizeSlides(Pass* p) {
  p->slide_n = p->slide_ms.size();
  p->slide_p50_ms = Median(p->slide_ms);
  p->slide_tail_ms = TailPercentile(p->slide_ms, kTailCap).value;
}

/// Traced pass: per-layer self times, and the check that they plus the
/// harness's own time inside slides add up to the pass's wall time.
void AccountLayers(const Tracer& tracer, std::size_t pass_mark,
                   std::size_t replay_mark, Pass* p) {
  for (const auto& [name, self] : tracer.SelfSeconds(pass_mark)) {
    if (name.rfind("bench.", 0) != 0) p->values[name + "_s"] = self;
  }
  double accounted = 0;
  for (const auto& [name, self] : tracer.SelfSeconds(replay_mark)) {
    if (name.rfind("bench.", 0) != 0) accounted += self;
    if (name == "bench.slide") {
      accounted += self;
      p->values["bench.slide_self_s"] = self;
    }
  }
  const double wall = p->clock.Seconds();
  const double unaccounted = (wall - accounted) / std::max(wall, 1e-9);
  p->values["trace.unaccounted"] = unaccounted;
  ++p->attempted;
  if (unaccounted > kLayerSumTolerance || unaccounted < -kLayerSumTolerance) {
    p->Fail("layer self times cover " + std::to_string(accounted) +
            " s of " + std::to_string(wall) + " s wall time");
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "so-deletes", "zipf-fanout", "snb-sessions"};
  return names;
}

sgq::Result<RunReport> RunWorkload(const RunOptions& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  SGQ_RETURN_NOT_OK(workload->Generate(options));

  RunReport report;
  Tracer off(false);
  Tracer tracer(options.trace);
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const Status st = workload->SetUp(&off);
    setup_s.push_back(SecondsSince(t0));
    workload->TearDown();
    ++report.attempted;
    if (!st.ok()) {
      ++report.failed;
      if (report.errors.size() < 8) report.errors.push_back(st.ToString());
    }
  }

  std::vector<Pass> passes;
  const auto start = Clock::now();
  double longest = 0;
  for (;;) {
    std::size_t untraced = 0;
    std::size_t traced = 0;
    for (const Pass& p : passes) {
      if (!p.warmup) ++(p.traced ? traced : untraced);
    }
    const bool more =
        passes.empty() || untraced < kMinPasses ||
        (options.trace && traced < kMinPasses) ||
        SecondsSince(start) + longest <= options.seconds;
    if (!more || passes.size() >= 200) break;

    const auto pass_start = Clock::now();
    Pass pass;
    pass.warmup = passes.empty();
    pass.traced = options.trace && !pass.warmup && traced < untraced;
    pass.tracer = pass.traced ? &tracer : &off;
    pass.errors = &report.errors;
    const std::size_t pass_mark = tracer.Mark();
    Status st = Status::OK();
    double gate_s = 0;
    {
      ScopedSpan span(pass.tracer, "bench.setup");
      const auto t0 = Clock::now();
      st = workload->SetUp(pass.tracer);
      pass.setup_s = SecondsSince(t0);
    }
    pass.Check(st, "set-up");
    if (st.ok()) {
      const std::size_t replay_mark = tracer.Mark();
      {
        ScopedSpan span(pass.tracer, "bench.replay");
        workload->Replay(&pass);
      }
      const auto gate_start = Clock::now();
      {
        ScopedSpan span(pass.tracer, "bench.gate");
        workload->Gate(&pass);
      }
      gate_s = SecondsSince(gate_start);
      SummarizeSlides(&pass);
      pass.values["core.results_per_edge"] =
          static_cast<double>(pass.results) /
          std::max<double>(1, static_cast<double>(pass.elements));
      pass.values["core.state_entries_peak"] = pass.state_entries_peak;
      pass.values["bench.slide_samples"] = static_cast<double>(pass.slide_n);
      pass.values["bench.state_samples"] =
          static_cast<double>(pass.state_samples);
      if (pass.traced) AccountLayers(tracer, pass_mark, replay_mark, &pass);
    }
    workload->TearDown();
    std::fprintf(stderr,
                 "pass %zu%s%s: setup %.4f s, %zu elements in %.3f s on the "
                 "clock, %zu slides (p50 %.3f ms, tail %.3f ms), gate %.3f s, "
                 "pass %.3f s\n",
                 passes.size(), pass.warmup ? " (warm-up)" : "",
                 pass.traced ? " (traced)" : "", pass.setup_s,
                 pass.elements, pass.clock.Seconds(), pass.slide_n,
                 pass.slide_p50_ms, pass.slide_tail_ms, gate_s,
                 SecondsSince(pass_start));
    if (!pass.warmup) setup_s.push_back(pass.setup_s);
    report.attempted += pass.attempted;
    report.failed += pass.failed;
    report.gate_checks += pass.gate_checks;
    report.gate_pairs += pass.gate_pairs;
    if (passes.empty()) report.result_counts = pass.result_counts;
    longest = std::max(longest, SecondsSince(pass_start));
    passes.push_back(std::move(pass));
    if (!st.ok()) break;
  }
  workload->Cleanup();
  report.passes = passes.size();

  if (options.trace) {
    const double traced_eps = MedianOf(passes, true, EdgesPerSecond);
    const double untraced_eps = MedianOf(passes, false, EdgesPerSecond);
    for (const LayerMetric& m : kLayerMetrics) {
      std::vector<double> v;
      for (const Pass& p : passes) {
        if (!p.traced || p.warmup) continue;
        auto it = p.values.find(m.name);
        v.push_back(it == p.values.end() ? 0 : it->second);
      }
      double value = Median(std::move(v));
      if (std::string_view(m.name) == "trace.overhead") {
        value = traced_eps / std::max(untraced_eps, 1e-9);
      }
      report.metrics.push_back({m.name, value, m.unit});
    }
    const std::string path = options.work_dir + "/trace-" +
                             options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    const Status st = tracer.Write(path);
    ++report.attempted;
    if (!st.ok()) {
      ++report.failed;
      report.errors.push_back(st.ToString());
    }
  } else {
    report.metrics = {
        {"edges_per_s", MedianOf(passes, false, EdgesPerSecond), "edges/s"},
        {"slide_ms_p50",
         MedianOf(passes, false, [](const Pass& p) { return p.slide_p50_ms; }),
         "ms"},
        {"slide_ms_p99",
         MedianOf(passes, false,
                  [](const Pass& p) { return p.slide_tail_ms; }),
         "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"state_mb_peak",
         MedianOf(passes, false,
                  [](const Pass& p) { return p.state_bytes_peak * 1e-6; }),
         "MB"},
    };
  }
  report.correct = report.failed == 0 && report.gate_checks > 0;
  return report;
}

}  // namespace perfbench
