// Spans recorded from outside the engine: the traced run wraps each call
// the harness makes into a layer's public functions in a span (name, start,
// end, parent), under a per-slide parent span. Per-element calls are
// aggregated into one record per slide, so tracing a million Push calls
// costs two clock reads each and no allocation. Spans stay in memory and
// are written out once, when the run ends.
//
// A span's self time is its duration minus the durations of its children.
// The harness only ever nests layer calls under its own spans (bench.*),
// and layer calls never nest, so children never overlap.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// \brief Opens a span named `name` (a string literal) under the
  /// innermost open span; returns its handle for Close.
  int Open(const char* name);
  void Close(int span);

  /// \brief Records `count` calls to `name` that together took `total`,
  /// the first starting at `first_start`, as one span under the innermost
  /// open span.
  void AddAggregate(const char* name, Clock::time_point first_start,
                    Clock::duration total, std::uint64_t count);

  /// \brief Self seconds per span name, over every span recorded since
  /// `from` (a Mark()).
  std::map<std::string, double> SelfSeconds(std::size_t from = 0) const;

  /// \brief Recorded span count (a position for SelfSeconds).
  std::size_t Mark() const { return spans_.size(); }

  /// \brief Writes every span as one JSON object per line.
  sgq::Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t child_ns;
    std::uint64_t count;
  };

  std::int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief Span over a scope; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->Close(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// \brief Per-slide aggregation of one per-element call: Add() each call's
/// start and end, Flush() once at the end of the slide.
class SpanAggregate {
 public:
  SpanAggregate(Tracer* tracer, const char* name)
      : tracer_(tracer), name_(name) {}

  void Add(Tracer::Clock::time_point start, Tracer::Clock::time_point end) {
    if (count_ == 0) first_ = start;
    total_ += end - start;
    ++count_;
  }

  void Flush() {
    if (count_ == 0) return;
    tracer_->AddAggregate(name_, first_, total_, count_);
    total_ = Tracer::Clock::duration{0};
    count_ = 0;
  }

 private:
  Tracer* tracer_;
  const char* name_;
  Tracer::Clock::time_point first_{};
  Tracer::Clock::duration total_{0};
  std::uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
