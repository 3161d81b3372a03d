// Measurement helpers of the benchmark harness: order statistics, slide
// bucketing of a pre-generated stream, and the pausable wall clock that
// keeps the harness's own bookkeeping out of the measured intervals.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "model/sgt.h"

namespace perfbench {

/// \brief Samples a tail percentile needs beyond it before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// \brief A tail percentile and the sample it was read from.
struct Tail {
  double q = 0;        ///< percentile actually reported, in [0, 1]
  double value = 0;    ///< nearest-rank value at q
  std::size_t n = 0;   ///< sample count
  /// Samples strictly beyond the reported rank (>= kTailSamples when the
  /// sample is large enough).
  std::size_t beyond = 0;
};

/// \brief The highest percentile, capped at `cap`, that still has at least
/// kTailSamples samples beyond its nearest rank, with its value and the
/// sample count. Fewer than kTailSamples + 1 samples support no tail: the
/// result then reports the median with q = 0.5 and beyond < kTailSamples.
Tail TailPercentile(std::vector<double> samples, double cap);

/// \brief Nearest-rank percentile of `samples`, q in [0, 1]; 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// \brief Median (nearest-rank p50); 0 when empty.
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// \brief The elements of one window slide: indices [begin, end) into the
/// stream, all with timestamps in [start, start + slide).
struct SlideRange {
  sgq::Timestamp start = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// \brief Splits a timestamp-ordered stream into its non-empty slides of
/// length `slide` (slide k covers [k * slide, (k + 1) * slide)).
std::vector<SlideRange> BucketBySlide(const sgq::InputStream& stream,
                                      sgq::Timestamp slide);

/// \brief Wall clock that accumulates only while running. The harness
/// pauses it around everything that is not a call into the engine:
/// result retention, state sampling and the oracle gate.
class PausableClock {
 public:
  using Clock = std::chrono::steady_clock;

  void Resume() { started_ = Clock::now(); }
  void Pause() { total_ += Clock::now() - started_; }

  /// \brief Accumulated running time, in seconds.
  double Seconds() const {
    return std::chrono::duration<double>(total_).count();
  }

 private:
  Clock::time_point started_{};
  Clock::duration total_{0};
};

/// \brief Seconds since `start` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
