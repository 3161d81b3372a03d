#include "bench_util.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 0-based nearest rank of percentile q over n sorted samples.
std::size_t NearestRank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(n))) - 1;
}

/// The highest percentile, capped at `cap`, that leaves at least
/// kTailSamples of `n` samples beyond its nearest rank; 0.5 when `n` is
/// too small to leave that many.
double TailQuantile(std::size_t n, double cap) {
  if (n <= kTailSamples) return 0.5;
  // Rank r (1-based) leaves n - r samples beyond it; the highest
  // percentile with kTailSamples beyond is (n - kTailSamples) / n.
  const double supported = static_cast<double>(n - kTailSamples) /
                           static_cast<double>(n);
  return std::min(cap, supported);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t k = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

Tail TailPercentile(std::vector<double> samples, double cap) {
  Tail tail;
  tail.n = samples.size();
  if (tail.n == 0) return tail;
  tail.q = TailQuantile(tail.n, cap);
  const std::size_t k = NearestRank(tail.n, tail.q);
  tail.beyond = tail.n - (k + 1);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  tail.value = samples[k];
  return tail;
}

std::vector<SlideRange> BucketBySlide(const sgq::InputStream& stream,
                                      sgq::Timestamp slide) {
  std::vector<SlideRange> out;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const sgq::Timestamp start = (stream[i].t / slide) * slide;
    if (out.empty() || out.back().start != start) {
      out.push_back({start, i, i});
    }
    out.back().end = i + 1;
  }
  return out;
}

}  // namespace perfbench
