#include "trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::Open(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, Ns(Clock::now()), 0, 0, 1});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::Close(int span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.dur_ns = Ns(Clock::now()) - s.start_ns;
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_ns += s.dur_ns;
  }
  open_.pop_back();
}

void Tracer::AddAggregate(const char* name, Clock::time_point first_start,
                          Clock::duration total, std::uint64_t count) {
  const int parent = open_.empty() ? -1 : open_.back();
  const std::int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(total).count();
  spans_.push_back({name, parent, Ns(first_start), dur, 0, count});
  if (parent >= 0) spans_[static_cast<std::size_t>(parent)].child_ns += dur;
}

std::map<std::string, double> Tracer::SelfSeconds(std::size_t from) const {
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        static_cast<double>(spans_[i].dur_ns - spans_[i].child_ns) * 1e-9;
  }
  return out;
}

sgq::Status Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return sgq::Status::Internal("cannot write " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%llu,"
                 "\"self_ns\":%lld}\n",
                 i, s.name, s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.start_ns + s.dur_ns),
                 static_cast<unsigned long long>(s.count),
                 static_cast<long long>(s.dur_ns - s.child_ns));
  }
  return std::fclose(f) == 0 ? sgq::Status::OK()
                             : sgq::Status::Internal("cannot close " + path);
}

}  // namespace perfbench
