// sgq end-to-end benchmark harness.
//
//   sgq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>]
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1
// when any operation failed or a result disagreed with the oracle, 2 on
// bad arguments or a failed set-up. perfbench/run.py builds and runs it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sgq_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "workloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty()) return Usage();

  auto report = perfbench::RunWorkload(options);
  if (!report.ok()) {
    std::fprintf(stderr, "sgq_perfbench: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }

  const unsigned cpus = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "%s seed=%llu trace=%d cpus=%u passes=%zu gate_checks=%zu "
               "gate_pairs=%zu attempted=%llu failed=%llu "
               "error_rate=%.6f\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0, cpus, report->passes,
               report->gate_checks, report->gate_pairs,
               static_cast<unsigned long long>(report->attempted),
               static_cast<unsigned long long>(report->failed),
               static_cast<double>(report->failed) /
                   static_cast<double>(report->attempted > 0
                                           ? report->attempted
                                           : 1));
  for (const std::string& e : report->errors) {
    std::fprintf(stderr, "  FAILED %s\n", e.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : report->metrics) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report->correct ? "true" : "false",
      static_cast<unsigned long long>(report->attempted),
      static_cast<unsigned long long>(report->failed), metrics.c_str());
  std::fflush(stdout);
  return report->correct ? 0 : 1;
}
