// The perfbench workloads. Each fills a Report with every metric it
// measures; perfbench/run.py picks the names BENCHMARK.json declares.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

/// Command-line arguments common to every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout; workloads put their stores here.
  std::string work_dir;
};

/// Fig 6 workload 1 + Fig 11 on MiniResNet: indexes build on first touch,
/// IQA on with a capacity below the session's working set.
void RunColdSession(const Args& args, Report* report);

/// TinyMlp demo system behind the HTTP server with ingest beside reads.
void RunServedIngest(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
