// perfbench: runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload <cold_session|served_ingest> --seed N
//             --seconds S --trace <0|1> --work-dir DIR
//
// The last stdout line is `PERFBENCH_RESULT {...}` with every metric the
// workload measured; perfbench/run.py turns it into the result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage();
  }

  perfbench::Report report;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "cold_session") {
      perfbench::RunColdSession(args, &report);
    } else if (args.workload == "served_ingest") {
      perfbench::RunServedIngest(args, &report);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  report.Print(args.workload);
  return report.correct ? 0 : 1;
}
