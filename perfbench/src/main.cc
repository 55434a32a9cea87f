// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload search|churn --seed N --seconds S
//             --trace 0|1 [--small] [--out DIR]
//   perfbench --selftest
//
// Builds the paper-scale dataspace from --seed, runs one workload in a
// closed loop from a single client thread for --seconds, checks the
// program's outputs, and prints one JSON line: {"correct", "attempted",
// "failed", "metrics"}. --trace 1 records spans around the calls into each
// module, writes them to DIR/trace-<workload>-<seed>.jsonl, prints each
// module's self time on stderr and reports the per-layer metrics instead
// of the end-to-end ones.

#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload search|churn "
               "--seed N --seconds S --trace 0|1 [--small] [--out DIR]\n"
               "       perfbench --selftest\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.process_start = perfbench::Clock::now();
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    bool has_value = i + 1 < argc;
    if (flag == "--selftest") {
      int missed = perfbench::RunSelfTest();
      std::printf("selftest: %s\n", missed == 0 ? "ok" : "FAILED");
      return missed == 0 ? 0 : 1;
    } else if (flag == "--small") {
      args.small = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--out" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  if (args.workload == "search") {
    perfbench::RunSearch(args, &tracer, &report);
  } else if (args.workload == "churn") {
    perfbench::RunChurn(args, &tracer, &report);
  } else {
    return Usage();
  }

  if (args.trace) {
    mkdir(args.out_dir.c_str(), 0755);
    std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                       std::to_string(args.seed) + ".jsonl";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: %zu spans in %s\n", tracer.size(),
                   path.c_str());
    }
    for (const auto& [module, ms] : tracer.SelfMsByModule()) {
      std::fprintf(stderr, "perfbench: self time %-9s %12.1f ms\n",
                   module.c_str(), ms);
    }
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", error.c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
