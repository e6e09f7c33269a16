// perfbench_bin: runs one benchmark workload in this process and prints its
// record as one JSON line on stdout. perfbench/run.py builds this binary,
// runs it once per workload and reduces the record to the published form.
//
//   perfbench_bin --workload <apb_cube|live_ingest|scatter_3shard>
//                 --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.workdir.empty() ||
      args.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.workdir.c_str());
    return 2;
  }
  if (args.trace) perfbench::Spans::Get().Enable();

  perfbench::Report report;
  int rc = 0;
  if (args.workload == "apb_cube") {
    rc = perfbench::RunApbCube(args, &report);
  } else if (args.workload == "live_ingest") {
    rc = perfbench::RunLiveIngest(args, &report);
  } else if (args.workload == "scatter_3shard") {
    rc = perfbench::RunScatter3Shard(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::RemoveTree(args.workdir);
  if (rc != 0) return rc;
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
