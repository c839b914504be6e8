// cfx_e2ebench — the end-to-end benchmark's measuring process.
//
//   cfx_e2ebench --workload serve|serve_bulk|table4|manifold --seed N
//                --seconds S --trace 0|1 --work-dir DIR [--setups K]
//   cfx_e2ebench --self-test
//
// Prints one JSON record as the last line of stdout: operation counts,
// output-check failures, end-to-end metrics, per-layer metrics (--trace 1)
// and in-process provenance. e2ebench/run.py builds this binary, runs it
// and reshapes the record; see e2ebench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "e2ebench/src/harness.h"
#include "e2ebench/src/workloads.h"
#include "src/common/config.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "cfx_e2ebench: %s\n"
               "usage: cfx_e2ebench --workload serve|serve_bulk|table4|manifold"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--setups K]\n"
               "       cfx_e2ebench --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "cfx_e2ebench: built as '%s'; only a Release build is "
                 "measured\n",
                 E2E_BUILD_TYPE);
    return 2;
  }
  cfx::SetLogLevel(cfx::LogLevel::kWarning);

  e2e::RunOptions options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!cfx::ParseUint64(value, &number)) return Usage("bad --seed");
      options.seed = number;
    } else if (flag == "--seconds") {
      if (!cfx::ParseUint64(value, &number) || number == 0) {
        return Usage("bad --seconds");
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--setups") {
      if (!cfx::ParseUint64(value, &number) || number == 0) {
        return Usage("bad --setups");
      }
      options.setups = static_cast<size_t>(number);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  // Every workload is measured with a single-lane kernel pool (see
  // README.md); the serving layers still run their own threads.
  if (cfx::ThreadPool::GlobalThreads() != 1) {
    return Usage("run with CFX_THREADS=1");
  }
  if (self_test) return e2e::RunSelfTest();

  void (*run)(const e2e::RunOptions&, e2e::Report*) = nullptr;
  if (options.workload == "serve") run = e2e::RunServe;
  if (options.workload == "serve_bulk") run = e2e::RunServeBulk;
  if (options.workload == "table4") run = e2e::RunTableFour;
  if (options.workload == "manifold") run = e2e::RunManifold;
  if (run == nullptr) return Usage("unknown --workload");
  if (options.work_dir.empty()) return Usage("missing --work-dir");
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());

  e2e::Report report;
  run(options, &report);
  std::printf("%s\n",
              report.ToJson(options.workload, options.seed, options.trace)
                  .c_str());
  return 0;
}
