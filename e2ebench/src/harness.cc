#include "e2ebench/src/harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "src/common/thread_pool.h"
#include "src/tensor/simd.h"

namespace e2e {
namespace {

const Clock::time_point kProcessStart = Clock::now();

/// "0-3" style list of the CPUs this process may run on.
std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  int run_start = -1;
  int prev = -2;
  auto flush = [&] {
    if (run_start < 0) return;
    if (!out.empty()) out += ",";
    out += std::to_string(run_start);
    if (prev != run_start) out += "-" + std::to_string(prev);
  };
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (cpu != prev + 1) {
      flush();
      run_start = cpu;
    }
    prev = cpu;
  }
  flush();
  return out;
}

/// A double with full precision for JSON.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `s` as a JSON string literal.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

void MustOk(const cfx::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "set-up failed: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double SecondsSince(Clock::time_point t0) { return Seconds(t0, Clock::now()); }

Clock::time_point ProcessStart() { return kProcessStart; }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double h = static_cast<double>(values.size() - 1) * q;
  const size_t lo = static_cast<size_t>(std::floor(h));
  if (lo + 1 >= values.size()) return values.back();
  const double frac = h - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

size_t SamplesBeyond(size_t n, unsigned pct) {
  if (pct >= 100) return 0;
  return n * (100 - pct) / 100;
}

size_t RoundsFor(double seconds, double nominal_round_seconds) {
  if (!(seconds > 0.0) || !(nominal_round_seconds > 0.0)) return 1;
  const double rounds = std::round(seconds / nominal_round_seconds);
  return rounds < 1.0 ? 1 : static_cast<size_t>(rounds);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  size_t size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Report::AddEndToEnd(const std::string& name, double value,
                         const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::AddLayer(const std::string& name, double value,
                      const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

void Report::FailAll(const std::string& heading,
                     const std::vector<std::string>& problems) {
  constexpr size_t kKeep = 5;
  for (size_t i = 0; i < problems.size() && i < kKeep; ++i) {
    Fail(heading + ": " + problems[i]);
  }
  if (problems.size() > kKeep) {
    Fail(heading + ": ... and " + std::to_string(problems.size() - kKeep) +
         " more");
  }
}

void Report::CountOperations(size_t attempted, size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::ToJson(const std::string& workload, uint64_t seed,
                           bool trace) const {
  auto metrics_json = [](const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(metrics[i].name) + ": {\"value\": " +
             JsonNumber(metrics[i].value) +
             ", \"unit\": " + JsonString(metrics[i].unit) + "}";
    }
    return out + "}";
  };
  std::string failures = "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) failures += ", ";
    failures += JsonString(failures_[i]);
  }
  failures += "]";
  const char* threads_env = std::getenv("CFX_THREADS");
  std::string provenance =
      "{\"build_type\": " + JsonString(E2E_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(E2E_COMPILER) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_affinity\": " + JsonString(AffinityList()) +
      ", \"cfx_threads_env\": " +
      JsonString(threads_env != nullptr ? threads_env : "unset") +
      ", \"cfx_pool_threads\": " +
      std::to_string(cfx::ThreadPool::GlobalThreads()) +
      ", \"simd_level\": " +
      JsonString(cfx::simd::LevelName(cfx::simd::Active())) + "}";
  return "{\"workload\": " + JsonString(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"trace\": " + (trace ? "true" : "false") +
         ", \"correct\": " + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"failures\": " + failures +
         ", \"end_to_end\": " + metrics_json(end_to_end_) +
         ", \"per_layer\": " + metrics_json(layers_) +
         ", \"provenance\": " + provenance + "}";
}

RoundTimer::RoundTimer()
    : start_(Clock::now()), cpu_start_(ProcessCpuSeconds()) {}

void RoundTimer::Stop(PhaseLog* log) const {
  log->round_seconds.push_back(SecondsSince(start_));
  log->round_cpu_seconds.push_back(ProcessCpuSeconds() - cpu_start_);
}

void AddPhaseMetrics(const PhaseLog& log, bool trace, Report* report) {
  report->AddEndToEnd("setup_s", Median(log.setup_seconds), "s");
  report->AddEndToEnd("wall_s", Median(log.round_seconds), "s");
  report->AddEndToEnd("latency_p50_ms", 1e3 * Median(log.op_seconds), "ms");
  report->AddEndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  if (trace) {
    report->AddLayer("proc.cpu_s", Median(log.round_cpu_seconds), "s");
    report->AddLayer("proc.rss_growth_mb",
                     log.rss_after_mb - log.rss_before_mb, "MB");
  }
}

}  // namespace e2e
