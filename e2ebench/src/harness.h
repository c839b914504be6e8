// Shared plumbing of the end-to-end benchmark's measuring process: clocks,
// the percentile arithmetic every reported timing goes through, process
// counters (CPU time, resident set), and the result record a run prints.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double SecondsSince(Clock::time_point t0);

/// Seconds between two time points.
double Seconds(Clock::time_point t0, Clock::time_point t1);

/// When the process started running static initialisers — the origin of
/// the first set-up's clock.
Clock::time_point ProcessStart();

/// Ends the process with a message when a set-up step fails: a run that
/// cannot set up prints no result.
void MustOk(const cfx::Status& status, const char* what);

/// Number of set-ups a run performs by default; setup_s is their median.
constexpr size_t kSetupRepeats = 3;

/// The q-quantile (q in [0, 1]) of `values` with linear interpolation
/// between order statistics (Hyndman & Fan type 7, numpy's default).
/// Empty input yields 0.
double Percentile(std::vector<double> values, double q);

/// Percentile(values, 0.5).
double Median(std::vector<double> values);

/// How many of `n` samples lie beyond the `pct`-th percentile:
/// floor(n * (100 - pct) / 100), in integers so 99 of 1000 is exactly 10.
size_t SamplesBeyond(size_t n, unsigned pct);

/// A percentile is reported only with at least this many samples beyond
/// it; below that it describes a handful of outliers, not a tail.
constexpr size_t kMinTailSamples = 10;

/// Number of rounds of a workload's fixed operation list in a run of
/// `seconds`, given the list's nominal duration on the reference host.
/// Always at least one. The count depends on `seconds` only — never on
/// measured speed — so two builds of the program do identical work.
size_t RoundsFor(double seconds, double nominal_round_seconds);

/// CPU time (user + system) of the whole process so far, in seconds.
double ProcessCpuSeconds();

/// Peak resident set of the process so far, in MiB.
double PeakRssMb();

/// Current resident set of the process, in MiB.
double CurrentRssMb();

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: operation counts, output-check failures,
/// end-to-end metrics, per-layer metrics (traced runs only) and
/// provenance facts known inside the process.
class Report {
 public:
  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit);
  void AddLayer(const std::string& name, double value,
                const std::string& unit);
  /// Records a failed output check. The run still finishes and reports
  /// correct=false.
  void Fail(const std::string& what);
  /// Records several check messages under one heading, keeping the first
  /// few so one systematic fault cannot flood the output.
  void FailAll(const std::string& heading,
               const std::vector<std::string>& problems);
  void CountOperations(size_t attempted, size_t failed);

  bool correct() const { return failures_.empty(); }

  /// The record as one JSON object on one line.
  std::string ToJson(const std::string& workload, uint64_t seed,
                     bool trace) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::string> failures_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Latencies and phase totals gathered by a workload's timed phase, turned
/// into the four end-to-end metrics by AddPhaseMetrics.
struct PhaseLog {
  std::vector<double> setup_seconds;     ///< One per set-up.
  std::vector<double> round_seconds;     ///< Wall time of each round.
  std::vector<double> round_cpu_seconds; ///< Process CPU time per round.
  std::vector<double> op_seconds;        ///< Latency of every operation.
  double rss_before_mb = 0.0;  ///< Resident set when the timed phase began.
  double rss_after_mb = 0.0;   ///< Resident set when it ended.
};

/// Brackets one round: wall clock and process CPU time.
class RoundTimer {
 public:
  RoundTimer();
  /// Appends this round's wall and CPU seconds to `log`.
  void Stop(PhaseLog* log) const;

 private:
  Clock::time_point start_;
  double cpu_start_ = 0.0;
};

/// Adds setup_s, wall_s, latency_p50_ms and peak_rss_mb from `log`, plus the
/// whole-process layer metrics (proc.cpu_s, proc.rss_growth_mb) when
/// `trace` is set.
void AddPhaseMetrics(const PhaseLog& log, bool trace, Report* report);

/// Options of one run, parsed from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Set-ups before the timed phase (--setups; run.py's layer probes use 1).
  size_t setups = kSetupRepeats;
  /// Directory for files a workload writes (model bundles, CSV staging).
  std::string work_dir;
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
