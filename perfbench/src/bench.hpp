// Shared plumbing of the repository benchmark: command-line arguments, the
// report printed as the last line of standard output, timing and
// percentile helpers, and the /proc readers the layer metrics come from.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for the traced run
};

/// What one run prints: the answer-check verdict, the operation counts and
/// the metrics of the requested kind (end-to-end untraced, per-layer
/// traced).  Failed answer checks are collected, printed to stderr and
/// turn `correct` false; main then exits non-zero.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  // Traced runs: what run.py needs to derive the span metrics from the
  // Chrome trace.  Round and stage-A spans count only inside window spans
  // (the measured solves); `trace_units` is the number of engine solves
  // they belong to, the divisor of the per-solve figures.
  std::uint64_t trace_units = 0;
  std::string window_span = "bench.solve";
  std::string round_span;
  std::string stage_a_span;

  void add(std::string name, double value, std::string unit);
  /// Record a failed answer check (an empty message means it passed).
  void check(const std::string& error);
  std::string to_json(const Args& args) const;
};

/// Time since main() was entered: the start of the cold set-up.
double seconds_since_start();
void mark_start();
double seconds_between(Clock::time_point a, Clock::time_point b);

/// SplitMix64 of (seed, k): independent per-operation seeds from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k);

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 for no samples.
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Interquartile mean: the mean of the middle half of the samples (all of
/// them below four).  Continuous like a mean, but a quarter of the samples
/// on either side, such as solves slowed by another tenant, do not move it.
double interquartile_mean(std::vector<double> v);

struct ProcIo {
  std::uint64_t rchar = 0;  // bytes passed to read(2) and kin
  std::uint64_t wchar = 0;  // bytes passed to write(2) and kin
};
/// The calling thread's I/O counters (/proc/thread-self/io); zeros when
/// unreadable.  Not /proc/self/io: that folds in the counters of every
/// child the process has reaped, so a shard coordinator's figure would
/// also count its workers' reads and writes.
ProcIo read_proc_io();
std::uint64_t vm_rss_bytes();
std::uint64_t vm_hwm_bytes();

/// The workloads.  Each fills `r` with the metrics its run kind asks for.
void run_low_load_pull(const Args& args, Report& r);
void run_high_load_push(const Args& args, Report& r);
void run_service_mixed(const Args& args, Report& r);
void run_shard_socket(const Args& args, Report& r);

}  // namespace perfbench
