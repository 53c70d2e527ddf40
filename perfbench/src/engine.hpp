// Shared pieces of the three engine workloads (low_load_pull,
// high_load_push, shard_socket): the timed solve loop, the per-solve log
// kept from each run's DistributedRunStats, and the metric reports built
// from it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/result.hpp"
#include "geometry/vec2.hpp"
#include "obs/obs.hpp"
#include "problems/min_disk.hpp"

namespace perfbench {

/// Run op(k) for k = 0, 1, ... until `seconds` have passed; every run
/// therefore attempts whole operations.  Returns the number attempted.
template <typename Op>
std::uint64_t run_for(double seconds, Op&& op) {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t k = 0;
  do {
    op(k);
    ++k;
  } while (seconds_between(t0, Clock::now()) < seconds);
  return k;
}

/// Start a traced run, after the set-up (so the preallocated ring is not in
/// memory.setup_rss_bytes): every unit sampled, the ring large enough that
/// no event of a run is overwritten.
void enable_full_tracing();

/// End a traced run: write the Chrome trace to `path`.  A ring that filled
/// up (older events lost) or a failed write fails the run, since the span
/// metrics would be partial.
void write_trace(Report& r, const std::string& path);

/// Solves per engine seed.  A solve is deterministic per seed, so its
/// repeats differ only in what the host did meanwhile, and the fastest of
/// them is the seed's solve time: on a shared host other tenants only ever
/// add time (a fixed CPU loop of a few milliseconds took from 1x to 2x its
/// quiet time on the 4-vCPU VM the benchmark was tuned on).  The first
/// repeat also pays the seed's cold misses.  Two, not more: solve times
/// vary up to 4x from seed to seed, so a run needs many seeds.
constexpr std::uint64_t kRepeats = 2;

/// Distinct engine seeds solved once each in the set-up, untimed.  Several,
/// because one solve's time follows its seed's luck, and so would setup_s.
constexpr std::uint64_t kWarmupSolves = 16;

struct EngineLog {
  std::vector<double> wall_s;  // one per solve
  std::vector<double> rounds;
  std::vector<double> max_work;  // per solve: max push+pull ops of a node
                                 // in one round
  std::size_t peak_elements = 0;
  double bookkeeping_total = 0;
  std::uint64_t sample_attempts = 0;
  std::uint64_t sample_failures = 0;
  std::int64_t arena_bytes = 0;  // max store-arena gauge after a solve
  // Registry gossip counters summed over the logged solves only.
  std::uint64_t push_ops = 0;
  std::uint64_t pull_ops = 0;
  std::uint64_t gossip_bytes = 0;
  // Per seed, from its kRepeats solves: the fastest solve time, and that
  // time per round until the first node held the optimum.
  std::vector<double> fastest_s;
  std::vector<double> round_us;

  /// Call right before a solve: remembers the registry counters.
  void begin();
  /// Call right after it: logs the solve and the counters it moved.
  void add(double wall, const lpt::core::DistributedRunStats& s,
           const char* arena_gauge);
  /// Call after a seed's kRepeats solves: logs the fastest of them.
  void end_seed();

 private:
  std::uint64_t push0_ = 0;
  std::uint64_t pull0_ = 0;
  std::uint64_t bytes0_ = 0;
};

/// What a workload's set-up measured, for the reports.  The set-up is the
/// input generation followed by an untimed warm-up (kWarmupSolves solves, or
/// on the service one pass over every payload), so the first timed call
/// finds the allocator, page tables and caches warm.
struct Setup {
  double setup_s = 0;     // from process start to the first timed call
  double generate_s = 0;  // input generation alone
  std::uint64_t rss_bytes = 0;  // VmRSS after generation: the inputs
};

/// After generation: record its time and the resident set it left.
void finish_generation(Setup& s, double generate_s);

/// After the warm-up: stamp the set-up's time since process start.
void finish_setup(Setup& s);

/// The inputs of the min-disk engine workloads: n points of the triangle
/// dataset drawn from `seed`, timed as generation.
std::vector<lpt::geom::Vec2> generate_triangle(std::uint64_t seed,
                                               std::size_t n, Setup& setup);

/// The engine seed of a workload's i-th warm-up solve; the timed solves use
/// mix_seed(seed, k) for k = 0, 1, ...
inline std::uint64_t warmup_seed(std::uint64_t seed, std::uint64_t i) {
  return mix_seed(seed, ~std::uint64_t{0} - i);
}

/// Traced runs: one single-threaded MinDisk::solve over the full input
/// (the oracle every run_* call repeats internally), certificate-checked.
/// Returns its wall time.
double time_oracle(Report& r, std::span<const lpt::geom::Vec2> pts);

/// End-to-end metrics of an engine workload.  solve_s is the interquartile
/// mean over seeds of each seed's fastest solve: solve times cluster by
/// round count, and a median jumps between the clusters.
/// max_work_per_round is the mean over solves of each solve's maximum (a
/// maximum over the run follows its one most unlucky seed).  The solves
/// form a closed loop of one client, so throughput is solves per second;
/// latency_us is the median over seeds of one gossip round's time (fastest
/// solve / rounds), which does not move with the round count.
void report_engine_e2e(Report& r, const Setup& setup, const EngineLog& log);

/// Per-layer metrics every engine workload has: generation, the
/// single-threaded oracle solve over the full input, the stats fields, the
/// registry's gossip counters (per solve), memory.
void report_engine_layers(Report& r, const Setup& setup, const EngineLog& log,
                          double oracle_s);

/// Per-layer metrics whose layer a workload does not exercise read 0; this
/// adds every per-layer metric not yet in `r`, so each traced run prints the
/// full list.
void add_absent_layers(Report& r);

/// Certificate checks shared by the min-disk engine workloads.
void check_min_disk_run(Report& r, std::span<const lpt::geom::Vec2> pts,
                        const lpt::core::DistributedRunStats& stats,
                        const lpt::problems::MinDiskSolution& sol,
                        bool low_load);

}  // namespace perfbench
