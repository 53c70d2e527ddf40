#include "engine.hpp"

#include <algorithm>
#include <utility>

#include "check.hpp"
#include "workloads/disk_data.hpp"

namespace perfbench {

namespace {

// Every per-layer metric run.py does not derive from the trace, with its
// unit.  The span-derived ones (core.round_s, core.stage_a_s,
// core.serial_s, shard.frames, shard.recv_wait_s) are added by run.py.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"workloads.generate_s", "s"},
    {"problems.oracle_s", "s"},
    {"problems.min_disk_direct_us", "us"},
    {"problems.lp2d_direct_us", "us"},
    {"core.peak_elements", "count"},
    {"core.bookkeeping_touches", "count"},
    {"core.sample_success_ratio", "ratio"},
    {"core.sample_attempts", "count"},
    {"memory.store_arena_bytes", "bytes"},
    {"memory.setup_rss_bytes", "bytes"},
    {"gossip.push_ops", "ops"},
    {"gossip.pull_ops", "ops"},
    {"gossip.bytes", "bytes"},
    {"service.queue_wait_us", "us"},
    {"service.serve_direct_us", "us"},
    {"service.serve_distributed_us", "us"},
    {"service.epoch_us", "us"},
    {"service.batch_queries", "count"},
    {"service.generator_lag_us", "us"},
    {"service.latency_p50_us", "us"},
    {"service.latency_p99_us", "us"},
    {"shard.bytes_sent", "bytes"},
    {"shard.bytes_received", "bytes"},
    {"shard.overhead_s", "s"},
    {"trace.solve_s", "s"},
};

// A 20 s service_mixed run records ~400k events.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

}  // namespace

void enable_full_tracing() {
  lpt::obs::TraceConfig cfg;
  cfg.capacity = kTraceCapacity;
  cfg.sample_period = 1;
  lpt::obs::enable_tracing(cfg);
  lpt::obs::trace_tick();  // arm recording before the first engine round
}

void write_trace(Report& r, const std::string& path) {
  lpt::obs::disable_tracing();
  if (lpt::obs::trace_event_count() >= kTraceCapacity) {
    r.check("trace: the span ring filled up, older spans were lost");
  }
  if (!lpt::obs::write_chrome_trace(path)) {
    r.check("trace: could not write " + path);
  }
}

void EngineLog::begin() {
  push0_ = lpt::obs::counter("gossip.push_ops").get();
  pull0_ = lpt::obs::counter("gossip.pull_ops").get();
  bytes0_ = lpt::obs::counter("gossip.bytes").get();
}

void EngineLog::add(double wall, const lpt::core::DistributedRunStats& s,
                    const char* arena_gauge) {
  wall_s.push_back(wall);
  rounds.push_back(static_cast<double>(s.rounds_to_first));
  max_work.push_back(s.max_work_per_round);
  peak_elements = std::max(peak_elements, s.max_total_elements);
  bookkeeping_total += static_cast<double>(s.bookkeeping_touches_total);
  sample_attempts += s.sampling_attempts;
  sample_failures += s.sampling_failures;
  arena_bytes = std::max(arena_bytes, lpt::obs::gauge(arena_gauge).get());
  push_ops += lpt::obs::counter("gossip.push_ops").get() - push0_;
  pull_ops += lpt::obs::counter("gossip.pull_ops").get() - pull0_;
  gossip_bytes += lpt::obs::counter("gossip.bytes").get() - bytes0_;
}

void EngineLog::end_seed() {
  const auto last = wall_s.end() - static_cast<std::ptrdiff_t>(kRepeats);
  const double fastest = *std::min_element(last, wall_s.end());
  fastest_s.push_back(fastest);
  round_us.push_back(1e6 * fastest / std::max(rounds.back(), 1.0));
}

void finish_generation(Setup& s, double generate_s) {
  s.generate_s = generate_s;
  s.rss_bytes = vm_rss_bytes();
}

void finish_setup(Setup& s) { s.setup_s = seconds_since_start(); }

void report_engine_e2e(Report& r, const Setup& setup, const EngineLog& log) {
  const double solve_s = interquartile_mean(log.fastest_s);
  r.add("setup_s", setup.setup_s, "s");
  r.add("solve_s", solve_s, "s");
  r.add("rounds", mean(log.rounds), "rounds");
  r.add("max_work_per_round", mean(log.max_work), "ops");
  r.add("peak_rss_bytes", static_cast<double>(vm_hwm_bytes()), "bytes");
  r.add("latency_us", median(log.round_us), "us");
  r.add("throughput_qps", solve_s > 0 ? 1.0 / solve_s : 0.0, "queries/s");
}

void report_engine_layers(Report& r, const Setup& setup, const EngineLog& log,
                          double oracle_s) {
  const double solves = static_cast<double>(std::max<std::size_t>(
      log.wall_s.size(), 1));
  r.add("workloads.generate_s", setup.generate_s, "s");
  r.add("problems.oracle_s", oracle_s, "s");
  r.add("core.peak_elements", static_cast<double>(log.peak_elements),
        "count");
  r.add("core.bookkeeping_touches", log.bookkeeping_total / solves, "count");
  r.add("core.sample_success_ratio",
        log.sample_attempts
            ? 1.0 - static_cast<double>(log.sample_failures) /
                        static_cast<double>(log.sample_attempts)
            : 0.0,
        "ratio");
  r.add("core.sample_attempts",
        static_cast<double>(log.sample_attempts) / solves, "count");
  r.add("memory.store_arena_bytes", static_cast<double>(log.arena_bytes),
        "bytes");
  r.add("memory.setup_rss_bytes", static_cast<double>(setup.rss_bytes),
        "bytes");
  r.add("gossip.push_ops", static_cast<double>(log.push_ops) / solves, "ops");
  r.add("gossip.pull_ops", static_cast<double>(log.pull_ops) / solves, "ops");
  r.add("gossip.bytes", static_cast<double>(log.gossip_bytes) / solves,
        "bytes");
}

void add_absent_layers(Report& r) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const bool present =
        std::any_of(r.metrics.begin(), r.metrics.end(),
                    [&](const Report::Metric& m) { return m.name == name; });
    if (!present) r.add(name, 0.0, unit);
  }
}

std::vector<lpt::geom::Vec2> generate_triangle(std::uint64_t seed,
                                               std::size_t n, Setup& setup) {
  const Clock::time_point t0 = Clock::now();
  lpt::util::Rng rng(seed);
  auto pts = lpt::workloads::generate_disk_dataset(
      lpt::workloads::DiskDataset::kTriangle, n, rng);
  finish_generation(setup, seconds_between(t0, Clock::now()));
  return pts;
}

double time_oracle(Report& r, std::span<const lpt::geom::Vec2> pts) {
  lpt::obs::TraceSpan span("bench.oracle");
  const Clock::time_point t0 = Clock::now();
  const auto sol = lpt::problems::MinDisk{}.solve(pts);
  const double s = seconds_between(t0, Clock::now());
  r.check(check::min_disk(pts, sol.disk.center, sol.disk.radius, sol.basis));
  return s;
}

void check_min_disk_run(Report& r, std::span<const lpt::geom::Vec2> pts,
                        const lpt::core::DistributedRunStats& stats,
                        const lpt::problems::MinDiskSolution& sol,
                        bool low_load) {
  if (!stats.reached_optimum) r.check("engine: optimum not reached");
  r.check(check::min_disk(pts, sol.disk.center, sol.disk.radius, sol.basis));
  r.check(check::rounds_bound(stats.rounds_to_first, 3, pts.size()));
  if (low_load) {
    r.check(check::load_bound(stats.max_total_elements,
                              stats.initial_total_elements));
  }
}

}  // namespace perfbench
