// shard_socket: the low-load engine on the triangle min-disk dataset with
// stage A on a loopback-socket shard worker (a forked process that
// receives the problem in a bootstrap frame).  The only workload through the
// lpt_shard frame codec and transport.  Each seed is solved sharded
// kRepeats times, then unsharded and single-threaded: the solutions must
// agree bit for bit, and the fastest sharded repeat less the serial time is
// the sharding overhead.
#include <optional>

#include "check.hpp"
#include "core/low_load.hpp"
#include "engine.hpp"
#include "problems/min_disk.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kNodes = std::size_t{1} << 11;
// One worker: the coordinator waits while it computes stage A, so one
// process runs at a time, as on the single-threaded engine workloads.  More
// workers put more processes on the shared host at once, and a round then
// waits for whichever of them the host slowed.
constexpr std::size_t kShards = 1;
}  // namespace

void run_shard_socket(const Args& args, Report& r) {
  namespace obs = lpt::obs;
  using Result = lpt::core::DistributedLpResult<lpt::problems::MinDisk>;
  Setup setup;
  const std::vector<lpt::geom::Vec2> pts =
      generate_triangle(args.seed, kNodes, setup);
  const std::span<const lpt::geom::Vec2> input(pts);
  const lpt::problems::MinDisk problem;
  const auto sharded_config = [&](std::uint64_t seed) {
    lpt::core::LowLoadConfig cfg;
    cfg.seed = seed;
    cfg.shard.shards = kShards;
    cfg.shard.transport = lpt::shard::TransportKind::kSocket;
    return cfg;
  };
  for (std::uint64_t i = 0; i < kWarmupSolves; ++i) {
    const Result warm = lpt::core::run_low_load(
        problem, input, kNodes, sharded_config(warmup_seed(args.seed, i)));
    check_min_disk_run(r, pts, warm.stats, warm.solution, true);
  }
  finish_setup(setup);
  if (args.trace) enable_full_tracing();

  EngineLog log;
  std::vector<double> overhead_s;
  double sent = 0;
  double received = 0;
  const std::uint64_t seeds = run_for(args.seconds, [&](std::uint64_t k) {
    lpt::core::LowLoadConfig cfg = sharded_config(mix_seed(args.seed, k));
    std::optional<Result> sharded;
    for (std::uint64_t rep = 0; rep < kRepeats; ++rep) {
      obs::trace_tick();
      log.begin();
      const ProcIo io0 = read_proc_io();
      const Clock::time_point t0 = Clock::now();
      Result res = [&] {
        obs::TraceSpan span("bench.solve", k);
        return lpt::core::run_low_load(problem, input, kNodes, cfg);
      }();
      const Clock::time_point t1 = Clock::now();
      const ProcIo io1 = read_proc_io();
      log.add(seconds_between(t0, t1), res.stats,
              "engine.low_load.store_arena_bytes");
      sent += static_cast<double>(io1.wchar - io0.wchar);
      received += static_cast<double>(io1.rchar - io0.rchar);
      check_min_disk_run(r, pts, res.stats, res.solution, true);
      if (sharded && !(res.solution == sharded->solution)) {
        r.check("shard: a repeat's solution differs from the first");
      }
      if (!sharded) sharded = std::move(res);
    }
    log.end_seed();

    cfg.shard = {};
    const Clock::time_point t2 = Clock::now();
    const Result serial = [&] {
      obs::TraceSpan span("bench.serial_solve", k);
      return lpt::core::run_low_load(problem, input, kNodes, cfg);
    }();
    overhead_s.push_back(log.fastest_s.back() -
                         seconds_between(t2, Clock::now()));
    if (!(sharded->solution == serial.solution)) {
      r.check("shard: solution differs from the serial run");
    }
    r.check(check::same_stats(sharded->stats, serial.stats));
  });
  r.attempted = kRepeats * seeds;

  if (!args.trace) {
    report_engine_e2e(r, setup, log);
    return;
  }
  report_engine_layers(r, setup, log, time_oracle(r, pts));
  r.add("trace.solve_s", interquartile_mean(log.fastest_s), "s");
  const double solves = static_cast<double>(log.wall_s.size());
  r.add("shard.bytes_sent", sent / solves, "bytes");
  r.add("shard.bytes_received", received / solves, "bytes");
  r.add("shard.overhead_s", median(overhead_s), "s");
  add_absent_layers(r);
  r.trace_units = log.wall_s.size();
  r.round_span = "low_load.round";
  r.stage_a_span = "shard.frame_recv";
}

}  // namespace perfbench
