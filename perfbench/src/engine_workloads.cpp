// The two single-process engine workloads, both min-disk on the triangle
// dataset with one point per node, single-threaded (parallel_nodes = 1: on
// a shared host a parallel stage waits for its slowest thread, so its time
// measures the other tenants as much as the engine):
//
//   low_load_pull   the low-load engine (Algorithm 2, Section 2.1 pull
//                   sampler).  Pull sampling, stage-A Welzl solves and
//                   violator scans, and the sample CSR buffer carry the work.
//   high_load_push  the high-load engine (Algorithm 5, C = 1).  No sampler
//                   and no filtering: basis and violator pushes, mailbox
//                   delivery and store growth carry the work.
#include "core/high_load.hpp"
#include "core/low_load.hpp"
#include "engine.hpp"
#include "problems/min_disk.hpp"

namespace perfbench {

namespace {

struct EngineSpec {
  std::size_t nodes;
  const char* arena_gauge;   // the engine's store-arena registry gauge
  const char* round_span;    // the engine's per-round span
  const char* stage_a_span;  // its stage-A span ("" when it has none)
  bool low_load;             // Lemma 9's load bound applies
};

template <typename Solve>
void run_engine(const Args& args, Report& r, const EngineSpec& spec,
                Solve&& solve) {
  namespace obs = lpt::obs;
  Setup setup;
  const std::vector<lpt::geom::Vec2> pts =
      generate_triangle(args.seed, spec.nodes, setup);
  for (std::uint64_t i = 0; i < kWarmupSolves; ++i) {
    const auto warm = solve(pts, warmup_seed(args.seed, i));
    check_min_disk_run(r, pts, warm.stats, warm.solution, spec.low_load);
  }
  finish_setup(setup);
  if (args.trace) enable_full_tracing();

  EngineLog log;
  const std::uint64_t seeds = run_for(args.seconds, [&](std::uint64_t k) {
    for (std::uint64_t rep = 0; rep < kRepeats; ++rep) {
      obs::trace_tick();
      log.begin();
      const Clock::time_point t0 = Clock::now();
      const auto res = [&] {
        obs::TraceSpan span("bench.solve", k);
        return solve(pts, mix_seed(args.seed, k));
      }();
      log.add(seconds_between(t0, Clock::now()), res.stats, spec.arena_gauge);
      check_min_disk_run(r, pts, res.stats, res.solution, spec.low_load);
    }
    log.end_seed();
  });
  r.attempted = kRepeats * seeds;

  if (!args.trace) {
    report_engine_e2e(r, setup, log);
    return;
  }
  report_engine_layers(r, setup, log, time_oracle(r, pts));
  r.add("trace.solve_s", interquartile_mean(log.fastest_s), "s");
  add_absent_layers(r);
  r.trace_units = log.wall_s.size();
  r.round_span = spec.round_span;
  r.stage_a_span = spec.stage_a_span;
}

const lpt::problems::MinDisk kProblem;

}  // namespace

void run_low_load_pull(const Args& args, Report& r) {
  const EngineSpec spec{std::size_t{1} << 12,
                        "engine.low_load.store_arena_bytes", "low_load.round",
                        "low_load.stage_a.chunk", true};
  run_engine(args, r, spec,
             [&](std::span<const lpt::geom::Vec2> pts, std::uint64_t seed) {
               lpt::core::LowLoadConfig cfg;
               cfg.seed = seed;
               cfg.parallel_nodes = 1;
               return lpt::core::run_low_load(kProblem, pts, spec.nodes, cfg);
             });
}

void run_high_load_push(const Args& args, Report& r) {
  const EngineSpec spec{std::size_t{1} << 12,
                        "engine.high_load.store_arena_bytes",
                        "high_load.round", "", false};
  run_engine(args, r, spec,
             [&](std::span<const lpt::geom::Vec2> pts, std::uint64_t seed) {
               lpt::core::HighLoadConfig cfg;
               cfg.seed = seed;
               cfg.parallel_nodes = 1;
               return lpt::core::run_high_load(kProblem, pts, spec.nodes, cfg);
             });
}

}  // namespace perfbench
