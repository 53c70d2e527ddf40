// service_mixed: LptService fed the same query mix twice.
//
//   open loop    Poisson arrivals at kRateQps for kOpenShare of the run; each
//                query's latency runs from its scheduled send time to the end
//                of the epoch that answered it.
//   closed loop  kClients clients, each sending its next query as soon as
//                its previous one is answered, for the rest of the run.
//
// The mix: of every 128 queries, 127 are 256-point min-disk (two in three)
// and 256-constraint lp2d payloads, which take the direct path (Welzl,
// Seidel); the 128th is a 4096-point min-disk query, which runs the
// low-load engine on the service's 64 simulated nodes.  Distributed solves
// hold the service about a fifth of the open-loop time, so p99 falls among
// the queries queued behind one.  The lp2d solves cluster tightly below the
// min-disk ones (~3 us against 2-9 us); with min-disk two in three, p50
// falls inside the min-disk spread, not on the edge of the lp2d cluster.
// Every answer is certificate-checked.
//
// The untraced figures are built to hold still on a shared host, whose
// tenants only ever add time: solve_s and latency_us take each payload's
// fastest answer (distributed solves; open-loop latencies of the small
// payloads) and then the interquartile mean or median over payloads, and
// throughput_qps is the 75th percentile of the closed loop's rates over
// windows of kWindow queries.  The raw latency percentiles are per-layer
// figures of the traced run.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "check.hpp"
#include "core/low_load.hpp"
#include "engine.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_disk.hpp"
#include "service/service.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/lp_data.hpp"

namespace perfbench {

namespace {

namespace obs = lpt::obs;
namespace svc = lpt::service;
using lpt::geom::Vec2;

constexpr std::size_t kSmallSize = 256;    // points or constraints
constexpr std::size_t kLargeSize = 4096;   // points: >= direct_cutoff
// Large pools: the per-payload figures are averaged over many payloads, so
// they move little with the seed that drew them.
constexpr std::size_t kPoolSmall = 512;    // payloads per small kind
constexpr std::size_t kPoolLarge = 64;
constexpr std::uint64_t kLargeEvery = 128;  // one distributed query in 128
// The set-up's warm-up: queries 0 .. kWarmup-1, served in closed-loop
// batches of kClients, reach every payload at least once.
constexpr std::uint64_t kWarmup = kLargeEvery * kPoolLarge;
constexpr double kRateQps = 8000;
constexpr double kOpenShare = 0.6;
constexpr std::size_t kClients = 64;
constexpr std::uint64_t kWindow = 1024;  // closed-loop queries per window
constexpr std::size_t kReruns = 8;  // distributed queries re-run directly

struct Pools {
  std::vector<std::vector<Vec2>> disks;
  std::vector<lpt::workloads::LpInstance> lps;
  std::vector<std::vector<Vec2>> large;
};

enum class Slot : std::uint8_t { kDisk, kLp, kLarge };

struct Pick {
  Slot slot;
  std::size_t index;
};

/// Query id -> payload: the mix is a pure function of the id.
Pick pick(std::uint64_t id) {
  if (id % kLargeEvery == kLargeEvery - 1) {
    return {Slot::kLarge, static_cast<std::size_t>(id / kLargeEvery) %
                              kPoolLarge};
  }
  return {id % 3 == 2 ? Slot::kLp : Slot::kDisk,
          static_cast<std::size_t>(id / 3) % kPoolSmall};
}

Pools make_pools(std::uint64_t seed) {
  Pools p;
  lpt::util::Rng rng(seed);
  for (std::size_t i = 0; i < kPoolSmall; ++i) {
    p.disks.push_back(lpt::workloads::generate_disk_dataset(
        lpt::workloads::kAllDiskDatasets[i % 4], kSmallSize, rng));
    p.lps.push_back(lpt::workloads::generate_lp_instance(kSmallSize, rng));
  }
  for (std::size_t i = 0; i < kPoolLarge; ++i) {
    p.large.push_back(lpt::workloads::generate_disk_dataset(
        lpt::workloads::DiskDataset::kTriangle, kLargeSize, rng));
  }
  return p;
}

constexpr double kUnseen = std::numeric_limits<double>::infinity();

/// The entries of a per-payload table that were filled in.
std::vector<double> seen(const std::vector<double>& v) {
  std::vector<double> out;
  for (const double x : v) {
    if (x != kUnseen) out.push_back(x);
  }
  return out;
}

/// One served answer, held without heap storage.
struct Answer {
  lpt::geom::Circle disk;
  std::array<Vec2, 3> basis{};
  std::size_t basis_size = 0;
  lpt::lp::LpValue lp;

  explicit Answer(const svc::QueryResponse& r)
      : disk(r.disk.disk),
        basis_size(std::min(r.disk.basis.size(), basis.size())),
        lp(r.lp.value) {
    std::copy_n(r.disk.basis.begin(), basis_size, basis.begin());
  }
  std::span<const Vec2> disk_basis() const {
    return std::span<const Vec2>(basis).first(basis_size);
  }
  bool same_disk(const lpt::problems::MinDiskSolution& s) const {
    return s.disk == disk && std::ranges::equal(s.basis, disk_basis());
  }
  friend bool operator==(const Answer& a, const Answer& b) {
    return a.disk == b.disk && a.lp == b.lp &&
           std::ranges::equal(a.disk_basis(), b.disk_basis());
  }
};

/// The load generator.  Answers are deterministic per payload (direct and
/// distributed solves both return the canonical solution), so the client
/// keeps the first answer for each payload, certificate-checked after the
/// run, and compares every later answer for that payload to it bit for bit
/// as it arrives.  Per query id it keeps one byte, the number of ok
/// answers: its memory stays small and flat, and the peak RSS is the
/// service's.
class Client {
 public:
  struct Served {
    std::uint64_t id;
    double solve_s;
  };

  Client(const Args& args, const Pools& pools, svc::LptService& service)
      : args_(args), pools_(pools), service_(service) {
    first_[0].resize(pools.disks.size());
    first_[1].resize(pools.lps.size());
    first_[2].resize(pools.large.size());
  }

  /// Size the per-id tally for the whole run up front, so that neither a
  /// reallocation nor the number of queries a run got through moves the
  /// latency or the peak RSS.
  void reserve(std::size_t ids) { tally_.assign(ids, 0); }

  void submit(std::uint64_t id) {
    svc::QueryRequest q = service_.acquire_request();
    q.id = id;
    q.seed = mix_seed(args_.seed, id);
    q.points.clear();
    q.planes.clear();
    const Pick p = pick(id);
    if (p.slot == Slot::kLp) {
      const auto& inst = pools_.lps[p.index];
      q.kind = svc::QueryKind::kLp2d;
      q.planes.assign(inst.constraints.begin(), inst.constraints.end());
      q.objective = inst.objective;
    } else {
      const auto& pts =
          p.slot == Slot::kDisk ? pools_.disks[p.index] : pools_.large[p.index];
      q.kind = svc::QueryKind::kMinDisk;
      q.points.assign(pts.begin(), pts.end());
    }
    service_.submit(std::move(q));
    ++submitted_;
    if (id >= tally_.size()) tally_.resize(2 * id + 1, 0);
  }

  /// Run one epoch; returns its responses' ids and solve times.
  std::span<const Served> epoch() {
    responses_.clear();
    served_.clear();
    {
      obs::TraceSpan span("bench.run_epoch");
      service_.run_epoch(responses_);
    }
    for (svc::QueryResponse& r : responses_) {
      take(r);
      service_.recycle_response(std::move(r));
    }
    return served_;
  }

  /// Check everything the client collected.
  void check(Report& r) const {
    r.check(check::one_ok_per_id(
        std::span<const std::uint8_t>(tally_).first(submitted_), not_ok_));
    if (mismatches_ != 0) {
      r.check("service: " + std::to_string(mismatches_) +
              " answers differ from the first answer for their payload");
    }
    for (std::size_t i = 0; i < first_[0].size(); ++i) {
      if (!first_[0][i]) continue;
      const Answer& a = *first_[0][i];
      r.check(check::min_disk(pools_.disks[i], a.disk.center, a.disk.radius,
                              a.disk_basis()));
    }
    for (std::size_t i = 0; i < first_[1].size(); ++i) {
      if (!first_[1][i]) continue;
      const auto& inst = pools_.lps[i];
      r.check(check::lp2d(inst.constraints, inst.objective,
                          first_[1][i]->lp.point, first_[1][i]->lp.objective,
                          inst.optimum));
    }
    for (std::size_t i = 0; i < first_[2].size(); ++i) {
      if (!first_[2][i]) continue;
      const Answer& a = *first_[2][i];
      r.check(check::min_disk(pools_.large[i], a.disk.center, a.disk.radius,
                              a.disk_basis()));
    }
    for (const double rounds : rounds_) {
      r.check(check::rounds_bound(static_cast<std::size_t>(rounds), 3,
                                  service_.config().distributed_nodes));
    }
    if (rounds_.empty()) r.check("service: no distributed query served");
  }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t not_ok() const { return not_ok_; }
  /// Call when the warm-up is served: the figures below then cover only
  /// the queries after it (the checks still cover every query).
  void end_warmup() {
    warm_distributed_ = distributed_s_.size();
    warm_direct_ = direct_s_.size();
    fastest_distributed_s_.assign(pools_.large.size(), kUnseen);
  }
  /// Per large payload served after the warm-up: its fastest solve.
  std::vector<double> fastest_distributed_s() const {
    return seen(fastest_distributed_s_);
  }
  std::vector<double> distributed_s() const {
    return {distributed_s_.begin() + warm_distributed_, distributed_s_.end()};
  }
  std::vector<double> direct_s() const {
    return {direct_s_.begin() + warm_direct_, direct_s_.end()};
  }
  std::vector<double> rounds() const {
    return {rounds_.begin() + warm_distributed_, rounds_.end()};
  }
  /// The first distributed queries' ids, for the direct engine re-runs.
  const std::vector<std::uint64_t>& distributed_ids() const {
    return distributed_ids_;
  }
  const Answer& first_large(std::uint64_t id) const {
    return *first_[2][pick(id).index];
  }

 private:
  void take(const svc::QueryResponse& r) {
    const double solve_s = 1e-9 * static_cast<double>(r.solve_nanos);
    served_.push_back({r.id, solve_s});
    if (r.status != svc::QueryStatus::kOk || r.id >= submitted_) {
      ++not_ok_;
      return;
    }
    if (tally_[r.id] < 255) ++tally_[r.id];
    const Pick p = pick(r.id);
    const bool large = p.slot == Slot::kLarge;
    if (large != (r.engine == svc::EngineUsed::kDistributed)) ++mismatches_;
    if (large) {
      if (!fastest_distributed_s_.empty()) {
        double& f = fastest_distributed_s_[p.index];
        f = std::min(f, solve_s);
      }
      distributed_s_.push_back(solve_s);
      rounds_.push_back(r.rounds);
      if (distributed_ids_.size() < kReruns) distributed_ids_.push_back(r.id);
    } else {
      direct_s_.push_back(solve_s);
    }
    auto& first = first_[static_cast<std::size_t>(p.slot)][p.index];
    const Answer a(r);
    if (!first) {
      first = a;
    } else if (!(*first == a)) {
      ++mismatches_;
    }
  }

  const Args& args_;
  const Pools& pools_;
  svc::LptService& service_;
  std::vector<svc::QueryResponse> responses_;
  std::vector<Served> served_;
  std::array<std::vector<std::optional<Answer>>, 3> first_;  // by Slot
  std::vector<std::uint8_t> tally_;  // ok answers per id
  std::vector<double> distributed_s_;
  std::vector<double> direct_s_;
  std::vector<double> rounds_;  // parallel to distributed_s_
  std::size_t warm_distributed_ = 0;
  std::size_t warm_direct_ = 0;
  std::vector<double> fastest_distributed_s_;  // by large-pool index
  std::vector<std::uint64_t> distributed_ids_;
  std::uint64_t submitted_ = 0;
  std::uint64_t not_ok_ = 0;  // answers not ok or to an unknown id
  std::uint64_t mismatches_ = 0;
};

/// Median of the direct solves of each pool payload, repeated `reps` times.
template <typename Solve>
double direct_us(std::size_t pool, int reps, Solve&& solve) {
  std::vector<double> us;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < pool; ++i) {
      const Clock::time_point t0 = Clock::now();
      solve(i);
      us.push_back(1e6 * seconds_between(t0, Clock::now()));
    }
  }
  return median(us);
}

}  // namespace

void run_service_mixed(const Args& args, Report& r) {
  // --- Set-up: payload pools, the arrival schedule, the service. --------
  Setup setup;
  Pools pools;
  std::vector<double> arrival_s;
  const double open_s = kOpenShare * args.seconds;
  const Clock::time_point g0 = Clock::now();
  {
    pools = make_pools(args.seed);
    lpt::util::Rng rng(mix_seed(args.seed, ~std::uint64_t{0}));
    for (double t = 0;;) {
      t += -std::log(1.0 - rng.uniform()) / kRateQps;
      if (t >= open_s) break;
      arrival_s.push_back(t);
    }
  }
  finish_generation(setup, seconds_between(g0, Clock::now()));
  svc::LptService service;
  Client client(args, pools, service);
  // The closed loop serves up to ~4x the open loop's queries.
  client.reserve(kWarmup + 8 * arrival_s.size() + kClients);
  for (std::uint64_t next = 0; next < kWarmup;) {
    while (next < kWarmup && service.pending() < kClients) {
      client.submit(next++);
    }
    client.epoch();
  }
  while (service.pending() > 0) client.epoch();
  client.end_warmup();
  finish_setup(setup);
  if (args.trace) enable_full_tracing();

  // --- Open loop. ---------------------------------------------------------
  std::vector<double> latency_us;
  std::vector<double> queue_wait_us;
  std::vector<double> lag_us;
  std::vector<double> epoch_us;
  // Per small payload (min-disk pool, then lp2d pool): its fastest latency.
  std::vector<double> fastest_latency_us(2 * kPoolSmall, kUnseen);
  for (auto* v : {&latency_us, &queue_wait_us, &lag_us, &epoch_us}) {
    v->reserve(arrival_s.size());
  }
  {
    obs::TraceSpan span("bench.open_loop");
    const Clock::time_point t0 = Clock::now();
    std::size_t next = 0;  // open-loop query `next` has id kWarmup + next
    while (next < arrival_s.size() || service.pending() > 0) {
      const double now = seconds_between(t0, Clock::now());
      while (next < arrival_s.size() && arrival_s[next] <= now) {
        lag_us.push_back(1e6 * (now - arrival_s[next]));
        client.submit(kWarmup + next++);
      }
      if (service.pending() == 0) continue;  // idle: spin to the next arrival
      const Clock::time_point e0 = Clock::now();
      const auto served = client.epoch();
      const Clock::time_point e1 = Clock::now();
      epoch_us.push_back(1e6 * seconds_between(e0, e1));
      const double done = seconds_between(t0, e1);
      for (const Client::Served& q : served) {
        const double lat = done - arrival_s[q.id - kWarmup];
        latency_us.push_back(1e6 * lat);
        queue_wait_us.push_back(1e6 * (lat - q.solve_s));
        const Pick p = pick(q.id);
        if (p.slot != Slot::kLarge) {
          double& f = fastest_latency_us[static_cast<std::size_t>(p.slot) *
                                             kPoolSmall +
                                         p.index];
          f = std::min(f, 1e6 * lat);
        }
      }
    }
  }

  // --- Closed loop over the same mix. --------------------------------------
  std::vector<double> batch;
  std::vector<double> window_qps;
  {
    obs::TraceSpan span("bench.closed_loop");
    const double budget = args.seconds - open_s;
    std::uint64_t next = kWarmup + arrival_s.size();
    const Clock::time_point t0 = Clock::now();
    Clock::time_point w0 = t0;
    std::uint64_t in_window = 0;
    for (std::size_t c = 0; c < kClients; ++c) client.submit(next++);
    while (service.pending() > 0) {
      const std::size_t served = client.epoch().size();
      const Clock::time_point now = Clock::now();
      batch.push_back(static_cast<double>(served));
      in_window += served;
      if (in_window >= kWindow) {
        window_qps.push_back(static_cast<double>(in_window) /
                             seconds_between(w0, now));
        w0 = now;
        in_window = 0;
      }
      if (seconds_between(t0, now) < budget) {
        for (std::size_t i = 0; i < served; ++i) client.submit(next++);
      }
    }
  }
  r.attempted = client.submitted();
  r.failed = client.not_ok();
  client.check(r);

  // --- The first distributed queries re-run on the engine directly: their
  // work per round (which QueryResponse does not carry) and bit-identity
  // with the served answer. ------------------------------------------------
  const lpt::problems::MinDisk problem;
  EngineLog rerun;
  for (const std::uint64_t id : client.distributed_ids()) {
    svc::QueryRequest q;
    q.id = id;
    q.seed = mix_seed(args.seed, id);
    const auto& pts = pools.large[pick(id).index];
    obs::TraceSpan span("bench.rerun", id);
    rerun.begin();
    const Clock::time_point t0 = Clock::now();
    const auto res = lpt::core::run_low_load(
        problem, std::span<const Vec2>(pts), service.config().distributed_nodes,
        service.engine_config_for(q));
    rerun.add(seconds_between(t0, Clock::now()), res.stats,
              "engine.low_load.store_arena_bytes");
    if (!client.first_large(id).same_disk(res.solution)) {
      r.check("service: distributed answer differs from a direct engine run");
    }
  }

  if (!args.trace) {
    r.add("setup_s", setup.setup_s, "s");
    r.add("solve_s", interquartile_mean(client.fastest_distributed_s()), "s");
    r.add("rounds", mean(client.rounds()), "rounds");
    r.add("max_work_per_round", mean(rerun.max_work), "ops");
    r.add("peak_rss_bytes", static_cast<double>(vm_hwm_bytes()), "bytes");
    r.add("latency_us", median(seen(fastest_latency_us)), "us");
    r.add("throughput_qps", percentile(window_qps, 0.75), "queries/s");
    return;
  }

  // --- Traced run: the layer figures. --------------------------------------
  double oracle_s = 0;
  {
    obs::TraceSpan span("bench.oracle");
    std::vector<double> s;
    for (const auto& pts : pools.large) {
      const Clock::time_point t0 = Clock::now();
      const auto sol = problem.solve(pts);
      s.push_back(seconds_between(t0, Clock::now()));
      r.check(
          check::min_disk(pts, sol.disk.center, sol.disk.radius, sol.basis));
    }
    oracle_s = median(s);
  }
  report_engine_layers(r, setup, rerun, oracle_s);
  {
    obs::TraceSpan span("bench.direct_min_disk");
    const double us = direct_us(kPoolSmall, 8, [&](std::size_t i) {
      (void)problem.solve(pools.disks[i]);
    });
    r.add("problems.min_disk_direct_us", us, "us");
  }
  {
    obs::TraceSpan span("bench.direct_lp2d");
    const double us = direct_us(kPoolSmall, 8, [&](std::size_t i) {
      const auto& inst = pools.lps[i];
      (void)lpt::problems::LinearProgram2D(inst.objective)
          .solve(inst.constraints);
    });
    r.add("problems.lp2d_direct_us", us, "us");
  }
  r.add("service.queue_wait_us", percentile(queue_wait_us, 0.99), "us");
  r.add("service.serve_direct_us", 1e6 * median(client.direct_s()), "us");
  r.add("service.serve_distributed_us",
        1e6 * median(client.distributed_s()), "us");
  r.add("service.epoch_us", median(epoch_us), "us");
  r.add("service.batch_queries", mean(batch), "count");
  r.add("service.generator_lag_us", percentile(lag_us, 0.99), "us");
  r.add("service.latency_p50_us", percentile(latency_us, 0.50), "us");
  r.add("service.latency_p99_us", percentile(latency_us, 0.99), "us");
  r.add("trace.solve_s", interquartile_mean(client.fastest_distributed_s()),
        "s");
  add_absent_layers(r);
  r.trace_units = client.distributed_s().size();
  r.window_span = "service.epoch";
  r.round_span = "low_load.round";
  r.stage_a_span = "low_load.stage_a.chunk";
}

}  // namespace perfbench
