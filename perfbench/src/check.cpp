#include "check.hpp"

#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "util/rng.hpp"
#include "workloads/lp_data.hpp"

namespace perfbench::check {

namespace {

using LD = long double;

struct P {
  LD x;
  LD y;
};

P to_p(Vec2 v) { return {static_cast<LD>(v.x), static_cast<LD>(v.y)}; }
P sub(P a, P b) { return {a.x - b.x, a.y - b.y}; }
LD cross(P a, P b) { return a.x * b.y - a.y * b.x; }
LD norm(P a) { return std::sqrt(a.x * a.x + a.y * a.y); }

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

/// Is the center within `tol` of the convex hull of the basis?
bool center_in_hull(P c, std::span<const Vec2> basis, LD tol) {
  const P b0 = to_p(basis[0]);
  if (basis.size() == 1) return norm(sub(c, b0)) <= tol;
  const P b1 = to_p(basis[1]);
  if (basis.size() == 2) {
    const P e = sub(b1, b0);
    const LD len2 = e.x * e.x + e.y * e.y;
    if (len2 == 0) return norm(sub(c, b0)) <= tol;
    LD t = ((c.x - b0.x) * e.x + (c.y - b0.y) * e.y) / len2;
    t = t < 0 ? 0 : (t > 1 ? 1 : t);
    return norm(sub(c, {b0.x + t * e.x, b0.y + t * e.y})) <= tol;
  }
  const P pts[3] = {b0, b1, to_p(basis[2])};
  for (int i = 0; i < 3; ++i) {
    const P a = pts[i];
    const P b = pts[(i + 1) % 3];
    const P o = pts[(i + 2) % 3];
    const P e = sub(b, a);
    const LD len = norm(e);
    if (len == 0) return false;
    // Signed distances from the edge's line: the center must lie on the
    // opposite vertex's side, or within tol of the line.
    const LD side_o = cross(e, sub(o, a)) / len;
    const LD side_c = cross(e, sub(c, a)) / len;
    if (side_o == 0) return false;  // degenerate (collinear) basis
    if ((side_o > 0 ? side_c : -side_c) < -tol) return false;
  }
  return true;
}

}  // namespace

std::string min_disk(std::span<const Vec2> points, Vec2 center, double radius,
                     std::span<const Vec2> basis) {
  if (!std::isfinite(radius) || radius < 0) {
    return fmt("min-disk: radius %g is not a finite non-negative number",
               radius);
  }
  if (basis.empty() || basis.size() > 3) {
    return fmt("min-disk: basis has %g points, expected 1 to 3",
               static_cast<double>(basis.size()));
  }
  const P c = to_p(center);
  const LD r = radius;
  const LD tol = kEps * (r + 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LD d = norm(sub(to_p(points[i]), c));
    if (d > r + tol) {
      return fmt("min-disk: input point %g lies %.3g outside the disk",
                 static_cast<double>(i), static_cast<double>(d - r));
    }
  }
  for (std::size_t j = 0; j < basis.size(); ++j) {
    const LD d = norm(sub(to_p(basis[j]), c));
    if (std::fabs(d - r) > tol) {
      return fmt("min-disk: basis point %g is %.3g off the circle",
                 static_cast<double>(j), static_cast<double>(d - r));
    }
    bool member = false;
    for (const Vec2& p : points) {
      if (p.x == basis[j].x && p.y == basis[j].y) {
        member = true;
        break;
      }
    }
    if (!member) {
      return fmt("min-disk: basis point %g is not an input point",
                 static_cast<double>(j));
    }
  }
  if (!center_in_hull(c, basis, tol)) {
    return "min-disk: the center lies outside the convex hull of the basis";
  }
  return {};
}

std::string lp2d(std::span<const Halfplane> planes, Vec2 objective,
                 Vec2 point, double value, Vec2 planted) {
  const P x = to_p(point);
  for (std::size_t i = 0; i < planes.size(); ++i) {
    const Halfplane& h = planes[i];
    const LD lhs = static_cast<LD>(h.a.x) * x.x + static_cast<LD>(h.a.y) * x.y;
    const LD scale =
        std::fmax(norm(to_p(h.a)), std::fabs(static_cast<LD>(h.b)));
    if (lhs > static_cast<LD>(h.b) + kEps * (scale + 1)) {
      return fmt("lp2d: constraint %g violated by %.3g",
                 static_cast<double>(i), static_cast<double>(lhs - h.b));
    }
  }
  const P t = to_p(planted);
  const LD off = norm(sub(x, t));
  // The optimum is the intersection of two generated lines; 1e-7 is far
  // above its rounding error and far below any other vertex.
  if (off > 1e-7L * (1 + norm(t))) {
    return fmt("lp2d: answer lies %.3g from the planted vertex",
               static_cast<double>(off));
  }
  const P c = to_p(objective);
  const LD want = c.x * t.x + c.y * t.y;
  if (std::fabs(static_cast<LD>(value) - want) >
      1e-7L * (1 + std::fabs(want))) {
    return fmt("lp2d: objective value %.17g, planted %.17g", value,
               static_cast<double>(want));
  }
  return {};
}

std::string rounds_bound(std::size_t rounds, std::size_t d, std::size_t n) {
  const double log_n = n > 1 ? std::log2(static_cast<double>(n)) : 1.0;
  const double bound = kRoundsC * static_cast<double>(d) * log_n;
  if (rounds == 0 || static_cast<double>(rounds) > bound) {
    return fmt("engine: %g rounds, bound c*d*log2(n) = %g",
               static_cast<double>(rounds), bound);
  }
  return {};
}

std::string load_bound(std::size_t max_elements, std::size_t initial) {
  const double bound = kLoadK * static_cast<double>(initial);
  if (static_cast<double>(max_elements) > bound) {
    return fmt("engine: |H(V)| peaked at %g, bound k*|H0| = %g",
               static_cast<double>(max_elements), bound);
  }
  return {};
}

std::string same_stats(const lpt::core::DistributedRunStats& a,
                       const lpt::core::DistributedRunStats& b) {
#define PERFBENCH_FIELD(f) \
  if (a.f != b.f) return "shard: stats field " #f " differs from the serial run"
  PERFBENCH_FIELD(rounds_to_first);
  PERFBENCH_FIELD(rounds_to_all_output);
  PERFBENCH_FIELD(reached_optimum);
  PERFBENCH_FIELD(all_outputs_correct);
  PERFBENCH_FIELD(max_work_per_round);
  PERFBENCH_FIELD(total_push_ops);
  PERFBENCH_FIELD(total_pull_ops);
  PERFBENCH_FIELD(total_bytes);
  PERFBENCH_FIELD(initial_total_elements);
  PERFBENCH_FIELD(max_total_elements);
  PERFBENCH_FIELD(final_total_elements);
  PERFBENCH_FIELD(sampling_attempts);
  PERFBENCH_FIELD(sampling_failures);
  PERFBENCH_FIELD(bookkeeping_touches_total);
  PERFBENCH_FIELD(last_round_bookkeeping_touches);
#undef PERFBENCH_FIELD
  return {};
}

std::string one_ok_per_id(std::span<const std::uint8_t> tally,
                          std::uint64_t other) {
  if (other != 0) {
    return fmt("service: %g answers were not ok or named an unknown id",
               static_cast<double>(other));
  }
  for (std::size_t id = 0; id < tally.size(); ++id) {
    if (tally[id] != 1) {
      return fmt(tally[id] ? "service: id %g answered %g times"
                           : "service: id %g never answered",
                 static_cast<double>(id), static_cast<double>(tally[id]));
    }
  }
  return {};
}

int selftest(bool verbose) {
  int wrong = 0;
  auto expect = [&](const char* name, const std::string& verdict,
                    bool want_ok) {
    const bool ok = verdict.empty();
    if (ok != want_ok) {
      ++wrong;
      std::fprintf(stderr, "selftest: %s: %s\n", name,
                   want_ok ? ("valid answer rejected: " + verdict).c_str()
                           : "perturbed answer accepted");
    } else if (verbose) {
      std::fprintf(stderr, "selftest: %-34s %s\n", name,
                   ok ? "accepted" : verdict.c_str());
    }
  };

  // Min-disk fixture: three boundary points 120 degrees apart (the center
  // is inside their triangle) plus interior points.
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const Vec2 c{0.3, -0.2};
  const double r = 2.0;
  auto on_circle = [&](double deg, double rad) {
    const double a = deg * 3.14159265358979323846 / 180.0;
    return Vec2{c.x + rad * std::cos(a), c.y + rad * std::sin(a)};
  };
  std::vector<Vec2> pts = {on_circle(10, r), on_circle(130, r),
                           on_circle(250, r)};
  while (pts.size() < 200) {
    pts.push_back(on_circle(360 * unit(gen), 0.9 * r * unit(gen)));
  }
  const std::vector<Vec2> basis(pts.begin(), pts.begin() + 3);
  expect("min-disk valid", min_disk(pts, c, r, basis), true);
  expect("min-disk radius shrunk",
         min_disk(pts, c, r * (1 - 1e-6), basis), false);
  expect("min-disk radius grown", min_disk(pts, c, r * (1 + 1e-6), basis),
         false);
  {
    std::vector<Vec2> moved = pts;
    moved[10] = on_circle(77, 1.01 * r);
    expect("min-disk point moved outside", min_disk(moved, c, r, basis),
           false);
  }
  {
    const std::vector<Vec2> loose = {pts[5], pts[1], pts[2]};
    expect("min-disk non-tight basis point", min_disk(pts, c, r, loose),
           false);
  }
  {
    const std::vector<Vec2> foreign = {on_circle(11, r), pts[1], pts[2]};
    expect("min-disk basis not an input", min_disk(pts, c, r, foreign),
           false);
  }
  {
    // Two boundary points that are not diametral: the center is outside
    // their hull, so a smaller disk through them exists.
    const std::vector<Vec2> pair = {pts[0], pts[1]};
    expect("min-disk center outside hull", min_disk(pts, c, r, pair), false);
  }
  {
    std::vector<Vec2> duo = {on_circle(40, r), on_circle(220, r)};
    for (std::size_t i = 3; i < 50; ++i) duo.push_back(pts[i]);
    const std::vector<Vec2> duo_basis(duo.begin(), duo.begin() + 2);
    expect("min-disk valid (diametral pair)", min_disk(duo, c, r, duo_basis),
           true);
  }

  // lp2d fixture: a generated instance with its planted vertex.
  lpt::util::Rng rng(11);
  const auto inst = lpt::workloads::generate_lp_instance(64, rng);
  const double v = inst.objective.x * inst.optimum.x +
                   inst.objective.y * inst.optimum.y;
  expect("lp2d valid", lp2d(inst.constraints, inst.objective, inst.optimum, v,
                            inst.optimum),
         true);
  {
    // Minimizing y: a step down from the apex leaves the V.
    const Vec2 down{inst.optimum.x, inst.optimum.y - 1e-3};
    expect("lp2d point nudged infeasible",
           lp2d(inst.constraints, inst.objective, down, v, inst.optimum),
           false);
    const Vec2 up{inst.optimum.x, inst.optimum.y + 1e-3};
    expect("lp2d feasible non-optimal point",
           lp2d(inst.constraints, inst.objective, up, v, inst.optimum),
           false);
    expect("lp2d wrong objective value",
           lp2d(inst.constraints, inst.objective, inst.optimum, v + 1e-3,
                inst.optimum),
           false);
  }

  // Engine bounds.
  expect("rounds within bound", rounds_bound(11, 3, 1 << 16), true);
  expect("rounds over bound", rounds_bound(97, 3, 1 << 16), false);
  expect("rounds zero", rounds_bound(0, 3, 1 << 16), false);
  expect("load within bound", load_bound(400, 100), true);
  expect("load over bound", load_bound(401, 100), false);

  // Sharded-vs-serial stats identity.
  lpt::core::DistributedRunStats s;
  s.rounds_to_first = 11;
  s.reached_optimum = true;
  s.max_work_per_round = 160;
  s.total_pull_ops = 12345;
  expect("stats identical", same_stats(s, s), true);
  {
    auto t = s;
    t.max_work_per_round += 1;
    expect("stats field differs", same_stats(s, t), false);
  }

  // Service id accounting.
  const std::vector<std::uint8_t> once(5, 1);
  expect("service ids valid", one_ok_per_id(once, 0), true);
  {
    std::vector<std::uint8_t> t = once;
    t[2] = 0;
    expect("service dropped id", one_ok_per_id(t, 0), false);
    t[2] = 2;
    expect("service duplicated id", one_ok_per_id(t, 0), false);
    t[2] = 0;
    expect("service non-ok status", one_ok_per_id(t, 1), false);
    expect("service unknown id", one_ok_per_id(once, 1), false);
  }
  return wrong;
}

}  // namespace perfbench::check
