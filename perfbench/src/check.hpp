// Answer checkers that do not depend on the program: they read the plain
// fields of the program's data (point coordinates, half-plane
// coefficients, stats counters) and redo every test in their own long
// double arithmetic, never through the repository's geometry, LP or
// predicate code.  Each returns an empty string when the answer holds and a
// description of the first violation otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/result.hpp"
#include "geometry/vec2.hpp"
#include "lp/halfplane.hpp"

namespace perfbench::check {

using lpt::geom::Vec2;
using lpt::lp::Halfplane;

/// Relative tolerance of every geometric test: distances compare within
/// kEps * (radius + 1), LP tests within kEps * (coefficient scale + 1).
inline constexpr long double kEps = 1e-9L;

/// The disk (center, radius) with support set `basis` is the smallest disk
/// enclosing `points`: every point lies within it, every basis point is an
/// input point on its boundary, and the center lies in the convex hull of
/// the basis (<= 3 points).  Boundary points whose hull holds the center
/// admit no smaller enclosing disk, so together these prove minimality.
std::string min_disk(std::span<const Vec2> points, Vec2 center, double radius,
                     std::span<const Vec2> basis);

/// `point` (objective value `value`) is feasible for every constraint and
/// is the vertex the instance generator planted as the unique optimum.
std::string lp2d(std::span<const Halfplane> planes, Vec2 objective,
                 Vec2 point, double value, Vec2 planted);

/// Theorems 3 and 4: rounds <= c * d * log2(n).
inline constexpr double kRoundsC = 2.0;
std::string rounds_bound(std::size_t rounds, std::size_t d, std::size_t n);

/// Lemma 9 (low load): |H(V)| never exceeds k * |H_0|.
inline constexpr double kLoadK = 4.0;
std::string load_bound(std::size_t max_elements, std::size_t initial);

/// The sharded run's stats equal the serial run's, field by field.
std::string same_stats(const lpt::core::DistributedRunStats& a,
                       const lpt::core::DistributedRunStats& b);

/// Every submitted id answered exactly once, with status ok.  `tally[id]`
/// counts the ok answers to query id (ids 0 .. tally.size() - 1 were
/// submitted); `other` counts answers that were not ok or named an id never
/// submitted.
std::string one_ok_per_id(std::span<const std::uint8_t> tally,
                          std::uint64_t other);

/// Feed every checker valid and perturbed answers; returns the number of
/// cases decided wrongly (a valid answer rejected or a perturbed one
/// accepted), printing each to stderr.
int selftest(bool verbose);

}  // namespace perfbench::check
