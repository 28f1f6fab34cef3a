// Balanced k-means — the paper's core contribution (§4, Algorithms 1 & 2).
//
// Lloyd's algorithm extended with:
//   * per-cluster *influence* values; points are assigned to the cluster
//     minimizing the effective distance dist(p, center(c)) / influence(c)
//     (a multiplicatively-weighted Voronoi assignment),
//   * influence adaptation after every assignment sweep, scaled by the
//     d-th root of the size ratio (Eq. 1) and capped at ±5% per step,
//   * influence erosion towards 1 when centers move (Eq. 2–3),
//   * Hamerly distance bounds adapted to effective distances (Eq. 4–5),
//   * bounding-box pruning of candidate centers (§4.4),
//   * sampled initialization rounds (§4.5).
//
// SPMD: each rank holds a subset of the points; centers, influence values
// and global block sizes are replicated via allreduce — the only
// communication, exactly as in the paper.
//
// The assignment sweep itself (and the lazy epoch-based variant of the
// Hamerly bound maintenance) lives in core/assign_kernel.hpp; this file
// owns the outer Lloyd/balance loops, influence adaptation and erosion.
//
// Note on Eq. 1/4/5 signs: the paper's printed formulas are dimensionally
// inconsistent with its own prose (e.g. Eq. 4 *lowers* the upper bound when
// a center moves). We implement the semantics the prose describes; see
// DESIGN.md "Key design decisions".
#pragma once

#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "core/settings.hpp"
#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "par/comm.hpp"

namespace geo::core {

/// Expected cluster radius `bbox diagonal / k^(1/d)` — the shared length
/// scale of the k-means convergence test (balanced_kmeans.cpp) and the
/// repartitioning drift probe (repart/repartition.cpp).
[[nodiscard]] inline double expectedClusterRadius(double bboxDiagonal, std::int32_t k,
                                                  int dim) noexcept {
    return bboxDiagonal /
           std::pow(static_cast<double>(k), 1.0 / static_cast<double>(dim));
}

/// Bounding box of every rank's points from each rank's local box (invalid
/// on a rank without points): one allreduceMin over [lo, −hi], 2·D doubles.
template <int D>
[[nodiscard]] Box<D> allreduceBox(par::Comm& comm, const Box<D>& local) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::array<double, 2 * D> lohi;
    for (int d = 0; d < D; ++d) {
        lohi[static_cast<std::size_t>(d)] = local.valid() ? local.lo[d] : kInf;
        lohi[static_cast<std::size_t>(D + d)] = local.valid() ? -local.hi[d] : kInf;
    }
    comm.allreduceMin(std::span<double>(lohi));
    Box<D> global;
    for (int d = 0; d < D; ++d) {
        global.lo[d] = lohi[static_cast<std::size_t>(d)];
        global.hi[d] = -lohi[static_cast<std::size_t>(D + d)];
    }
    return global;
}

template <int D>
struct KMeansOutcome {
    std::vector<std::int32_t> assignment;  ///< block per *local* point
    std::vector<Point<D>> centers;         ///< final replicated centers
    std::vector<double> influence;         ///< final replicated influence
    /// Influence values the *final assignment sweep* used: `assignment` is an
    /// exact multiplicatively-weighted Voronoi partition of (centers,
    /// assignmentInfluence). Equal to `influence` whenever the last balance
    /// loop broke on imbalance <= epsilon; they differ when the loop
    /// exhausted maxBalanceIterations, because influence adaptation runs
    /// once more *after* the final sweep (that post-adapt state is the right
    /// warm start for the next timestep, but not the state the assignment
    /// was computed against). The online serving subsystem (src/serve)
    /// snapshots this pair to reproduce the assignment bitwise.
    std::vector<double> assignmentInfluence;
    double imbalance = 0.0;                ///< achieved global imbalance
    bool converged = false;                ///< center movement below threshold
    KMeansCounters counters;               ///< this rank's loop counters
    /// Wall-time split of the k-means loop on this rank: the
    /// assign-and-balance sweeps vs the center-update reductions (incl.
    /// their allreduces) — the phase granularity the thread-scaling bench
    /// reports.
    double assignSeconds = 0.0;
    double updateSeconds = 0.0;
};

/// Run balanced k-means on the rank-local `points` with replicated initial
/// `centers` (identical on every rank). `weights` may be empty (unit).
template <int D>
KMeansOutcome<D> balancedKMeans(par::Comm& comm, std::span<const Point<D>> points,
                                std::span<const double> weights,
                                std::vector<Point<D>> centers, const Settings& settings);

extern template KMeansOutcome<2> balancedKMeans<2>(par::Comm&, std::span<const Point2>,
                                                   std::span<const double>,
                                                   std::vector<Point2>, const Settings&);
extern template KMeansOutcome<3> balancedKMeans<3>(par::Comm&, std::span<const Point3>,
                                                   std::span<const double>,
                                                   std::vector<Point3>, const Settings&);

}  // namespace geo::core
