// Dynamic repartitioning: warm-started balanced k-means across timesteps.
//
// Balanced k-means is uniquely suited to repartitioning: the centers and
// influence values of step t are a near-optimal starting state for step t+1,
// unlike RCB/HSFC whose cut structure must be recomputed from scratch. The
// entry point here decides per step between
//   * the WARM path — skip the Hilbert sort/redistribute phases entirely and
//     run balanced k-means directly on the (block-distributed) new points,
//     starting from the previous centers and influence, and
//   * the COLD path — the full partitionGeographer pipeline — whenever the
//     workload moved too far for the old state to help (probed center drift
//     above 0.25 expected cluster radii), or no previous state exists.
// The drift probe is a cheap sampled Lloyd half-step: assign a deterministic
// sample of the new points to the old (center, influence) state, measure how
// far each cluster's centroid moved, and normalize by the expected cluster
// radius (bbox diagonal / k^(1/d) — the same scale the convergence test
// uses). See DESIGN.md "Dynamic repartitioning".
#pragma once

#include <optional>
#include <span>

#include "core/geographer.hpp"
#include "core/settings.hpp"
#include "par/comm.hpp"
#include "par/cost_model.hpp"

namespace geo::repart {

/// Warm-start state carried between timesteps: the replicated (centers,
/// influence) pair of the previous run. Default-constructed = no state yet
/// (first call runs cold).
template <int D>
struct RepartState {
    std::vector<Point<D>> centers;
    std::vector<double> influence;

    /// Usable to warm-start a k-block run?
    [[nodiscard]] bool warmable(std::int32_t k) const noexcept {
        return static_cast<std::int32_t>(centers.size()) == k &&
               influence.size() == centers.size();
    }
};

struct RepartOptions {
    /// Force the cold pipeline regardless of drift (re-partition baseline).
    bool forceCold = false;
    /// Force the warm path whenever state is available (skips the probe).
    bool forceWarm = false;
};

template <int D>
struct RepartResult {
    core::GeographerResult result;
    /// True when the Hilbert sort/redistribute phases were skipped and
    /// k-means resumed from the previous (centers, influence).
    bool warmStarted = false;
    /// Probed max center drift over clusters, normalized by the expected
    /// cluster radius. Empty when the probe did not run (no usable state,
    /// forceWarm, or forceCold) — "not measured" is distinguishable from
    /// "measured zero drift". The probe ran iff this is set, and iff
    /// result.phaseSeconds contains a "probe" entry.
    std::optional<double> normalizedDrift;
};

/// Partition the new timestep's `points` into k blocks on `ranks` simulated
/// MPI processes, warm-starting from `state` when profitable. On return,
/// `state` holds this step's final centers and influence for the next call.
template <int D>
RepartResult<D> repartitionGeographer(std::span<const Point<D>> points,
                                      std::span<const double> weights, std::int32_t k,
                                      int ranks, const core::Settings& settings,
                                      RepartState<D>& state,
                                      const RepartOptions& options = {},
                                      par::CostModel model = {});

extern template RepartResult<2> repartitionGeographer<2>(
    std::span<const Point2>, std::span<const double>, std::int32_t, int,
    const core::Settings&, RepartState<2>&, const RepartOptions&, par::CostModel);
extern template RepartResult<3> repartitionGeographer<3>(
    std::span<const Point3>, std::span<const double>, std::int32_t, int,
    const core::Settings&, RepartState<3>&, const RepartOptions&, par::CostModel);

}  // namespace geo::repart
