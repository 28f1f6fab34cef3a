// Geographer: the end-to-end partitioner (§4.1, §4.5, Algorithm 2).
//
// Pipeline per SPMD rank:
//   1. compute Hilbert indices of the local points      (phase "hilbert")
//   2. global sample sort + redistribution by index      (phase "redistribute")
//   3. seed k centers equidistantly along the curve
//   4. balanced k-means                                  (phase "kmeans")
//
// The phase split matches the component breakdown the paper reports in
// §5.3.2. The number of blocks k is independent of the number of ranks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "core/balanced_kmeans.hpp"
#include "core/settings.hpp"
#include "graph/metrics.hpp"
#include "par/comm.hpp"

namespace geo::core {

struct GeographerResult {
    /// Block per original (input-order) point.
    graph::Partition partition;
    double imbalance = 0.0;
    bool converged = false;
    /// Loop counters over all ranks: the kSummedCounters summed, the
    /// kMaxedCounters store marks maxed (the worst rank's store).
    KMeansCounters counters;
    /// Per-phase wall time, max over ranks: "hilbert", "redistribute",
    /// "kmeans", plus the k-means sub-phases "assign" (assignment sweeps)
    /// and "update" (center-update reductions).
    std::map<std::string, double> phaseSeconds;
    /// Aggregate runtime statistics of the SPMD run (modeled comm time,
    /// bytes, per-rank CPU time). Includes the closing result collectives.
    par::RunStats runStats;
    /// Modeled parallel time of the partitioning pipeline alone (max-rank
    /// CPU + modeled comm up to the end of k-means, excluding the closing
    /// result collectives) — the number comparable to the paper's timings.
    double modeledSeconds = 0.0;
    /// Final replicated k-means centers, flattened row-major (k × D) so the
    /// result type stays dimension-agnostic. Together with `influence` this
    /// is the warm-start state consumed by repart::repartitionGeographer.
    std::vector<double> centerCoords;
    /// Final replicated influence values (one per block).
    std::vector<double> influence;
    /// Influence values the final assignment sweep used: `partition` is an
    /// exact multiplicatively-weighted Voronoi partition of (centerCoords,
    /// assignmentInfluence). Equal to `influence` unless the last balance
    /// loop exhausted maxBalanceIterations (see KMeansOutcome). Consumed by
    /// the online serving subsystem (src/serve) so published snapshots
    /// reproduce the partition bitwise.
    std::vector<double> assignmentInfluence;
};

/// Unflatten row-major (k × D) center coordinates (the
/// GeographerResult::centerCoords layout) back into Point form — the layout
/// repart::RepartState and serve::PartitionSnapshot consume.
template <int D>
[[nodiscard]] inline std::vector<Point<D>> unflattenCenters(
    std::span<const double> coords) {
    std::vector<Point<D>> centers(coords.size() / static_cast<std::size_t>(D));
    for (std::size_t c = 0; c < centers.size(); ++c)
        for (int d = 0; d < D; ++d)
            centers[c][d] = coords[c * static_cast<std::size_t>(D) +
                                   static_cast<std::size_t>(d)];
    return centers;
}

/// Partition `points` into k blocks with `ranks` SPMD ranks: simulated, or
/// the geo_launch worker processes when `ranks` is their count
/// (par::Machine). `weights` may be empty (unit weights).
template <int D>
GeographerResult partitionGeographer(std::span<const Point<D>> points,
                                     std::span<const double> weights, std::int32_t k,
                                     int ranks, const Settings& settings,
                                     par::CostModel model = {});

extern template GeographerResult partitionGeographer<2>(std::span<const Point2>,
                                                        std::span<const double>, std::int32_t,
                                                        int, const Settings&, par::CostModel);
extern template GeographerResult partitionGeographer<3>(std::span<const Point3>,
                                                        std::span<const double>, std::int32_t,
                                                        int, const Settings&, par::CostModel);

namespace detail {

/// Whether every coordinate and weight is finite: a value precondition of
/// both partition entry points (this one and repart::repartitionGeographer),
/// checked before any SPMD run starts, and of the serving lookups and churn
/// ingest (src/serve). A NaN or infinite value has no effective distance to
/// compare, and would surface deep in the assignment kernel as an internal
/// error instead.
template <int D>
[[nodiscard]] bool allFinite(std::span<const Point<D>> points,
                             std::span<const double> weights) {
    const auto finite = [](double v) { return std::isfinite(v); };
    return std::all_of(points.begin(), points.end(),
                       [&](const Point<D>& p) {
                           return std::all_of(p.x.begin(), p.x.end(), finite);
                       }) &&
           std::all_of(weights.begin(), weights.end(), finite);
}

/// The closing collective of both SPMD bodies (the cold pipeline here and
/// the warm path in src/repart). Three reductions, in this order: max over
/// [pipelineScore, phase seconds in map-key order], the sum of the
/// kSummedCounters and the max of the kMaxedCounters. Every other field it
/// stores is already replicated in `outcome`. On ranks that own the result
/// (par::ownsResult) it then sets modeledSeconds, phaseSeconds, counters,
/// imbalance, converged, centerCoords, influence and assignmentInfluence;
/// the partition gather stays with the caller. Every rank must enter it at
/// the same point, with the same phase names.
template <int D>
void finishRun(par::Comm& comm, const KMeansOutcome<D>& outcome,
               std::map<std::string, double> phases, double pipelineScore,
               GeographerResult& result);

extern template void finishRun<2>(par::Comm&, const KMeansOutcome<2>&,
                                  std::map<std::string, double>, double,
                                  GeographerResult&);
extern template void finishRun<3>(par::Comm&, const KMeansOutcome<3>&,
                                  std::map<std::string, double>, double,
                                  GeographerResult&);

}  // namespace detail

}  // namespace geo::core
