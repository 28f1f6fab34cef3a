#include "repart/repartition.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <mutex>

#include "core/balanced_kmeans.hpp"
#include "geometry/box.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace geo::repart {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Warm-start when the probed center drift is at most this fraction of the
/// expected cluster radius; fall back to the cold pipeline otherwise.
constexpr double kDriftThresholdFactor = 0.25;
/// Number of points the drift probe samples (deterministic stride).
constexpr std::int64_t kProbeSample = 4096;

/// Sampled Lloyd half-step against the previous (centers, influence):
/// returns max_c dist(centroid_c, center_c) / expected cluster radius.
/// Serial and cheap — O(sample · k) — so it runs before the SPMD machine
/// spins up.
template <int D>
double probeDrift(std::span<const Point<D>> points, std::span<const double> weights,
                  const RepartState<D>& state) {
    const auto k = state.centers.size();
    const auto n = static_cast<std::int64_t>(points.size());
    // Keep ≥ 8 expected sample points per cluster even at large k, so the
    // stranded-center detection below never silently disarms. Floor-divided
    // stride guarantees sampled ≥ probeSample whenever n ≥ probeSample (at
    // the cost of at most 2·probeSample samples).
    const std::int64_t probeSample =
        std::max<std::int64_t>(kProbeSample, 8 * static_cast<std::int64_t>(k));
    const std::int64_t stride = std::max<std::int64_t>(1, n / probeSample);

    // The cluster-scale normalization only needs the bounding box of the
    // sample — a full pass over the points would defeat the probe's
    // O(sample · k) budget.
    Box<D> bb = Box<D>::empty();
    for (std::int64_t i = 0; i < n; i += stride) bb.extend(points[static_cast<std::size_t>(i)]);
    const double clusterScale =
        core::expectedClusterRadius(bb.diagonal(), static_cast<std::int32_t>(k), D);
    // Degenerate sample (all points coincide): drift is unmeasurable, and
    // the old centers may be arbitrarily stale — fall back cold.
    if (clusterScale <= 0.0) return kInf;

    std::vector<double> sums(k * (D + 1), 0.0);
    std::vector<double> minRawDist(k, kInf);  // for the stranded-center test
    for (std::int64_t i = 0; i < n; i += stride) {
        const auto& pt = points[static_cast<std::size_t>(i)];
        double best = kInf;
        std::size_t bestC = 0;
        for (std::size_t c = 0; c < k; ++c) {
            const double raw = distance(pt, state.centers[c]);
            minRawDist[c] = std::min(minRawDist[c], raw);
            const double eDist = raw / state.influence[c];
            if (eDist < best) {
                best = eDist;
                bestC = c;
            }
        }
        const double w = weights.empty() ? 1.0 : weights[static_cast<std::size_t>(i)];
        for (int d = 0; d < D; ++d) sums[bestC * (D + 1) + static_cast<std::size_t>(d)] += w * pt[d];
        sums[bestC * (D + 1) + D] += w;
    }

    double maxDrift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
        const double w = sums[c * (D + 1) + D];
        if (w <= 0.0) {
            // A cluster that wins no sampled point has two very different
            // causes:
            //   * its center is stranded in vacated space — the one
            //     situation influence adaptation (capped at 5% per sweep)
            //     recovers from slowly, exactly what the cold fallback
            //     exists for, or
            //   * the cluster is weight-heavy but point-sparse (k-means
            //     balances by WEIGHT, the stride sample is by COUNT),
            //     which is healthy.
            // Geometry separates them: a stranded center is far from every
            // sampled point; a heavy cluster's center sits inside the
            // cloud. Only the stranded case reports infinite drift → cold.
            if (minRawDist[c] > clusterScale) return kInf;
            continue;
        }
        Point<D> centroid;
        for (int d = 0; d < D; ++d) centroid[d] = sums[c * (D + 1) + static_cast<std::size_t>(d)] / w;
        maxDrift = std::max(maxDrift, distance(centroid, state.centers[c]));
    }
    return maxDrift / clusterScale;
}

/// Warm SPMD body: block-distribute the points in input order (standing in
/// for "points stay where the previous partition left them"), then resume
/// balanced k-means from the previous centers and influence. No Hilbert
/// indexing, no sample sort, no redistribution — the phases the warm path
/// exists to skip.
template <int D>
void warmBody(par::Comm& comm, std::span<const Point<D>> points,
              std::span<const double> weights, const core::Settings& settings,
              const RepartState<D>& state, core::GeographerResult& result,
              std::mutex& resultMutex) {
    const auto n = static_cast<std::int64_t>(points.size());
    const int p = comm.size();
    const int r = comm.rank();
    const double cpuStart = comm.cpuSeconds();
    const double commStart = comm.stats().modeledCommSeconds;

    const auto [lo, hi] = par::blockRange(n, r, p);
    // Contiguous views — no copy; the spans outlive the SPMD run.
    const auto localPoints = points.subspan(static_cast<std::size_t>(lo),
                                            static_cast<std::size_t>(hi - lo));
    const auto localWeights =
        weights.empty() ? weights
                        : weights.subspan(static_cast<std::size_t>(lo),
                                          static_cast<std::size_t>(hi - lo));

    Timer timer;
    core::Settings warm = settings;
    // The carried-over centers already cover the full cloud; sampled
    // (re-)initialization would only delay the resumed convergence.
    warm.sampledInitialization = false;
    warm.initialInfluence = state.influence;
    auto outcome = core::balancedKMeans<D>(comm, localPoints, localWeights,
                                           state.centers, warm);
    const double kmeansSeconds = timer.seconds();

    const double pipelineScore = (comm.cpuSeconds() - cpuStart) +
                                 (comm.stats().modeledCommSeconds - commStart);
    const double pipelineMax = comm.allreduceMax(pipelineScore);

    // Rank slices are contiguous in input order, so the rank-ordered
    // concatenation of local assignments IS the global partition.
    const auto all =
        comm.allgatherv(std::span<const std::int32_t>(outcome.assignment));

    const double kmeansMax = comm.allreduceMax(kmeansSeconds);
    std::array<double, 2> subPhaseMax{outcome.assignSeconds, outcome.updateSeconds};
    comm.allreduceMax(std::span<double>(subPhaseMax.data(), subPhaseMax.size()));
    core::detail::storeKMeansDiagnostics<D>(comm, outcome, result, resultMutex);

    if (comm.isRoot()) {
        const std::lock_guard<std::mutex> lock(resultMutex);
        result.partition = all;
        result.phaseSeconds["kmeans"] = kmeansMax;
        result.phaseSeconds["assign"] = subPhaseMax[0];
        result.phaseSeconds["update"] = subPhaseMax[1];
        result.modeledSeconds = pipelineMax;
    }
    // Cross-process runs have no shared result object: hand every rank the
    // root's assembled copy (no-op on the simulator). The carried-over
    // RepartState below is rebuilt from these replicated fields, so every
    // worker process enters the next step with identical warm state.
    core::detail::replicateResult(comm, result, resultMutex);
}

}  // namespace

template <int D>
RepartResult<D> repartitionGeographer(std::span<const Point<D>> points,
                                      std::span<const double> weights, std::int32_t k,
                                      int ranks, const core::Settings& settings,
                                      RepartState<D>& state, const RepartOptions& options,
                                      par::CostModel model) {
    GEO_REQUIRE(k >= 1, "need at least one block");
    GEO_REQUIRE(static_cast<std::int64_t>(points.size()) >= k, "need at least k points");
    GEO_REQUIRE(weights.empty() || weights.size() == points.size(),
                "weights must be empty or match points");
    GEO_REQUIRE(!(options.forceCold && options.forceWarm),
                "forceCold and forceWarm are mutually exclusive");

    RepartResult<D> out;
    double probeSeconds = 0.0;
    bool warm = false;
    if (!options.forceCold && state.warmable(k)) {
        if (options.forceWarm) {
            warm = true;
        } else {
            Timer probeTimer;
            out.normalizedDrift = probeDrift<D>(points, weights, state);
            probeSeconds = probeTimer.seconds();
            warm = *out.normalizedDrift <= kDriftThresholdFactor;
        }
    }

    if (warm) {
        std::mutex resultMutex;
        par::Machine machine(ranks, model, settings.resolvedTransport());
        out.result.runStats = machine.run([&](par::Comm& comm) {
            warmBody<D>(comm, points, weights, settings, state, out.result, resultMutex);
        });
        out.warmStarted = true;
        for (const auto b : out.result.partition)
            GEO_CHECK(b >= 0 && b < k, "every point must be assigned a block");
    } else {
        out.result = core::partitionGeographer<D>(points, weights, k, ranks, settings, model);
        out.warmStarted = false;
    }
    // The probe is a real per-step cost of the warm strategy: fold it into
    // the modeled pipeline time so warm-vs-cold comparisons stay honest.
    // Recorded only when the probe actually ran — a phase entry of 0 would
    // be indistinguishable from a probe that was skipped (forced paths, no
    // usable state).
    if (out.normalizedDrift.has_value()) {
        out.result.phaseSeconds["probe"] = probeSeconds;
        out.result.modeledSeconds += probeSeconds;
    }

    // Carry this step's state to the next call.
    state.centers = core::unflattenCenters<D>(out.result.centerCoords);
    state.influence = out.result.influence;
    return out;
}

template RepartResult<2> repartitionGeographer<2>(std::span<const Point2>,
                                                  std::span<const double>, std::int32_t, int,
                                                  const core::Settings&, RepartState<2>&,
                                                  const RepartOptions&, par::CostModel);
template RepartResult<3> repartitionGeographer<3>(std::span<const Point3>,
                                                  std::span<const double>, std::int32_t, int,
                                                  const core::Settings&, RepartState<3>&,
                                                  const RepartOptions&, par::CostModel);

}  // namespace geo::repart
