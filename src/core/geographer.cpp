#include "core/geographer.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "geometry/box.hpp"
#include "par/parallel_for.hpp"
#include "par/sort.hpp"
#include "sfc/hilbert.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace geo::core {

namespace {

template <int D>
struct PointRecord {
    std::int64_t gid;  ///< original input position
    Point<D> pt;
    double weight;
};

/// Initial-center contribution gathered from the curve-sorted distribution.
template <int D>
struct CenterSeed {
    std::int32_t index;
    Point<D> pt;
};

template <int D>
void spmdBody(par::Comm& comm, std::span<const Point<D>> points,
              std::span<const double> weights, std::int32_t k, const Settings& settings,
              GeographerResult& result) {
    using Rec = par::KeyedRecord<std::uint64_t, PointRecord<D>>;
    const auto n = static_cast<std::int64_t>(points.size());
    const int p = comm.size();
    const int r = comm.rank();
    // Baseline for the pipeline cost snapshot: on the serial fast path the
    // body runs on the caller's thread, whose CPU clock predates this call.
    const double cpuStart = comm.cpuSeconds();
    const double commStart = comm.stats().modeledCommSeconds;

    // Block distribution of the input, as if each rank had read its slice.
    const auto [lo, hi] = par::blockRange(n, r, p);
    const auto localCountIn = static_cast<std::size_t>(hi - lo);
    const auto localPoints = points.subspan(static_cast<std::size_t>(lo), localCountIn);
    const int threads = settings.resolvedThreads();

    // Phase 1: curve keys for the local slice (threaded bounds pass, global
    // bounding box via allreduce, threaded batch keying).
    Timer t1;
    const Box<D> globalBox = allreduceBox<D>(comm, sfc::boundsOf<D>(localPoints, threads));
    // Keying is fused into the record build through one tile-sized stack
    // buffer per worker (no n-wide key mirror): each worker keys a
    // kKeyTile-point span at a time and writes the records straight out.
    // Keys are pure per-point functions of (point, globalBox), so the
    // tiling changes neither the values nor their order.
    std::vector<Rec> records(localCountIn);
    par::parallelForTiled(
        threads, localCountIn, sfc::kKeyTile,
        [&](std::size_t i0, std::size_t i1, int) {
            std::array<std::uint64_t, sfc::kKeyTile> tileKeys;
            for (std::size_t t0 = i0; t0 < i1; t0 += sfc::kKeyTile) {
                const std::size_t t1 = std::min(i1, t0 + sfc::kKeyTile);
                const auto tilePoints = localPoints.subspan(t0, t1 - t0);
                const auto tileOut = std::span<std::uint64_t>(tileKeys.data(), t1 - t0);
                if (settings.curve == Curve::Hilbert)
                    sfc::hilbertIndicesInto<D>(tilePoints, globalBox, tileOut);
                else
                    sfc::mortonIndicesInto<D>(tilePoints, globalBox, tileOut);
                for (std::size_t i = t0; i < t1; ++i) {
                    const std::int64_t gid = lo + static_cast<std::int64_t>(i);
                    records[i] =
                        Rec{tileKeys[i - t0],
                            PointRecord<D>{gid, localPoints[i],
                                           weights.empty()
                                               ? 1.0
                                               : weights[static_cast<std::size_t>(gid)]}};
                }
            }
        });
    const std::uint64_t keyedPoints = localCountIn;
    const double hilbertSeconds = t1.seconds();

    // Phase 2: global sort by curve index + equalizing redistribution.
    Timer t2;
    records = par::sampleSort(comm, std::move(records), /*oversampling=*/16, threads);
    records = par::rebalanceSorted(comm, std::move(records));
    const auto sortedRecords = static_cast<std::uint64_t>(records.size());
    const double redistributeSeconds = t2.seconds();

    // Phase 3 + 4: curve seeding and balanced k-means.
    Timer t3;
    const auto localCount = static_cast<std::int64_t>(records.size());
    const std::int64_t before = comm.exscanSum(localCount);

    // Centers at global sorted positions i*n/k + n/(2k) (Alg. 2 line 7).
    std::vector<CenterSeed<D>> localSeeds;
    for (std::int32_t c = 0; c < k; ++c) {
        const std::int64_t pos =
            std::min(n - 1, (n * c) / k + n / (2 * static_cast<std::int64_t>(k)));
        if (pos >= before && pos < before + localCount) {
            localSeeds.push_back(
                CenterSeed<D>{c, records[static_cast<std::size_t>(pos - before)].value.pt});
        }
    }
    const auto allSeeds = comm.allgatherv(std::span<const CenterSeed<D>>(localSeeds));
    GEO_CHECK(static_cast<std::int32_t>(allSeeds.size()) == k,
              "every center position must be owned by exactly one rank");
    std::vector<Point<D>> centers(static_cast<std::size_t>(k));
    for (const auto& s : allSeeds) centers[static_cast<std::size_t>(s.index)] = s.pt;

    // Strip the sorted records into the k-means inputs (points, weights)
    // plus the gid map needed for the final gather, and free the records
    // before the k-means phase — keeping the keyed AoS mirror alive through
    // the whole solve would otherwise dominate the per-rank footprint.
    std::vector<Point<D>> localKmeansPoints;
    std::vector<double> localWeights;
    std::vector<std::int64_t> localGids;
    localKmeansPoints.reserve(records.size());
    localWeights.reserve(records.size());
    localGids.reserve(records.size());
    for (const auto& rec : records) {
        localKmeansPoints.push_back(rec.value.pt);
        localWeights.push_back(rec.value.weight);
        localGids.push_back(rec.value.gid);
    }
    records.clear();
    records.shrink_to_fit();

    auto outcome =
        balancedKMeans<D>(comm, localKmeansPoints, localWeights, std::move(centers), settings);
    outcome.counters.keyedPoints = keyedPoints;
    outcome.counters.sortedRecords = sortedRecords;
    const double kmeansSeconds = t3.seconds();

    // Snapshot the pipeline cost before the closing result collectives:
    // this is what the paper's running-time measurements cover.
    const double pipelineScore = (comm.cpuSeconds() - cpuStart) +
                                 (comm.stats().modeledCommSeconds - commStart);

    // Collect the global partition (by original input order).
    struct GidBlock {
        std::int64_t gid;
        std::int32_t block;
    };
    std::vector<GidBlock> mine;
    mine.reserve(localGids.size());
    for (std::size_t i = 0; i < localGids.size(); ++i)
        mine.push_back(GidBlock{localGids[i], outcome.assignment[i]});
    const auto all = comm.allgatherv(std::span<const GidBlock>(mine));
    if (par::ownsResult(comm)) {
        result.partition.assign(static_cast<std::size_t>(n), -1);
        for (const auto& gb : all)
            result.partition[static_cast<std::size_t>(gb.gid)] = gb.block;
    }
    // Built last: its nodes outlive the call in the result, and allocated
    // before the phases' large temporaries they fragment the heap (~20 MB
    // more resident memory in the serve-churn benchmark). "assign" and
    // "update" are the k-means sub-phases, for the thread-scaling breakdown.
    std::map<std::string, double> phases{{"hilbert", hilbertSeconds},
                                         {"redistribute", redistributeSeconds},
                                         {"kmeans", kmeansSeconds},
                                         {"assign", outcome.assignSeconds},
                                         {"update", outcome.updateSeconds}};
    detail::finishRun<D>(comm, outcome, std::move(phases), pipelineScore, result);
}

}  // namespace

namespace detail {

template <int D>
void finishRun(par::Comm& comm, const KMeansOutcome<D>& outcome,
               std::map<std::string, double> phases, double pipelineScore,
               GeographerResult& result) {
    std::vector<double> seconds{pipelineScore};
    for (const auto& phase : phases) seconds.push_back(phase.second);
    std::array<std::uint64_t, kSummedCounters.size()> sums;
    for (std::size_t i = 0; i < sums.size(); ++i)
        sums[i] = outcome.counters.*kSummedCounters[i];
    std::array<std::uint64_t, kMaxedCounters.size()> maxima;
    for (std::size_t i = 0; i < maxima.size(); ++i)
        maxima[i] = outcome.counters.*kMaxedCounters[i];
    comm.allreduceMax(std::span<double>(seconds));
    comm.allreduceSum(std::span<std::uint64_t>(sums));
    comm.allreduceMax(std::span<std::uint64_t>(maxima));
    if (!par::ownsResult(comm)) return;

    result.modeledSeconds = seconds[0];
    auto next = seconds.begin() + 1;
    for (auto& phase : phases) phase.second = *next++;
    result.phaseSeconds = std::move(phases);
    for (std::size_t i = 0; i < sums.size(); ++i)
        result.counters.*kSummedCounters[i] = sums[i];
    for (std::size_t i = 0; i < maxima.size(); ++i)
        result.counters.*kMaxedCounters[i] = maxima[i];
    result.counters.outerIterations = outcome.counters.outerIterations;
    result.imbalance = outcome.imbalance;
    result.converged = outcome.converged;
    const auto k = outcome.centers.size();
    result.centerCoords.resize(k * D);
    for (std::size_t c = 0; c < k; ++c)
        for (int d = 0; d < D; ++d)
            result.centerCoords[c * D + static_cast<std::size_t>(d)] =
                outcome.centers[c][d];
    result.influence = outcome.influence;
    result.assignmentInfluence = outcome.assignmentInfluence;
}

template void finishRun<2>(par::Comm&, const KMeansOutcome<2>&,
                           std::map<std::string, double>, double, GeographerResult&);
template void finishRun<3>(par::Comm&, const KMeansOutcome<3>&,
                           std::map<std::string, double>, double, GeographerResult&);

}  // namespace detail

template <int D>
GeographerResult partitionGeographer(std::span<const Point<D>> points,
                                     std::span<const double> weights, std::int32_t k,
                                     int ranks, const Settings& settings,
                                     par::CostModel model) {
    GEO_REQUIRE(k >= 1, "need at least one block");
    GEO_REQUIRE(!points.empty(), "need points to partition");
    GEO_REQUIRE(static_cast<std::int64_t>(points.size()) >= k,
                "need at least k points");
    GEO_REQUIRE(weights.empty() || weights.size() == points.size(),
                "weights must be empty or match points");
    GEO_REQUIRE(detail::allFinite<D>(points, weights),
                "point coordinates and weights must be finite");

    GeographerResult result;
    par::Machine machine(ranks, model);
    result.runStats = machine.run([&](par::Comm& comm) {
        spmdBody<D>(comm, points, weights, k, settings, result);
    });

    for (const auto b : result.partition)
        GEO_CHECK(b >= 0 && b < k, "every point must be assigned a block");
    return result;
}

template GeographerResult partitionGeographer<2>(std::span<const Point2>,
                                                 std::span<const double>, std::int32_t, int,
                                                 const Settings&, par::CostModel);
template GeographerResult partitionGeographer<3>(std::span<const Point3>,
                                                 std::span<const double>, std::int32_t, int,
                                                 const Settings&, par::CostModel);

}  // namespace geo::core
