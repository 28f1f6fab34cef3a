#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "core/geographer.hpp"
#include "gen/delaunay2d.hpp"
#include "gen/delaunay3d.hpp"
#include "gen/grid.hpp"
#include "graph/metrics.hpp"
#include "support/rng.hpp"

namespace {

using geo::Point2;
using geo::core::partitionGeographer;
using geo::core::Settings;

TEST(Geographer, PartitionCoversAllPointsWithinBalance) {
    const auto mesh = geo::gen::delaunay2d(5000, 1);
    Settings s;
    const auto res = partitionGeographer<2>(mesh.points, {}, 8, 4, s);
    ASSERT_EQ(res.partition.size(), mesh.points.size());
    std::set<std::int32_t> used(res.partition.begin(), res.partition.end());
    EXPECT_EQ(used.size(), 8u);
    EXPECT_LE(geo::graph::imbalance(res.partition, 8), s.epsilon + 1e-9);
    EXPECT_LE(res.imbalance, s.epsilon + 1e-9);
}

class GeographerRankSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, GeographerRankSweep, ::testing::Values(1, 2, 5, 8));

TEST_P(GeographerRankSweep, RankCountDoesNotBreakBalance) {
    const int ranks = GetParam();
    const auto mesh = geo::gen::delaunay2d(3000, 2);
    Settings s;
    const auto res = partitionGeographer<2>(mesh.points, {}, 6, ranks, s);
    EXPECT_LE(geo::graph::imbalance(res.partition, 6), s.epsilon + 1e-9);
    // Phases were recorded.
    EXPECT_TRUE(res.phaseSeconds.count("hilbert"));
    EXPECT_TRUE(res.phaseSeconds.count("redistribute"));
    EXPECT_TRUE(res.phaseSeconds.count("kmeans"));
}

TEST(Geographer, BlocksMoreNumerousThanRanks) {
    // k is independent of the number of processes (paper §4.5).
    const auto mesh = geo::gen::delaunay2d(4000, 3);
    Settings s;
    const auto res = partitionGeographer<2>(mesh.points, {}, 16, 4, s);
    EXPECT_LE(geo::graph::imbalance(res.partition, 16), s.epsilon + 1e-9);
}

TEST(Geographer, BlocksFewerThanRanks) {
    const auto mesh = geo::gen::delaunay2d(2000, 4);
    Settings s;
    const auto res = partitionGeographer<2>(mesh.points, {}, 3, 8, s);
    EXPECT_LE(geo::graph::imbalance(res.partition, 3), s.epsilon + 1e-9);
}

TEST(Geographer, WeightedPartitionBalancesWeight) {
    const auto mesh = geo::gen::grid2d(60, 60);
    std::vector<double> w(mesh.points.size());
    // Strong weight gradient along x.
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = 1.0 + 9.0 * (mesh.points[i][0] / 59.0);
    Settings s;
    s.epsilon = 0.05;
    s.maxIterations = 80;
    const auto res = partitionGeographer<2>(mesh.points, w, 6, 2, s);
    EXPECT_LE(geo::graph::imbalance(res.partition, 6, w), s.epsilon + 1e-9);
    // Unweighted sizes must differ: heavy blocks hold fewer points.
    std::vector<std::int64_t> counts(6, 0);
    for (const auto b : res.partition) counts[static_cast<std::size_t>(b)]++;
    EXPECT_GT(*std::max_element(counts.begin(), counts.end()),
              *std::min_element(counts.begin(), counts.end()));
}

TEST(Geographer, ProducesCompactBlocksOnGrid) {
    // On a uniform grid, k-means blocks must be connected and compact —
    // the shape-optimization claim of the paper (far fewer disconnected
    // blocks than arbitrary assignments).
    const auto mesh = geo::gen::grid2d(50, 50);
    Settings s;
    const auto res = partitionGeographer<2>(mesh.points, {}, 5, 2, s);
    const auto m = geo::graph::evaluatePartition(mesh.graph, res.partition, 5);
    EXPECT_EQ(m.disconnectedBlocks, 0);
    EXPECT_EQ(m.emptyBlocks, 0);
    // A 5-block partition of a 50x50 grid should cut far fewer than the
    // worst case; generous sanity bound.
    EXPECT_LT(m.edgeCut, 500);
}

TEST(Geographer, WorksIn3d) {
    const auto mesh = geo::gen::delaunay3d(2500, 5);
    Settings s;
    const auto res = partitionGeographer<3>(mesh.points, {}, 6, 3, s);
    EXPECT_LE(geo::graph::imbalance(res.partition, 6), s.epsilon + 1e-9);
    const auto m = geo::graph::evaluatePartition(mesh.graph, res.partition, 6);
    EXPECT_EQ(m.emptyBlocks, 0);
}

TEST(Geographer, DeterministicAcrossRankCounts) {
    // The partition depends on the rank count (different local samples),
    // but each configuration must be reproducible.
    const auto mesh = geo::gen::delaunay2d(2000, 6);
    Settings s;
    const auto a = partitionGeographer<2>(mesh.points, {}, 4, 3, s);
    const auto b = partitionGeographer<2>(mesh.points, {}, 4, 3, s);
    EXPECT_EQ(a.partition, b.partition);
}

TEST(Geographer, CountersAreAggregated) {
    const auto mesh = geo::gen::delaunay2d(3000, 7);
    Settings s;
    const auto res = partitionGeographer<2>(mesh.points, {}, 8, 4, s);
    // Each point is keyed once and owned by one rank after the sort, so the
    // cross-rank sums are exact.
    const auto n = static_cast<std::uint64_t>(mesh.points.size());
    EXPECT_EQ(res.counters.keyedPoints, n);
    EXPECT_EQ(res.counters.sortedRecords, n);
    EXPECT_GT(res.counters.pointEvaluations, 0u);
    EXPECT_GT(res.counters.distanceCalcs, 0u);
    EXPECT_GT(res.counters.balanceIterations, 0u);
    EXPECT_GT(res.counters.outerIterations, 0);
}

TEST(Geographer, RunStatsTrackCommunication) {
    const auto mesh = geo::gen::delaunay2d(2000, 8);
    Settings s;
    const auto res = partitionGeographer<2>(mesh.points, {}, 4, 4, s);
    EXPECT_GT(res.runStats.totalBytes, 0u);
    EXPECT_GT(res.runStats.collectives, 0u);
    EXPECT_GT(res.runStats.maxModeledCommSeconds, 0.0);
}

TEST(Geographer, RejectsBadArguments) {
    const auto mesh = geo::gen::delaunay2d(100, 9);
    Settings s;
    EXPECT_THROW((void)partitionGeographer<2>(mesh.points, {}, 0, 1, s),
                 std::invalid_argument);
    EXPECT_THROW((void)partitionGeographer<2>(mesh.points, {}, 200, 1, s),
                 std::invalid_argument);
    EXPECT_THROW((void)partitionGeographer<2>(std::span<const Point2>{}, {}, 1, 1, s),
                 std::invalid_argument);
}

TEST(Geographer, RejectsNonFiniteInput) {
    // One bad value among 4,000 points, in either coordinate or in a weight,
    // fails the precondition before any SPMD run; unchecked, a NaN or +inf
    // coordinate reached the assignment kernel, which found no center for it.
    geo::Xoshiro256 rng(263);
    std::vector<Point2> points(4000);
    for (auto& p : points) p = Point2{{rng.uniform(), rng.uniform()}};
    Settings s;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {kNaN, kInf, -kInf}) {
        for (const int d : {0, 1}) {
            auto withBad = points;
            withBad[1234][d] = bad;
            EXPECT_THROW((void)partitionGeographer<2>(withBad, {}, 8, 2, s),
                         std::invalid_argument)
                << bad << " in coordinate " << d;
        }
    }
    std::vector<double> weights(points.size(), 1.0);
    weights[1234] = kNaN;
    EXPECT_THROW((void)partitionGeographer<2>(points, weights, 8, 2, s),
                 std::invalid_argument);
}

TEST(Geographer, NonUniformTargetsReportCorrectImbalance) {
    // Regression for the metric bug: runs with Settings::targetFractions
    // used to be evaluated against the uniform ceil(W/k) denominator, so a
    // partition that hit its 60/25/15 target dead-on reported ~80%
    // imbalance. End-to-end: partition, then evaluate with the
    // fraction-aware overload.
    const auto mesh = geo::gen::delaunay2d(5000, 11);
    Settings s;
    s.targetFractions = {0.6, 0.25, 0.15};
    s.epsilon = 0.05;
    s.maxIterations = 80;
    const auto res = partitionGeographer<2>(mesh.points, {}, 3, 2, s);
    // The partitioner's own (fraction-aware) imbalance met epsilon...
    EXPECT_LE(res.imbalance, s.epsilon + 1e-9);
    // ...and the fraction-aware metric agrees with it.
    const auto imb =
        geo::graph::imbalance(res.partition, 3, {}, s.targetFractions);
    EXPECT_NEAR(imb, res.imbalance, 1e-9);
    EXPECT_LE(imb, s.epsilon + 1e-9);
    // The uniform metric on the same partition is far off target — the
    // bogus number previously reported.
    EXPECT_GT(geo::graph::imbalance(res.partition, 3), 0.5);
    // evaluatePartition plumbs the fractions through to its imbalance.
    const auto m = geo::graph::evaluatePartition(mesh.graph, res.partition, 3, {},
                                                 false, s.targetFractions);
    EXPECT_NEAR(m.imbalance, imb, 1e-12);
}

TEST(Geographer, EpsilonVariantsAreRespected) {
    const auto mesh = geo::gen::delaunay2d(4000, 10);
    for (const double eps : {0.03, 0.05}) {
        Settings s;
        s.epsilon = eps;
        const auto res = partitionGeographer<2>(mesh.points, {}, 10, 2, s);
        EXPECT_LE(geo::graph::imbalance(res.partition, 10), eps + 1e-9)
            << "epsilon " << eps;
    }
}

}  // namespace
