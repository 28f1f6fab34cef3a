// Whole-pipeline thread-determinism suite: every entry point must produce
// bitwise-identical results at Settings::threads = 1, 2, 4, 8 — assignments,
// centers, influence, imbalance AND every evaluatePartition metric field.
// This is the enforcement of DESIGN.md "Threading model": threaded phases
// split work at fixed block boundaries and reduce partials in block order,
// so the thread count can never leak into a result.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/geographer.hpp"
#include "gen/delaunay2d.hpp"
#include "graph/metrics.hpp"
#include "hier/hier_partition.hpp"
#include "hier/topology.hpp"
#include "repart/repartition.hpp"
#include "support/rng.hpp"

namespace {

using geo::Point2;
using geo::Xoshiro256;
using geo::core::GeographerResult;
using geo::core::Settings;

constexpr std::array<int, 3> kThreadSweep{2, 4, 8};

/// Fractional, non-integer weights so every double accumulation (center
/// sums, block weights) actually exercises the fixed-block association —
/// with integer weights any summation order would agree.
std::vector<double> fractionalWeights(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<double> w;
    w.reserve(n);
    for (std::size_t i = 0; i < n; ++i) w.push_back(0.25 + rng.uniform());
    return w;
}

void expectSameResult(const GeographerResult& got, const GeographerResult& want,
                      const std::string& label) {
    EXPECT_EQ(got.partition, want.partition) << label;
    EXPECT_EQ(got.centerCoords, want.centerCoords) << label;
    EXPECT_EQ(got.influence, want.influence) << label;
    EXPECT_EQ(got.imbalance, want.imbalance) << label;
    EXPECT_EQ(got.converged, want.converged) << label;
    // Loop counters are part of the contract too: a thread-dependent skip
    // or distance count would mean the sweeps took different decisions.
    EXPECT_EQ(got.counters.pointEvaluations, want.counters.pointEvaluations) << label;
    EXPECT_EQ(got.counters.boundSkips, want.counters.boundSkips) << label;
    EXPECT_EQ(got.counters.distanceCalcs, want.counters.distanceCalcs) << label;
    EXPECT_EQ(got.counters.balanceIterations, want.counters.balanceIterations) << label;
    EXPECT_EQ(got.counters.keyedPoints, want.counters.keyedPoints) << label;
    EXPECT_EQ(got.counters.sortedRecords, want.counters.sortedRecords) << label;
}

void expectSameMetrics(const geo::graph::PartitionMetrics& got,
                       const geo::graph::PartitionMetrics& want,
                       const std::string& label) {
    EXPECT_EQ(got.edgeCut, want.edgeCut) << label;
    EXPECT_EQ(got.maxExternalEdges, want.maxExternalEdges) << label;
    EXPECT_EQ(got.maxCommVolume, want.maxCommVolume) << label;
    EXPECT_EQ(got.totalCommVolume, want.totalCommVolume) << label;
    EXPECT_EQ(got.imbalance, want.imbalance) << label;
    EXPECT_EQ(got.harmonicMeanDiameter, want.harmonicMeanDiameter) << label;
    EXPECT_EQ(got.disconnectedBlocks, want.disconnectedBlocks) << label;
    EXPECT_EQ(got.emptyBlocks, want.emptyBlocks) << label;
}

TEST(ThreadDeterminism, PartitionGeographerBitwiseAcrossThreadCounts) {
    const auto mesh = geo::gen::delaunay2d(6000, 211);
    const auto weights = fractionalWeights(mesh.points.size(), 212);
    const std::int32_t k = 12;

    Settings base;
    base.threads = 1;
    const auto want =
        geo::core::partitionGeographer<2>(mesh.points, weights, k, /*ranks=*/2, base);

    for (const int threads : kThreadSweep) {
        Settings s;
        s.threads = threads;
        const auto got =
            geo::core::partitionGeographer<2>(mesh.points, weights, k, 2, s);
        expectSameResult(got, want, "partition t" + std::to_string(threads));
    }
}

TEST(ThreadDeterminism, RepartitionBitwiseAcrossThreadCounts) {
    const auto mesh = geo::gen::delaunay2d(5000, 223);
    // Second timestep: slight deterministic drift, small enough to warm-start.
    auto drifted = mesh.points;
    for (auto& p : drifted) {
        p[0] += 0.003;
        p[1] -= 0.002;
    }
    const auto weights = fractionalWeights(mesh.points.size(), 224);
    const std::int32_t k = 8;

    struct Steps {
        geo::repart::RepartResult<2> first, second;
    };
    const auto runBoth = [&](int threads) {
        Settings s;
        s.threads = threads;
        geo::repart::RepartState<2> state;
        Steps out;
        out.first = geo::repart::repartitionGeographer<2>(mesh.points, weights, k,
                                                          /*ranks=*/2, s, state);
        out.second =
            geo::repart::repartitionGeographer<2>(drifted, weights, k, 2, s, state);
        return out;
    };

    const Steps want = runBoth(1);
    ASSERT_TRUE(want.second.warmStarted);  // the drift is small by design
    for (const int threads : kThreadSweep) {
        const Steps got = runBoth(threads);
        const std::string label = "repart t" + std::to_string(threads);
        EXPECT_EQ(got.first.warmStarted, want.first.warmStarted) << label;
        EXPECT_EQ(got.second.warmStarted, want.second.warmStarted) << label;
        EXPECT_EQ(got.second.normalizedDrift.has_value(),
                  want.second.normalizedDrift.has_value())
            << label;
        if (got.second.normalizedDrift && want.second.normalizedDrift)
            EXPECT_EQ(*got.second.normalizedDrift, *want.second.normalizedDrift) << label;
        expectSameResult(got.first.result, want.first.result, label + " step1");
        expectSameResult(got.second.result, want.second.result, label + " step2");
    }
}

TEST(ThreadDeterminism, PartitionHierarchicalBitwiseAcrossThreadCounts) {
    const auto mesh = geo::gen::delaunay2d(4000, 227);
    const auto weights = fractionalWeights(mesh.points.size(), 228);
    const std::array<std::int32_t, 2> branchings{3, 2};
    const auto topo = geo::hier::Topology::fromBranching(branchings);

    Settings base;
    base.threads = 1;
    const auto want =
        geo::hier::partitionHierarchical<2>(mesh.points, weights, topo, /*ranks=*/2, base);

    for (const int threads : kThreadSweep) {
        Settings s;
        s.threads = threads;
        const auto got =
            geo::hier::partitionHierarchical<2>(mesh.points, weights, topo, 2, s);
        const std::string label = "hier t" + std::to_string(threads);
        EXPECT_EQ(got.partition, want.partition) << label;
        EXPECT_EQ(got.imbalance, want.imbalance) << label;
        EXPECT_EQ(got.warmNodes, want.warmNodes) << label;
        EXPECT_EQ(got.coldNodes, want.coldNodes) << label;
    }
}

TEST(ThreadDeterminism, EvaluatePartitionBitwiseAcrossThreadCounts) {
    const auto mesh = geo::gen::delaunay2d(6000, 229);
    const auto weights = fractionalWeights(mesh.points.size(), 230);
    const std::int32_t k = 9;
    Settings s;
    const auto res = geo::core::partitionGeographer<2>(mesh.points, weights, k, 1, s);

    const auto want = geo::graph::evaluatePartition(mesh.graph, res.partition, k, weights,
                                                    /*computeDiameter=*/true, {}, 1);
    for (const int threads : kThreadSweep) {
        const auto got = geo::graph::evaluatePartition(mesh.graph, res.partition, k,
                                                       weights, true, {}, threads);
        expectSameMetrics(got, want, "metrics t" + std::to_string(threads));
    }

    // The topology-weighted folds share the determinism contract.
    const auto topo = geo::hier::Topology::fromBranching(std::array<std::int32_t, 2>{3, 3});
    const auto cost = topo.blockCostMatrix();
    const double wantCost = geo::graph::topologyCommCost(mesh.graph, res.partition, k, cost, 1);
    const double wantSpmv =
        geo::hier::topologySpmvCommSeconds(mesh.graph, res.partition, topo, {},
                                           sizeof(double), 1);
    for (const int threads : kThreadSweep) {
        EXPECT_EQ(geo::graph::topologyCommCost(mesh.graph, res.partition, k, cost, threads),
                  wantCost);
        EXPECT_EQ(geo::hier::topologySpmvCommSeconds(mesh.graph, res.partition, topo, {},
                                                     sizeof(double), threads),
                  wantSpmv);
    }
}

TEST(ThreadDeterminism, GhostPairCountsMatchForEachGhost) {
    const auto mesh = geo::gen::delaunay2d(3000, 233);
    const std::int32_t k = 7;
    Settings s;
    const auto res = geo::core::partitionGeographer<2>(mesh.points, {}, k, 1, s);

    const auto kk = static_cast<std::size_t>(k);
    std::vector<std::int64_t> want(kk * kk, 0);
    geo::graph::forEachGhost(mesh.graph, res.partition, k,
                             [&](std::int32_t owner, std::int32_t receiver, geo::graph::Vertex) {
                                 want[static_cast<std::size_t>(receiver) * kk +
                                      static_cast<std::size_t>(owner)]++;
                             });
    for (const int threads : {1, 2, 4, 8}) {
        EXPECT_EQ(geo::graph::ghostPairCounts(mesh.graph, res.partition, k, threads), want)
            << "t" << threads;
    }
}

}  // namespace
