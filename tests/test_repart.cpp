#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/balanced_kmeans.hpp"
#include "graph/metrics.hpp"
#include "par/comm.hpp"
#include "repart/migration.hpp"
#include "repart/repartition.hpp"
#include "repart/scenarios.hpp"
#include "support/rng.hpp"

namespace {

using geo::Point2;
using geo::Xoshiro256;
using geo::core::Settings;
using geo::par::Comm;
using geo::par::runSpmd;
using geo::repart::migrationStats;
using geo::repart::MigrationStats;
using geo::repart::ownerRank;
using geo::repart::RepartOptions;
using geo::repart::repartitionGeographer;
using geo::repart::RepartState;
using geo::repart::Scenario;
using geo::repart::ScenarioConfig;
using geo::repart::ScenarioKind;

ScenarioConfig smallConfig(ScenarioKind kind) {
    ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.basePoints = 2500;
    cfg.drift = 0.02;
    cfg.seed = 7;
    return cfg;
}

TEST(Scenarios, DeterministicAcrossInstances) {
    for (const auto kind : {ScenarioKind::Advection, ScenarioKind::Rotation,
                            ScenarioKind::Hotspot, ScenarioKind::Churn}) {
        Scenario<2> a(smallConfig(kind));
        Scenario<2> b(smallConfig(kind));
        for (int t = 0; t < 3; ++t) {
            ASSERT_EQ(a.current().ids, b.current().ids) << toString(kind);
            ASSERT_EQ(a.current().points.size(), b.current().points.size());
            for (std::size_t i = 0; i < a.current().points.size(); ++i)
                ASSERT_EQ(a.current().points[i], b.current().points[i]) << toString(kind);
            a.advance();
            b.advance();
        }
    }
}

TEST(Scenarios, HotspotAddsAndRemovesButKeepsBase) {
    auto cfg = smallConfig(ScenarioKind::Hotspot);
    cfg.hotspotBoost = 0.3;
    Scenario<2> s(cfg);
    const auto countBase = [&](const auto& step) {
        return std::count_if(step.ids.begin(), step.ids.end(),
                             [&](std::int64_t id) { return id < cfg.basePoints; });
    };
    EXPECT_EQ(countBase(s.current()), cfg.basePoints);
    const auto size0 = s.current().points.size();
    EXPECT_GT(size0, static_cast<std::size_t>(cfg.basePoints));  // hotspot added points
    std::int64_t maxId = 0;
    for (int t = 0; t < 4; ++t) {
        s.advance();
        EXPECT_EQ(countBase(s.current()), cfg.basePoints);  // base survives
        for (const auto id : s.current().ids) maxId = std::max(maxId, id);
    }
    // The moving hotspot retired old refinement points and minted new ids.
    EXPECT_GT(maxId, static_cast<std::int64_t>(size0));
}

TEST(Scenarios, ChurnReplacesRequestedFraction) {
    auto cfg = smallConfig(ScenarioKind::Churn);
    cfg.churnFraction = 0.1;
    Scenario<2> s(cfg);
    const auto before = s.current().ids;
    s.advance();
    const auto& after = s.current().ids;
    ASSERT_EQ(before.size(), after.size());
    std::size_t replaced = 0;
    for (std::size_t i = 0; i < before.size(); ++i) replaced += (before[i] != after[i]);
    const double fraction = static_cast<double>(replaced) / static_cast<double>(before.size());
    EXPECT_NEAR(fraction, cfg.churnFraction, 0.04);
}

TEST(Migration, HandBuiltPartitionsMatchExpectedStats) {
    // k=2 blocks on 2 ranks: block 0 -> rank 0, block 1 -> rank 1.
    const std::vector<std::int64_t> prevIds{0, 1, 2, 3};
    const std::vector<std::int32_t> prevBlocks{0, 0, 1, 1};
    // id 3 deleted, id 4 inserted, id 1 migrates 0 -> 1.
    const std::vector<std::int64_t> currIds{0, 1, 2, 4};
    const std::vector<std::int32_t> currBlocks{0, 1, 1, 0};
    const MigrationStats m = migrationStats(prevIds, prevBlocks, currIds, currBlocks,
                                            /*currWeights=*/{}, /*k=*/2, /*ranks=*/2,
                                            /*bytesPerPoint=*/16);
    EXPECT_EQ(m.survivors, 3);
    EXPECT_EQ(m.migratedPoints, 1);
    EXPECT_DOUBLE_EQ(m.survivingWeight, 3.0);
    EXPECT_DOUBLE_EQ(m.migratedWeight, 1.0);
    EXPECT_NEAR(m.migratedFraction, 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.stability, 2.0 / 3.0, 1e-12);
    EXPECT_EQ(m.totalBytes, 16u);
    EXPECT_EQ(m.maxSendBytes, 16u);
    EXPECT_EQ(m.maxRecvBytes, 16u);
    EXPECT_GT(m.modeledSeconds, 0.0);
}

TEST(Migration, SameRankMovesCostNoBytesButOneMetadataRound) {
    // k=4 blocks on 2 ranks: blocks {0,1} -> rank 0, {2,3} -> rank 1.
    EXPECT_EQ(ownerRank(0, 4, 2), 0);
    EXPECT_EQ(ownerRank(1, 4, 2), 0);
    EXPECT_EQ(ownerRank(2, 4, 2), 1);
    // Non-divisible k: inverse of the lo = k*r/p block distribution,
    // i.e. rank 0 owns {0}, rank 1 owns {1, 2}.
    EXPECT_EQ(ownerRank(0, 3, 2), 0);
    EXPECT_EQ(ownerRank(1, 3, 2), 1);
    EXPECT_EQ(ownerRank(2, 3, 2), 1);
    const std::vector<std::int64_t> ids{0, 1};
    const std::vector<std::int32_t> prev{0, 2};
    const std::vector<std::int32_t> curr{1, 3};  // both move within their rank
    const geo::par::CostModel model;
    const MigrationStats m = migrationStats(ids, prev, ids, curr, {}, 4, 2, 32, model);
    EXPECT_EQ(m.migratedPoints, 2);
    // No payload crosses a rank boundary...
    EXPECT_EQ(m.totalBytes, 0u);
    EXPECT_EQ(m.maxSendBytes, 0u);
    EXPECT_EQ(m.maxRecvBytes, 0u);
    // ...but block relabeling is still a collective metadata round: exactly
    // the zero-byte alltoallv latency.
    EXPECT_DOUBLE_EQ(m.modeledSeconds, model.alltoallv(2, 0, 0));
    EXPECT_GT(m.modeledSeconds, 0.0);
}

TEST(Migration, NoMigrationCostsNothing) {
    const std::vector<std::int64_t> ids{0, 1};
    const std::vector<std::int32_t> blocks{0, 1};
    const MigrationStats m = migrationStats(ids, blocks, ids, blocks, {}, 2, 2, 32);
    EXPECT_EQ(m.migratedPoints, 0);
    EXPECT_DOUBLE_EQ(m.modeledSeconds, 0.0);
}

TEST(Migration, WeightedFractionUsesCurrentWeights) {
    const std::vector<std::int64_t> ids{0, 1};
    const std::vector<std::int32_t> prev{0, 1};
    const std::vector<std::int32_t> curr{1, 1};
    const std::vector<double> weights{3.0, 1.0};
    const MigrationStats m = migrationStats(ids, prev, ids, curr, weights, 2, 1, 8);
    EXPECT_DOUBLE_EQ(m.migratedWeight, 3.0);
    EXPECT_DOUBLE_EQ(m.survivingWeight, 4.0);
    EXPECT_NEAR(m.migratedFraction, 0.75, 1e-12);
}

TEST(GraphMetrics, PartitionChangeWeighted) {
    const geo::graph::Partition a{0, 0, 1, 1};
    const geo::graph::Partition b{0, 1, 1, 0};
    EXPECT_DOUBLE_EQ(geo::graph::partitionChange(a, b), 0.5);
    const std::vector<double> w{1.0, 2.0, 1.0, 4.0};
    EXPECT_DOUBLE_EQ(geo::graph::partitionChange(a, b, w), 6.0 / 8.0);
    EXPECT_DOUBLE_EQ(geo::graph::partitionChange(a, a, w), 0.0);
}

TEST(BalancedKMeans, InitialInfluencePlumbing) {
    Xoshiro256 rng(3);
    std::vector<Point2> pts;
    for (int i = 0; i < 500; ++i) pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
    std::vector<Point2> centers{Point2{{0.25, 0.5}}, Point2{{0.75, 0.5}}};
    Settings good;
    good.initialInfluence = {1.1, 0.9};
    Settings badSize;
    badSize.initialInfluence = {1.0};
    Settings badValue;
    badValue.initialInfluence = {1.0, 0.0};
    runSpmd(1, [&](Comm& comm) {
        const auto out = geo::core::balancedKMeans<2>(comm, pts, {}, centers, good);
        EXPECT_EQ(out.influence.size(), 2u);
        EXPECT_THROW(
            (void)geo::core::balancedKMeans<2>(comm, pts, {}, centers, badSize),
            std::invalid_argument);
        EXPECT_THROW(
            (void)geo::core::balancedKMeans<2>(comm, pts, {}, centers, badValue),
            std::invalid_argument);
    });
}

TEST(Repartition, WarmStartDeterministicAcrossRuns) {
    const auto cfg = smallConfig(ScenarioKind::Advection);
    Settings s;
    s.epsilon = 0.05;
    std::vector<geo::graph::Partition> first;
    for (int trial = 0; trial < 2; ++trial) {
        Scenario<2> scenario(cfg);
        RepartState<2> state;
        std::vector<geo::graph::Partition> parts;
        for (int t = 0; t < 3; ++t) {
            const auto res = repartitionGeographer<2>(scenario.current().points, {}, 4, 2,
                                                      s, state);
            parts.push_back(res.result.partition);
            scenario.advance();
        }
        if (trial == 0)
            first = parts;
        else
            EXPECT_EQ(first, parts);
    }
}

TEST(Repartition, WarmStartsAfterFirstStepAndKeepsBalance) {
    const auto cfg = smallConfig(ScenarioKind::Advection);
    Scenario<2> scenario(cfg);
    Settings s;
    s.epsilon = 0.05;
    RepartState<2> state;
    for (int t = 0; t < 4; ++t) {
        const auto res =
            repartitionGeographer<2>(scenario.current().points, {}, 4, 2, s, state);
        // Step 0 has no state (cold); gentle advection warm-starts afterwards.
        EXPECT_EQ(res.warmStarted, t > 0) << "step " << t;
        EXPECT_LE(res.result.imbalance, s.epsilon + 1e-9) << "step " << t;
        const auto imb = geo::graph::imbalance(res.result.partition, 4);
        EXPECT_LE(imb, s.epsilon + 1e-9) << "step " << t;
        scenario.advance();
    }
}

TEST(Repartition, HotspotStaysBalancedUnderInsertDelete) {
    auto cfg = smallConfig(ScenarioKind::Hotspot);
    cfg.hotspotBoost = 0.3;
    Scenario<2> scenario(cfg);
    Settings s;
    s.epsilon = 0.05;
    RepartState<2> state;
    for (int t = 0; t < 3; ++t) {
        const auto& step = scenario.current();
        // Hotspot is the one scenario with node weights (refinement points
        // are heavier) — exercise the weighted repartitioning path.
        ASSERT_EQ(step.weights.size(), step.points.size());
        EXPECT_GT(*std::max_element(step.weights.begin(), step.weights.end()), 1.0);
        const auto res =
            repartitionGeographer<2>(step.points, step.weights, 4, 2, s, state);
        EXPECT_LE(res.result.imbalance, s.epsilon + 1e-9) << "step " << t;
        ASSERT_EQ(res.result.partition.size(), step.points.size());
        scenario.advance();
    }
}

TEST(Repartition, ColdFallbackTriggersOnLargeDrift) {
    Xoshiro256 rng(13);
    std::vector<Point2> cloud;
    for (int i = 0; i < 2000; ++i)
        cloud.push_back(Point2{{rng.uniform(), rng.uniform()}});
    Settings s;
    RepartState<2> state;
    const auto warm0 = repartitionGeographer<2>(cloud, {}, 4, 2, s, state);
    EXPECT_FALSE(warm0.warmStarted);  // no prior state
    // No usable state: the probe never ran, so no drift and no probe phase.
    EXPECT_FALSE(warm0.normalizedDrift.has_value());
    EXPECT_EQ(warm0.result.phaseSeconds.count("probe"), 0u);

    // Same cloud again: negligible drift, warm path.
    const auto warm1 = repartitionGeographer<2>(cloud, {}, 4, 2, s, state);
    EXPECT_TRUE(warm1.warmStarted);
    ASSERT_TRUE(warm1.normalizedDrift.has_value());
    EXPECT_LT(*warm1.normalizedDrift, 0.25);
    EXPECT_EQ(warm1.result.phaseSeconds.count("probe"), 1u);

    // Teleport the workload far away: the probe must reject the old centers.
    auto shifted = cloud;
    for (auto& p : shifted) p = Point2{{p[0] * 0.3 + 7.0, p[1] * 0.3 - 4.0}};
    const auto cold = repartitionGeographer<2>(shifted, {}, 4, 2, s, state);
    EXPECT_FALSE(cold.warmStarted);
    ASSERT_TRUE(cold.normalizedDrift.has_value());
    EXPECT_GT(*cold.normalizedDrift, 0.25);
    EXPECT_LE(cold.result.imbalance, s.epsilon + 1e-9);
}

TEST(Repartition, ColdFallbackWhenClusterRegionVacates) {
    // Step 0: uniform cloud plus a dense far-away blob that claims at least
    // one center. Step 1: the blob is gone — its center is stranded in
    // empty space, which influence adaptation alone recovers from slowly.
    // The probe must detect the sample-empty cluster and go cold.
    Xoshiro256 rng(23);
    std::vector<Point2> withBlob, withoutBlob;
    for (int i = 0; i < 1500; ++i) {
        const Point2 p{{rng.uniform(), rng.uniform()}};
        withBlob.push_back(p);
        withoutBlob.push_back(p);
    }
    for (int i = 0; i < 1500; ++i)
        withBlob.push_back(Point2{{8.0 + 0.1 * rng.uniform(), 8.0 + 0.1 * rng.uniform()}});
    Settings s;
    RepartState<2> state;
    (void)repartitionGeographer<2>(withBlob, {}, 4, 2, s, state);
    const auto res = repartitionGeographer<2>(withoutBlob, {}, 4, 2, s, state);
    EXPECT_FALSE(res.warmStarted);
    EXPECT_LE(res.result.imbalance, s.epsilon + 1e-9);
}

TEST(Repartition, HeavySparseClusterDoesNotSpuriouslyGoCold) {
    // k-means balances by WEIGHT but the drift probe samples by COUNT: a
    // block made of a few very heavy points may win no sampled point at
    // all. That must not be mistaken for a stranded center — on an
    // identical (zero-drift) cloud the warm path must be taken.
    Xoshiro256 rng(29);
    std::vector<Point2> pts;
    std::vector<double> w;
    for (int i = 0; i < 20000; ++i) {
        pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
        w.push_back(1.0);
    }
    for (int i = 0; i < 5; ++i) {
        pts.push_back(Point2{{0.02 * rng.uniform(), 0.02 * rng.uniform()}});
        w.push_back(2000.0);
    }
    Settings s;
    s.epsilon = 0.05;
    RepartState<2> state;
    (void)repartitionGeographer<2>(pts, w, 4, 2, s, state);
    const auto again = repartitionGeographer<2>(pts, w, 4, 2, s, state);
    EXPECT_TRUE(again.warmStarted);
    ASSERT_TRUE(again.normalizedDrift.has_value());
    EXPECT_LT(*again.normalizedDrift, 0.25);
}

TEST(Repartition, ForceFlagsOverrideProbe) {
    Xoshiro256 rng(17);
    std::vector<Point2> cloud;
    for (int i = 0; i < 1500; ++i)
        cloud.push_back(Point2{{rng.uniform(), rng.uniform()}});
    Settings s;
    RepartState<2> state;
    (void)repartitionGeographer<2>(cloud, {}, 3, 2, s, state);
    RepartOptions forceCold;
    forceCold.forceCold = true;
    const auto cold = repartitionGeographer<2>(cloud, {}, 3, 2, s, state, forceCold);
    EXPECT_FALSE(cold.warmStarted);
    // Forced paths skip the probe: "probe not run" must be distinguishable
    // from "measured zero drift".
    EXPECT_FALSE(cold.normalizedDrift.has_value());
    EXPECT_EQ(cold.result.phaseSeconds.count("probe"), 0u);
    RepartOptions forceWarm;
    forceWarm.forceWarm = true;
    const auto warm = repartitionGeographer<2>(cloud, {}, 3, 2, s, state, forceWarm);
    EXPECT_TRUE(warm.warmStarted);
    EXPECT_FALSE(warm.normalizedDrift.has_value());
    EXPECT_EQ(warm.result.phaseSeconds.count("probe"), 0u);
}

TEST(Repartition, RejectsNonFiniteInput) {
    // The precondition runs before the probe and before any SPMD run, on
    // the cold path (no usable state) and on the warm path alike.
    Xoshiro256 rng(269);
    std::vector<Point2> cloud(4000);
    for (auto& p : cloud) p = Point2{{rng.uniform(), rng.uniform()}};
    Settings s;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    RepartState<2> state;
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "cold");
        RepartOptions options;
        options.forceWarm = warm;
        ASSERT_EQ(state.warmable(8), warm);
        for (const double bad : {kNaN, kInf, -kInf}) {
            auto withBad = cloud;
            withBad[1234][0] = bad;
            EXPECT_THROW(
                (void)repartitionGeographer<2>(withBad, {}, 8, 2, s, state, options),
                std::invalid_argument)
                << bad;
        }
        std::vector<double> weights(cloud.size(), 1.0);
        weights[1234] = kNaN;
        EXPECT_THROW((void)repartitionGeographer<2>(cloud, weights, 8, 2, s, state, options),
                     std::invalid_argument);
        // A clean cold step leaves the state the warm round starts from.
        if (!warm) (void)repartitionGeographer<2>(cloud, {}, 8, 2, s, state);
    }
}

TEST(Repartition, WarmNeedsFewerOuterIterationsThanCold) {
    auto cfg = smallConfig(ScenarioKind::Advection);
    cfg.basePoints = 4000;
    Scenario<2> scenario(cfg);
    Settings s;
    s.epsilon = 0.05;
    RepartState<2> state;
    (void)repartitionGeographer<2>(scenario.current().points, {}, 6, 2, s, state);
    scenario.advance();

    const auto warm =
        repartitionGeographer<2>(scenario.current().points, {}, 6, 2, s, state);
    ASSERT_TRUE(warm.warmStarted);
    const auto cold =
        geo::core::partitionGeographer<2>(scenario.current().points, {}, 6, 2, s);
    EXPECT_LT(warm.result.counters.outerIterations, cold.counters.outerIterations);
}

TEST(Repartition, WarmMigratesLessThanColdRerun) {
    auto cfg = smallConfig(ScenarioKind::Advection);
    Scenario<2> scenario(cfg);
    Settings s;
    s.epsilon = 0.05;

    RepartState<2> warmState, coldState;
    const auto& step0 = scenario.current();
    const auto base = repartitionGeographer<2>(step0.points, {}, 4, 2, s, warmState);
    coldState = warmState;  // identical starting partition for both strategies
    const auto prevIds = step0.ids;
    const auto prevPart = base.result.partition;

    scenario.advance();
    const auto& step1 = scenario.current();
    const auto warm = repartitionGeographer<2>(step1.points, {}, 4, 2, s, warmState);
    ASSERT_TRUE(warm.warmStarted);
    RepartOptions forceCold;
    forceCold.forceCold = true;
    const auto cold =
        repartitionGeographer<2>(step1.points, {}, 4, 2, s, coldState, forceCold);

    const auto bpp = geo::repart::migrationBytesPerPoint(2);
    const auto mWarm = migrationStats(prevIds, prevPart, step1.ids,
                                      warm.result.partition, {}, 4, 2, bpp);
    const auto mCold = migrationStats(prevIds, prevPart, step1.ids,
                                      cold.result.partition, {}, 4, 2, bpp);
    EXPECT_LT(mWarm.migratedFraction, mCold.migratedFraction);
}

}  // namespace
