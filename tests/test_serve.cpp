// Online partition-serving suite: immutable snapshots + the lock-free
// epoch-swapped router (src/serve).
//
// The load-bearing property: a snapshot built from a run's GeographerResult
// routes every input point of that run to exactly the block the partition
// records — the snapshot freezes the (centers, assignmentInfluence) pair the
// final assignment sweep used, and the router's squared-domain kernel
// computes the same argmin the engine did. Verified for flat partitions,
// warm and cold repartitions, hierarchical runs, the kd-tree path, reloaded
// snapshots, and at several router thread counts. The concurrent-swap test
// is the data-race target of the TSan CI job.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/assign_kernel.hpp"
#include "core/geographer.hpp"
#include "gen/delaunay2d.hpp"
#include "hier/hier_partition.hpp"
#include "hier/topology.hpp"
#include "repart/repartition.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "support/rng.hpp"

namespace {

using geo::Point2;
using geo::Point3;
using geo::Xoshiro256;
using geo::core::Settings;
using geo::serve::PartitionSnapshot;
using geo::serve::Router;

std::vector<double> fractionalWeights(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<double> w;
    w.reserve(n);
    for (std::size_t i = 0; i < n; ++i) w.push_back(0.25 + rng.uniform());
    return w;
}

template <int D>
std::vector<std::int32_t> routeAll(const Router<D>& router,
                                   std::span<const geo::Point<D>> points) {
    std::vector<std::int32_t> blocks(points.size(), -1);
    router.route(points, std::span<std::int32_t>(blocks));
    return blocks;
}

/// Batched AND single-point routing must reproduce `want` bitwise at every
/// thread count — the acceptance criterion of the serving subsystem.
template <int D>
void expectRoutesMatch(const PartitionSnapshot<D>& snapshot,
                       std::span<const geo::Point<D>> points,
                       const std::vector<std::int32_t>& want, const std::string& label) {
    for (const int threads : {1, 2, 4}) {
        Router<D> router(threads);
        router.publish(snapshot);
        EXPECT_EQ(routeAll<D>(router, points), want) << label << " t" << threads;
    }
    Router<D> router(1);
    router.publish(snapshot);
    // Spot-check the low-latency single-point path on a deterministic stride.
    const std::size_t stride = std::max<std::size_t>(1, points.size() / 257);
    for (std::size_t i = 0; i < points.size(); i += stride)
        EXPECT_EQ(router.route(points[i]), want[i]) << label << " point " << i;
}

TEST(ServeSnapshot, FlatPartitionRoutesBitwise) {
    const auto mesh = geo::gen::delaunay2d(6000, 211);
    const auto weights = fractionalWeights(mesh.points.size(), 212);
    const std::int32_t k = 12;
    Settings settings;
    const auto res =
        geo::core::partitionGeographer<2>(mesh.points, weights, k, /*ranks=*/2, settings);

    const auto snap = PartitionSnapshot<2>::fromResult(res, /*version=*/7, /*ranks=*/2);
    EXPECT_EQ(snap.version(), 7u);
    EXPECT_EQ(snap.blockCount(), k);
    EXPECT_EQ(snap.depth(), 1);
    EXPECT_FALSE(snap.usesKdTree());  // k below the default tree threshold
    expectRoutesMatch<2>(snap, mesh.points, res.partition, "flat2d");

    // Rank map: contiguous split of 12 blocks over 2 ranks.
    EXPECT_TRUE(snap.hasRankMap());
    EXPECT_EQ(snap.rankOf(0), 0);
    EXPECT_EQ(snap.rankOf(5), 0);
    EXPECT_EQ(snap.rankOf(6), 1);
    EXPECT_EQ(snap.rankOf(11), 1);
    EXPECT_EQ(snap.leafOf(3), 3);  // identity without an explicit mapping
}

TEST(ServeSnapshot, FlatPartitionRoutesBitwise3d) {
    Xoshiro256 rng(97);
    std::vector<Point3> points(4000);
    for (auto& p : points)
        for (int d = 0; d < 3; ++d) p[d] = rng.uniform();
    Settings settings;
    const auto res = geo::core::partitionGeographer<3>(points, {}, 6, /*ranks=*/2, settings);
    const auto snap = PartitionSnapshot<3>::fromResult(res);
    expectRoutesMatch<3>(snap, points, res.partition, "flat3d");
    EXPECT_EQ(snap.rankOf(0), -1);  // no rank map requested
}

TEST(ServeSnapshot, RepartitionWarmAndColdRouteBitwise) {
    const auto mesh = geo::gen::delaunay2d(5000, 223);
    auto drifted = mesh.points;
    for (auto& p : drifted) {
        p[0] += 0.003;
        p[1] -= 0.002;
    }
    const auto weights = fractionalWeights(mesh.points.size(), 224);
    const std::int32_t k = 8;
    Settings settings;

    geo::repart::RepartState<2> state;
    const auto cold = geo::repart::repartitionGeographer<2>(mesh.points, weights, k,
                                                            /*ranks=*/2, settings, state);
    ASSERT_FALSE(cold.warmStarted);
    expectRoutesMatch<2>(PartitionSnapshot<2>::fromResult(cold.result, 1), mesh.points,
                         cold.result.partition, "repart cold");

    const auto warm = geo::repart::repartitionGeographer<2>(drifted, weights, k, 2,
                                                            settings, state);
    ASSERT_TRUE(warm.warmStarted);  // the drift is small by design
    expectRoutesMatch<2>(PartitionSnapshot<2>::fromResult(warm.result, 2), drifted,
                         warm.result.partition, "repart warm");
}

TEST(ServeSnapshot, ExactEvenWhenBalanceLoopExhausts) {
    // An unreachable epsilon forces every balance loop to exhaust
    // maxBalanceIterations, so influence adaptation runs AFTER the final
    // sweep: GeographerResult.influence is the warm-start state, while the
    // partition is the exact Voronoi diagram of assignmentInfluence. The
    // snapshot must pick the latter.
    const auto mesh = geo::gen::delaunay2d(3000, 229);
    const auto weights = fractionalWeights(mesh.points.size(), 230);
    Settings settings;
    settings.epsilon = 1e-9;
    settings.maxBalanceIterations = 2;
    settings.maxIterations = 4;
    const auto res =
        geo::core::partitionGeographer<2>(mesh.points, weights, 9, /*ranks=*/1, settings);
    ASSERT_EQ(res.assignmentInfluence.size(), 9u);
    EXPECT_NE(res.assignmentInfluence, res.influence);
    expectRoutesMatch<2>(PartitionSnapshot<2>::fromResult(res), mesh.points,
                         res.partition, "exhausted balance");
}

TEST(ServeSnapshot, HierarchicalRoutesBitwise) {
    const auto mesh = geo::gen::delaunay2d(4000, 227);
    const auto weights = fractionalWeights(mesh.points.size(), 228);
    const std::array<std::int32_t, 2> branchings{3, 2};
    const auto topo = geo::hier::Topology::fromBranching(branchings);
    Settings settings;

    const auto res =
        geo::hier::partitionHierarchical<2>(mesh.points, weights, topo, /*ranks=*/2, settings);
    ASSERT_EQ(res.nodeDiagrams.size(), 4u);  // root + 3 level-1 nodes
    const auto snap =
        PartitionSnapshot<2>::fromHierResult(res, topo, /*version=*/3, /*ranks=*/3);
    EXPECT_EQ(snap.depth(), 2);
    EXPECT_EQ(snap.blockCount(), topo.leafCount());
    expectRoutesMatch<2>(snap, mesh.points, res.partition, "hier cold");

    // Leaves 0..5 over 3 ranks: contiguous pairs.
    EXPECT_EQ(snap.rankOf(0), 0);
    EXPECT_EQ(snap.rankOf(3), 1);
    EXPECT_EQ(snap.rankOf(5), 2);
    EXPECT_EQ(snap.leafOf(4), 4);
}

TEST(ServeSnapshot, HierarchicalWarmRepartitionRoutesBitwise) {
    const auto mesh = geo::gen::delaunay2d(4000, 233);
    auto drifted = mesh.points;
    for (auto& p : drifted) {
        p[0] -= 0.002;
        p[1] += 0.003;
    }
    const std::array<std::int32_t, 2> branchings{2, 2};
    const auto topo = geo::hier::Topology::fromBranching(branchings);
    Settings settings;

    geo::hier::HierState<2> state;
    const auto first = geo::hier::repartitionHierarchical<2>(mesh.points, {}, topo,
                                                             /*ranks=*/2, settings, state);
    expectRoutesMatch<2>(PartitionSnapshot<2>::fromHierResult(first, topo, 1),
                         mesh.points, first.partition, "hier step1");

    const auto second = geo::hier::repartitionHierarchical<2>(drifted, {}, topo, 2,
                                                              settings, state);
    EXPECT_GT(second.warmNodes, 0);  // small drift: at least the root warms
    expectRoutesMatch<2>(PartitionSnapshot<2>::fromHierResult(second, topo, 2), drifted,
                         second.partition, "hier step2");
}

TEST(ServeSnapshot, KdTreeRoutingMatchesLinearScan) {
    // The snapshot picks the kd-tree from the block count it observes: a
    // scan below kKdTreeFromK, the tree from there on. Both must reproduce
    // the partition that produced them.
    const auto mesh = geo::gen::delaunay2d(5000, 239);
    Settings settings;
    constexpr std::int32_t scanK = 48;
    constexpr std::int32_t treeK = PartitionSnapshot<2>::kKdTreeFromK;
    static_assert(scanK < treeK);
    const auto scanRes = geo::core::partitionGeographer<2>(mesh.points, {}, scanK, 1, settings);
    const auto treeRes = geo::core::partitionGeographer<2>(mesh.points, {}, treeK, 1, settings);

    const auto withScan = PartitionSnapshot<2>::fromResult(scanRes, 1);
    const auto withTree = PartitionSnapshot<2>::fromResult(treeRes, 1);
    EXPECT_FALSE(withScan.usesKdTree());
    EXPECT_TRUE(withTree.usesKdTree());

    expectRoutesMatch<2>(withScan, mesh.points, scanRes.partition, "linear");
    expectRoutesMatch<2>(withTree, mesh.points, treeRes.partition, "kdtree");
}

TEST(ServeSnapshot, SaveLoadRoundTripsExactly) {
    const auto mesh = geo::gen::delaunay2d(3000, 241);
    Settings settings;
    const auto res = geo::core::partitionGeographer<2>(mesh.points, {}, 10, 2, settings);
    const auto snap = PartitionSnapshot<2>::fromResult(res, /*version=*/42, /*ranks=*/2);

    std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
    snap.save(stream);
    const auto loaded = PartitionSnapshot<2>::load(stream);

    EXPECT_EQ(loaded.version(), 42u);
    EXPECT_EQ(loaded.blockCount(), snap.blockCount());
    EXPECT_EQ(loaded.depth(), 1);
    EXPECT_TRUE(loaded.hasRankMap());
    for (std::int32_t b = 0; b < snap.blockCount(); ++b)
        EXPECT_EQ(loaded.rankOf(b), snap.rankOf(b));
    expectRoutesMatch<2>(loaded, mesh.points, res.partition, "loaded flat");

    // Hierarchical snapshots round-trip through the same format.
    const auto topo =
        geo::hier::Topology::fromBranching(std::array<std::int32_t, 2>{2, 3});
    const auto hres =
        geo::hier::partitionHierarchical<2>(mesh.points, {}, topo, 1, settings);
    const auto hsnap = PartitionSnapshot<2>::fromHierResult(hres, topo, 9, 6);
    std::stringstream hstream(std::ios::in | std::ios::out | std::ios::binary);
    hsnap.save(hstream);
    const auto hloaded = PartitionSnapshot<2>::load(hstream);
    EXPECT_EQ(hloaded.version(), 9u);
    EXPECT_EQ(hloaded.depth(), 2);
    expectRoutesMatch<2>(hloaded, mesh.points, hres.partition, "loaded hier");
}

TEST(ServeSnapshot, LoadRejectsForeignStreams) {
    std::stringstream garbage("definitely not a snapshot");
    EXPECT_THROW((void)PartitionSnapshot<2>::load(garbage), std::invalid_argument);

    // A 3D snapshot must not load as 2D.
    Xoshiro256 rng(5);
    std::vector<Point3> centers(4);
    for (auto& c : centers)
        for (int d = 0; d < 3; ++d) c[d] = rng.uniform();
    const std::vector<double> influence(4, 1.0);
    const auto snap3 = PartitionSnapshot<3>::fromCenters(centers, influence);
    std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
    snap3.save(stream);
    EXPECT_THROW((void)PartitionSnapshot<2>::load(stream), std::invalid_argument);
}

TEST(ServeRouter, PublishBumpsEpochAndKeepsOldSnapshotsAlive) {
    std::vector<Point2> centersA{{0.1, 0.1}, {0.9, 0.9}};
    std::vector<Point2> centersB{{0.9, 0.1}, {0.1, 0.9}, {0.5, 0.5}};
    const std::vector<double> onesA(2, 1.0), onesB(3, 1.0);

    Router<2> router(1);
    EXPECT_EQ(router.epoch(), 0u);
    EXPECT_FALSE(router.hasSnapshot());
    const Point2 probe{0.12, 0.11};
    EXPECT_THROW((void)router.route(probe), std::invalid_argument);

    EXPECT_EQ(router.publish(PartitionSnapshot<2>::fromCenters(centersA, onesA, 1)), 1u);
    const auto old = router.snapshot();
    EXPECT_EQ(router.route(probe), 0);

    EXPECT_EQ(router.publish(PartitionSnapshot<2>::fromCenters(centersB, onesB, 2)), 2u);
    EXPECT_EQ(router.epoch(), 2u);
    EXPECT_EQ(router.snapshot()->version(), 2u);
    EXPECT_EQ(router.route(probe), 2);  // centersB[2] = (0.5, 0.5) is closest
    // The retained shared_ptr still serves the old complete diagram.
    EXPECT_EQ(old->version(), 1u);
    EXPECT_EQ(old->blockCount(), 2);
    EXPECT_EQ(old->blockOf(probe), 0);
}

TEST(ServeRouter, ConcurrentReadersObserveOnlyCompleteSnapshots) {
    // Publisher swaps between two diagram families with different k while
    // readers route without locks. Every reader must observe a complete
    // snapshot: version and block count always pair up, and every routed
    // block is in range for the snapshot it was computed against. This is
    // the data-race target of the TSan CI job.
    const auto makeSnapshot = [](std::uint64_t version) {
        const bool odd = version % 2 == 1;
        std::vector<Point2> centers(odd ? 4 : 8);
        Xoshiro256 rng(version);
        for (auto& c : centers) {
            c[0] = rng.uniform();
            c[1] = rng.uniform();
        }
        const std::vector<double> influence(centers.size(), 1.0);
        return PartitionSnapshot<2>::fromCenters(centers, influence, version);
    };

    Router<2> router(1);
    router.publish(makeSnapshot(1));
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> violations{0};
    std::atomic<std::int64_t> reads{0};

    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
            while (!stop.load(std::memory_order_relaxed)) {
                const Point2 p{rng.uniform(), rng.uniform()};
                const auto snap = router.snapshot();
                const auto block = snap->blockOf(p);
                const bool completePair =
                    (snap->version() % 2 == 1 && snap->blockCount() == 4) ||
                    (snap->version() % 2 == 0 && snap->blockCount() == 8);
                if (!completePair || block < 0 || block >= snap->blockCount())
                    violations.fetch_add(1, std::memory_order_relaxed);
                if (router.route(p) < 0)
                    violations.fetch_add(1, std::memory_order_relaxed);
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    constexpr std::uint64_t kPublishes = 400;
    for (std::uint64_t v = 2; v <= kPublishes; ++v) {
        router.publish(makeSnapshot(v));
        if (v % 16 == 0) std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& reader : readers) reader.join();

    EXPECT_EQ(violations.load(), 0);
    EXPECT_GT(reads.load(), 0);
    EXPECT_EQ(router.epoch(), kPublishes);
    EXPECT_EQ(router.snapshot()->version(), kPublishes);
}

TEST(ServeRouter, MisrouteStatsCountsDisagreements) {
    const std::vector<std::int32_t> fresh{0, 1, 2, 3, 4};
    EXPECT_EQ(geo::serve::misrouteStats(fresh, fresh).misrouted, 0);
    EXPECT_DOUBLE_EQ(geo::serve::misrouteStats(fresh, fresh).fraction(), 0.0);

    const std::vector<std::int32_t> routed{0, 1, 0, 3, 0};
    const auto stats = geo::serve::misrouteStats(routed, fresh);
    EXPECT_EQ(stats.total, 5);
    EXPECT_EQ(stats.misrouted, 2);
    EXPECT_DOUBLE_EQ(stats.fraction(), 0.4);

    EXPECT_EQ(geo::serve::misrouteStats({}, {}).fraction(), 0.0);
    EXPECT_THROW((void)geo::serve::misrouteStats(routed, std::span<const std::int32_t>(
                                                             fresh.data(), 3)),
                 std::invalid_argument);
}

TEST(ServeRouter, HealthClockIsPinnedToSteadyClock) {
    // Regression guard for the serving-layer clock audit: every age and
    // staleness measurement (RouterHealth::epochAgeSeconds, the service SLO
    // staleness window) must run on a steady clock — a wall-clock step
    // would fake freshness (backwards) or shed real traffic (forwards).
    static_assert(std::is_same_v<geo::serve::HealthClock, std::chrono::steady_clock>,
                  "serving ages must use steady_clock, not the wall clock");
    static_assert(geo::serve::HealthClock::is_steady);

    // Runtime half: epoch age is non-negative and monotone between two
    // reads with no intervening publish.
    const std::vector<Point2> centers{{0.2, 0.2}, {0.8, 0.8}};
    const std::vector<double> ones(2, 1.0);
    Router<2> router(1);
    router.publish(PartitionSnapshot<2>::fromCenters(centers, ones, 1));
    const double age1 = router.health().epochAgeSeconds;
    const double age2 = router.health().epochAgeSeconds;
    EXPECT_GE(age1, 0.0);
    EXPECT_GE(age2, age1);
}

TEST(ServeSnapshot, FromStateServesCarriedWarmStartState) {
    const auto mesh = geo::gen::delaunay2d(3000, 251);
    Settings settings;
    geo::repart::RepartState<2> state;
    const auto res = geo::repart::repartitionGeographer<2>(mesh.points, {}, 7, 1,
                                                           settings, state);
    ASSERT_TRUE(state.warmable(7));
    const auto snap = PartitionSnapshot<2>::fromState(state, 5);
    EXPECT_EQ(snap.blockCount(), 7);
    EXPECT_EQ(snap.version(), 5u);
    // The carried state holds the post-adaptation influence; when the final
    // balance loop converged the two vectors agree and routing reproduces
    // the partition exactly.
    if (res.result.assignmentInfluence == res.result.influence)
        expectRoutesMatch<2>(snap, mesh.points, res.result.partition, "from state");
    for (const auto& p : mesh.points) {
        const auto b = snap.blockOf(p);
        ASSERT_GE(b, 0);
        ASSERT_LT(b, 7);
    }
}

TEST(ServeSnapshot, DuplicateCentersAndBisectorTiesRouteToLowestId) {
    // Two duplicated centers plus one distinct: every query nearer the
    // duplicates ties exactly between ids 0 and 1, and queries on the
    // bisector x = 0.5 tie between all three. Each tie must resolve to the
    // lowest id, identically on the batched and single-point paths.
    const std::vector<Point2> centers{Point2{{0.25, 0.5}}, Point2{{0.25, 0.5}},
                                      Point2{{0.75, 0.5}}};
    const std::vector<double> influence(3, 1.0);
    const auto snap =
        PartitionSnapshot<2>::fromCenters(std::span<const Point2>(centers), influence);

    Xoshiro256 rng(257);
    std::vector<Point2> queries(4096);
    for (auto& q : queries) {
        q[0] = rng.uniform();
        q[1] = rng.uniform();
    }
    const std::size_t random = queries.size();
    for (int i = 0; i < 64; ++i)
        queries.push_back(Point2{{0.5, static_cast<double>(i) / 64.0}});

    std::vector<std::int32_t> batched(queries.size(), -1);
    snap.blockOf(queries, batched);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(batched[i], snap.blockOf(queries[i])) << "query " << i;
        EXPECT_NE(batched[i], 1) << "query " << i << " went to the higher duplicate";
        if (i >= random) EXPECT_EQ(batched[i], 0) << "bisector query " << i;
    }
}

TEST(ServeSnapshot, EngineAndSnapshotBreakExactTiesTheSameWay) {
    // 40 centers, all inside the active box [0,1]², so every pruning key
    // is 0. For each pair (i < j), center i moves to (0.25, 0.5) and center
    // j to (0.75, 0.5): the point (0.5, 0.5) is then exactly equidistant
    // from both, and every other center (on y = 0 or y = 1) is farther.
    // The snapshot scans in id order and keeps i; the engine must too,
    // which holds only if it visits equal keys in id order.
    constexpr std::int32_t k = 40;
    std::vector<Point2> decoys(k);
    for (std::int32_t c = 0; c < k; ++c)
        decoys[static_cast<std::size_t>(c)] =
            Point2{{static_cast<double>(c) / (k - 1), c % 2 == 0 ? 0.0 : 1.0}};
    const std::vector<double> influence(k, 1.0);
    const std::vector<Point2> points{Point2{{0.0, 0.0}}, Point2{{1.0, 1.0}},
                                     Point2{{0.5, 0.5}}};
    const std::vector<std::size_t> order{0, 1, 2};
    Settings settings;
    settings.threads = 1;

    int disagreements = 0;
    for (std::int32_t i = 0; i < k; ++i) {
        for (std::int32_t j = i + 1; j < k; ++j) {
            auto centers = decoys;
            centers[static_cast<std::size_t>(i)] = Point2{{0.25, 0.5}};
            centers[static_cast<std::size_t>(j)] = Point2{{0.75, 0.5}};
            const auto snap = PartitionSnapshot<2>::fromCenters(
                std::span<const Point2>(centers), influence);
            ASSERT_EQ(snap.blockOf(points[2]), i);

            geo::core::AssignEngine<2> engine(points, {}, settings, k);
            engine.setActive(order, order.size());
            engine.beginRound(centers, influence, engine.activeBox());
            std::vector<double> sizes(k, 0.0);
            engine.sweep(sizes);
            if (engine.assignment()[2] != i) ++disagreements;
        }
    }
    EXPECT_EQ(disagreements, 0) << "of " << k * (k - 1) / 2 << " tied pairs";
}

}  // namespace
