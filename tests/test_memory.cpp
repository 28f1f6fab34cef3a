// Memory-budget suite: parseMemBytes / GEO_MEM_BUDGET resolution, the
// core::PointStore mirror (residency boundary, gather correctness,
// accounting), and the contract that a budgeted pipeline — which reads the
// points through the order instead of a mirror — reproduces the resident
// pipeline BITWISE for flat, warm-started, and hierarchical runs at several
// thread counts. Both sources hand the engine the same doubles and it folds
// its fixed 1024-slot blocks in the same ascending order, so not a single
// double may differ.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "core/assign_kernel.hpp"
#include "core/geographer.hpp"
#include "core/point_store.hpp"
#include "core/settings.hpp"
#include "gen/delaunay2d.hpp"
#include "hier/hier_partition.hpp"
#include "hier/topology.hpp"
#include "repart/repartition.hpp"
#include "scoped_env.hpp"
#include "support/mem.hpp"
#include "support/rng.hpp"

namespace {

using geo::Box2;
using geo::Point2;
using geo::Xoshiro256;
using geo::core::AssignEngine;
using geo::core::GeographerResult;
using geo::core::KMeansCounters;
using geo::core::PointStore;
using geo::core::Settings;
using geo::support::parseMemBytes;
using geo::test::ScopedEnv;

std::vector<double> fractionalWeights(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<double> w;
    w.reserve(n);
    for (std::size_t i = 0; i < n; ++i) w.push_back(0.25 + rng.uniform());
    return w;
}

TEST(ParseMemBytes, PlainAndSuffixedValues) {
    EXPECT_EQ(parseMemBytes("0"), 0u);
    EXPECT_EQ(parseMemBytes("123"), 123u);
    EXPECT_EQ(parseMemBytes("4k"), 4096u);
    EXPECT_EQ(parseMemBytes("4K"), 4096u);
    EXPECT_EQ(parseMemBytes("4kb"), 4096u);
    EXPECT_EQ(parseMemBytes("100m"), 100u * 1024 * 1024);
    EXPECT_EQ(parseMemBytes("100MB"), 100u * 1024 * 1024);
    EXPECT_EQ(parseMemBytes("2g"), 2ull * 1024 * 1024 * 1024);
    EXPECT_EQ(parseMemBytes("2Gb"), 2ull * 1024 * 1024 * 1024);
}

TEST(ParseMemBytes, RejectsGarbageAndOverflow) {
    EXPECT_THROW((void)parseMemBytes(""), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("abc"), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("12x"), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("-5"), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("k"), std::invalid_argument);
    EXPECT_THROW((void)parseMemBytes("99999999999999999999g"), std::invalid_argument);
}

TEST(MemoryBudget, SettingsFieldWinsOverEnvironment) {
    const ScopedEnv env("GEO_MEM_BUDGET", "1m");
    Settings s;
    EXPECT_EQ(s.resolvedMemoryBudget(), 1024u * 1024);  // env fallback
    s.memoryBudgetBytes = 4096;
    EXPECT_EQ(s.resolvedMemoryBudget(), 4096u);  // explicit field wins
}

TEST(MemoryBudget, UnsetEnvironmentMeansUnlimited) {
    const ScopedEnv env("GEO_MEM_BUDGET", nullptr);
    Settings s;
    EXPECT_EQ(s.resolvedMemoryBudget(), 0u);
}

TEST(MemoryBudget, UnparseableEnvironmentThrows) {
    const ScopedEnv env("GEO_MEM_BUDGET", "lots");
    Settings s;
    EXPECT_THROW((void)s.resolvedMemoryBudget(), std::invalid_argument);
    // Uncached: fixing the variable fixes the resolution.
    const ScopedEnv fixed("GEO_MEM_BUDGET", "8k");
    EXPECT_EQ(s.resolvedMemoryBudget(), 8192u);
}

class PointStoreFixture : public ::testing::Test {
protected:
    void SetUp() override {
        Xoshiro256 rng(71);
        points_.resize(5000);
        for (auto& p : points_) {
            p[0] = rng.uniform();
            p[1] = rng.uniform();
        }
        weights_ = fractionalWeights(points_.size(), 72);
        order_.resize(points_.size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
    }
    std::vector<Point2> points_;
    std::vector<double> weights_;
    std::vector<std::size_t> order_;
};

TEST_F(PointStoreFixture, ResidentExactlyWhenTheActiveSetFitsTheBudget) {
    constexpr std::uint64_t bpp = PointStore<2>::kBytesPerPoint;
    const std::size_t active = 3000;
    const std::uint64_t fits = bpp * active;

    PointStore<2> unlimited(points_, weights_, /*budgetBytes=*/0);
    unlimited.setActive(order_, active, 2);
    EXPECT_TRUE(unlimited.resident());

    PointStore<2> exact(points_, weights_, fits);
    exact.setActive(order_, active, 2);
    EXPECT_TRUE(exact.resident());
    EXPECT_EQ(exact.accounting().residentBytes, fits);

    PointStore<2> oneShort(points_, weights_, fits - 1);
    oneShort.setActive(order_, active, 2);
    EXPECT_FALSE(oneShort.resident());
    // One point less fits the same budget again.
    oneShort.setActive(order_, active - 1, 2);
    EXPECT_TRUE(oneShort.resident());
    EXPECT_EQ(oneShort.accounting().residentBytes, bpp * (active - 1));
}

TEST_F(PointStoreFixture, MirrorHoldsThePointsInActiveOrder) {
    // A non-identity order (reversed): mirror slot s must hold point
    // order[s] and its weight; without weights every slot weighs 1.
    std::vector<std::size_t> reversed(order_.rbegin(), order_.rend());
    PointStore<2> store(points_, weights_, /*budgetBytes=*/0);
    store.setActive(reversed, 4321, 3);
    PointStore<2> unit(points_, {}, /*budgetBytes=*/0);
    unit.setActive(reversed, 4321, 3);
    const auto mirror = store.mirror();
    const auto unitMirror = unit.mirror();
    ASSERT_NE(mirror.weight, nullptr);
    ASSERT_NE(unitMirror.weight, nullptr);
    for (std::size_t s = 0; s < store.activeCount(); ++s) {
        const std::size_t p = reversed[s];
        ASSERT_EQ(mirror.x[0][s], points_[p][0]) << "slot " << s;
        ASSERT_EQ(mirror.x[1][s], points_[p][1]) << "slot " << s;
        ASSERT_EQ(mirror.weight[s], weights_[p]) << "slot " << s;
        ASSERT_EQ(unitMirror.weight[s], 1.0) << "slot " << s;
    }
}

TEST_F(PointStoreFixture, NoMirrorPastTheBoundary) {
    std::vector<std::size_t> reversed(order_.rbegin(), order_.rend());
    const std::size_t active = 4000;
    PointStore<2> store(points_, weights_, PointStore<2>::kBytesPerPoint * active - 1);
    // A prefix that fits is mirrored first; growing past the budget
    // releases the mirror and keeps only its peak.
    store.setActive(reversed, active / 2, 1);
    ASSERT_TRUE(store.resident());
    store.setActive(reversed, active, 1);
    EXPECT_FALSE(store.resident());
    EXPECT_EQ(store.accounting().residentBytes, 0u);
    EXPECT_EQ(store.accounting().peakResidentBytes,
              PointStore<2>::kBytesPerPoint * (active / 2));
    const auto mirror = store.mirror();
    EXPECT_EQ(mirror.x[0], nullptr);
    EXPECT_EQ(mirror.x[1], nullptr);
    EXPECT_EQ(mirror.weight, nullptr);
    // The box does not depend on the mirror.
    Box2 box = Box2::empty();
    for (std::size_t s = 0; s < active; ++s) box.extend(points_[reversed[s]]);
    EXPECT_EQ(store.activeBox().lo, box.lo);
    EXPECT_EQ(store.activeBox().hi, box.hi);

    PointStore<2> never(points_, weights_, PointStore<2>::kBytesPerPoint * active - 1);
    never.setActive(reversed, active, 1);
    EXPECT_EQ(never.accounting().peakResidentBytes, 0u);
}

/// The tentpole assertion: identical bits with and without a budget.
void expectSameResult(const GeographerResult& got, const GeographerResult& want,
                      const std::string& label) {
    EXPECT_EQ(got.partition, want.partition) << label;
    EXPECT_EQ(got.centerCoords, want.centerCoords) << label;
    EXPECT_EQ(got.influence, want.influence) << label;
    EXPECT_EQ(got.imbalance, want.imbalance) << label;
    EXPECT_EQ(got.converged, want.converged) << label;
    // The sweeps must take the very same decisions point by point: every
    // work counter matches (spilledTiles aside, a memory figure).
    for (std::size_t i = 0; i < geo::core::kSummedCounters.size(); ++i) {
        const auto field = geo::core::kSummedCounters[i];
        if (field == &KMeansCounters::spilledTiles) continue;
        EXPECT_EQ(got.counters.*field, want.counters.*field)
            << label << ", kSummedCounters[" << i << "]";
    }
    EXPECT_EQ(got.counters.outerIterations, want.counters.outerIterations) << label;
}

TEST(ChunkedVsResident, FlatPartitionBitwise) {
    const auto mesh = geo::gen::delaunay2d(6000, 311);
    const auto weights = fractionalWeights(mesh.points.size(), 312);
    const std::int32_t k = 12;

    Settings resident;
    resident.threads = 1;
    const auto want =
        geo::core::partitionGeographer<2>(mesh.points, weights, k, /*ranks=*/2, resident);
    EXPECT_EQ(want.counters.spilledTiles, 0u);

    for (const int threads : {1, 4}) {
        for (const std::uint64_t budget : {std::uint64_t{32768}, std::uint64_t{49152}}) {
            Settings s;
            s.threads = threads;
            s.memoryBudgetBytes = budget;
            const auto got =
                geo::core::partitionGeographer<2>(mesh.points, weights, k, 2, s);
            expectSameResult(got, want,
                             "budget " + std::to_string(budget) + " t" +
                                 std::to_string(threads));
            // Nothing is ever refilled. A rank's 3000 points outgrow the
            // budget, so the final store holds no mirror; only the first
            // sampled prefixes (100 points doubling) fit and were mirrored.
            EXPECT_EQ(got.counters.spilledTiles, 0u);
            EXPECT_EQ(got.counters.residentBytes, 0u);
            EXPECT_GT(got.counters.peakTileBytes, 0u);
            EXPECT_LE(got.counters.peakTileBytes, budget);
        }
    }
}

TEST(ChunkedVsResident, WarmRepartitionBitwise) {
    const auto mesh = geo::gen::delaunay2d(5000, 317);
    auto drifted = mesh.points;
    for (auto& p : drifted) {
        p[0] += 0.003;
        p[1] -= 0.002;
    }
    const auto weights = fractionalWeights(mesh.points.size(), 318);
    const std::int32_t k = 8;

    const auto runBoth = [&](std::uint64_t budget, int threads) {
        Settings s;
        s.threads = threads;
        s.memoryBudgetBytes = budget;
        geo::repart::RepartState<2> state;
        auto first = geo::repart::repartitionGeographer<2>(mesh.points, weights, k,
                                                           /*ranks=*/2, s, state);
        auto second =
            geo::repart::repartitionGeographer<2>(drifted, weights, k, 2, s, state);
        return std::make_pair(std::move(first), std::move(second));
    };

    const auto want = runBoth(0, 1);
    ASSERT_TRUE(want.second.warmStarted);
    for (const int threads : {1, 4}) {
        const auto got = runBoth(32768, threads);
        const std::string label = "warm t" + std::to_string(threads);
        EXPECT_EQ(got.second.warmStarted, want.second.warmStarted) << label;
        expectSameResult(got.first.result, want.first.result, label + " step1");
        expectSameResult(got.second.result, want.second.result, label + " step2");
        // The warm step activates every point at once (no sampling): no
        // prefix fits, so no mirror is ever built.
        EXPECT_EQ(got.second.result.counters.spilledTiles, 0u);
        EXPECT_EQ(got.second.result.counters.peakTileBytes, 0u);
    }
}

TEST(ChunkedVsResident, HierarchicalBitwise) {
    const auto mesh = geo::gen::delaunay2d(4000, 331);
    const auto weights = fractionalWeights(mesh.points.size(), 332);
    const std::array<std::int32_t, 2> branchings{3, 2};
    const auto topo = geo::hier::Topology::fromBranching(branchings);

    Settings resident;
    resident.threads = 1;
    const auto want = geo::hier::partitionHierarchical<2>(mesh.points, weights, topo,
                                                          /*ranks=*/2, resident);

    for (const int threads : {1, 4}) {
        Settings s;
        s.threads = threads;
        s.memoryBudgetBytes = 32768;
        const auto got =
            geo::hier::partitionHierarchical<2>(mesh.points, weights, topo, 2, s);
        const std::string label = "hier t" + std::to_string(threads);
        EXPECT_EQ(got.partition, want.partition) << label;
        EXPECT_EQ(got.imbalance, want.imbalance) << label;
        EXPECT_EQ(got.warmNodes, want.warmNodes) << label;
        EXPECT_EQ(got.coldNodes, want.coldNodes) << label;
    }
}

TEST(ChunkedVsResident, EnvironmentBudgetDrivesTheEngineToo) {
    // The GEO_MEM_BUDGET route (no Settings field) must chunk identically.
    const auto mesh = geo::gen::delaunay2d(3000, 337);
    Settings s;
    const auto want = geo::core::partitionGeographer<2>(mesh.points, {}, 6, 1, s);
    const ScopedEnv env("GEO_MEM_BUDGET", "32k");
    const auto got = geo::core::partitionGeographer<2>(mesh.points, {}, 6, 1, s);
    expectSameResult(got, want, "GEO_MEM_BUDGET=32k");
    EXPECT_EQ(got.counters.spilledTiles, 0u);
    EXPECT_EQ(got.counters.residentBytes, 0u);
}

TEST(ChunkedVsResident, MoreBlocksThanOneChunkBitwise) {
    // One rank holding more blocks than one chunk of partials, the last
    // block partial: reading through the order must reproduce the mirrored
    // run in every chunk, fractional weights and all. (The fold itself is
    // checked against a reference in test_assign_engine.)
    constexpr std::size_t n =
        (AssignEngine<2>::kChunkBlocks + 1) * AssignEngine<2>::kBlockSlots + 617;
    Xoshiro256 rng(341);
    std::vector<Point2> points(n);
    for (auto& p : points) {
        p[0] = rng.uniform();
        p[1] = rng.uniform();
    }
    const auto weights = fractionalWeights(n, 342);
    const std::int32_t k = 16;
    const auto settings = [](int threads, std::uint64_t budget) {
        Settings s;
        s.threads = threads;
        s.memoryBudgetBytes = budget;
        s.sampledInitialization = false;
        s.maxIterations = 3;
        return s;
    };

    const auto want =
        geo::core::partitionGeographer<2>(points, weights, k, /*ranks=*/1, settings(1, 0));
    EXPECT_GT(want.counters.peakTileBytes, 0u);
    for (const int threads : {1, 4}) {
        const auto got = geo::core::partitionGeographer<2>(points, weights, k, 1,
                                                           settings(threads, 1u << 20));
        expectSameResult(got, want, "chunked t" + std::to_string(threads));
        EXPECT_EQ(got.counters.spilledTiles, 0u);
        EXPECT_EQ(got.counters.peakTileBytes, 0u);
    }
}

}  // namespace
