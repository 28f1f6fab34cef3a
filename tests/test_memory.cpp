// Memory-budget suite: parseMemBytes / GEO_MEM_BUDGET resolution, the
// tiled core::PointStore (wave geometry, gather correctness, accounting),
// and the tentpole contract — a budgeted (chunked) pipeline reproduces the
// resident pipeline BITWISE for flat, warm-started, and hierarchical runs
// at several thread counts. The chunked path only regroups the engine's
// fixed 1024-point blocks into waves and folds them in the same ascending
// order, so not a single double may differ.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

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

using geo::Point2;
using geo::Xoshiro256;
using geo::core::GeographerResult;
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

TEST_F(PointStoreFixture, UnlimitedBudgetIsResidentInOneWave) {
    PointStore<2> store(points_, weights_, /*budgetBytes=*/0);
    store.setActive(order_, points_.size(), 2);
    EXPECT_TRUE(store.resident());
    EXPECT_EQ(store.waveCount(), 1u);
    EXPECT_EQ(store.wavePoints(), points_.size());
    EXPECT_EQ(store.accounting().spilledTiles, 0u);
}

TEST_F(PointStoreFixture, TightBudgetChunksIntoTileAlignedWaves) {
    // 2D: 24 bytes/point. 32768 bytes -> 1365 points -> one whole tile.
    PointStore<2> store(points_, weights_, 32768);
    store.setActive(order_, points_.size(), 2);
    EXPECT_FALSE(store.resident());
    EXPECT_EQ(store.wavePoints(), PointStore<2>::kTilePoints);
    EXPECT_EQ(store.waveCount(),
              (points_.size() + PointStore<2>::kTilePoints - 1) /
                  PointStore<2>::kTilePoints);
    EXPECT_LE(store.accounting().residentBytes,
              PointStore<2>::kTilePoints * PointStore<2>::kBytesPerPoint);
}

TEST_F(PointStoreFixture, BudgetSmallerThanOneTileClampsUp) {
    PointStore<2> store(points_, weights_, /*budgetBytes=*/1);
    store.setActive(order_, points_.size(), 1);
    EXPECT_FALSE(store.resident());
    EXPECT_EQ(store.wavePoints(), PointStore<2>::kTilePoints);
}

TEST_F(PointStoreFixture, WavesGatherTheActiveOrderExactly) {
    // A non-identity order (reversed) through a chunked store: every wave
    // slot j must hold point order[begin + j] and its weight.
    std::vector<std::size_t> reversed(order_.rbegin(), order_.rend());
    PointStore<2> store(points_, weights_, 49152);  // 2048-point waves
    store.setActive(reversed, points_.size(), 3);
    ASSERT_GT(store.waveCount(), 1u);
    for (std::size_t w = 0; w < store.waveCount(); ++w) {
        const auto view = store.wave(w, 3);
        EXPECT_EQ(view.begin % PointStore<2>::kTilePoints, 0u);
        for (std::size_t j = 0; j < view.count; ++j) {
            const std::size_t p = reversed[view.begin + j];
            ASSERT_EQ(view.x[0][j], points_[p][0]) << "wave " << w << " slot " << j;
            ASSERT_EQ(view.x[1][j], points_[p][1]);
            ASSERT_EQ(view.weight[j], weights_[p]);
        }
    }
}

TEST_F(PointStoreFixture, SpilledTilesCountRefillsOnly) {
    PointStore<2> store(points_, weights_, 49152);
    store.setActive(order_, points_.size(), 1);
    const std::size_t waves = store.waveCount();
    ASSERT_GT(waves, 1u);
    // First full pass: every tile gathered once, nothing is a refill yet.
    for (std::size_t w = 0; w < waves; ++w) (void)store.wave(w, 1);
    EXPECT_EQ(store.accounting().spilledTiles, 0u);
    // Second pass re-gathers every wave: now each tile fill is a spill.
    for (std::size_t w = 0; w < waves; ++w) (void)store.wave(w, 1);
    EXPECT_GT(store.accounting().spilledTiles, 0u);
    // Re-requesting the loaded wave is free — no fill, no spill.
    const auto spills = store.accounting().spilledTiles;
    (void)store.wave(waves - 1, 1);
    EXPECT_EQ(store.accounting().spilledTiles, spills);
}

/// The tentpole assertion: identical bits with and without a budget.
void expectSameResult(const GeographerResult& got, const GeographerResult& want,
                      const std::string& label) {
    EXPECT_EQ(got.partition, want.partition) << label;
    EXPECT_EQ(got.centerCoords, want.centerCoords) << label;
    EXPECT_EQ(got.influence, want.influence) << label;
    EXPECT_EQ(got.imbalance, want.imbalance) << label;
    EXPECT_EQ(got.converged, want.converged) << label;
    // The sweeps must take the very same decisions point by point.
    EXPECT_EQ(got.counters.pointEvaluations, want.counters.pointEvaluations) << label;
    EXPECT_EQ(got.counters.boundSkips, want.counters.boundSkips) << label;
    EXPECT_EQ(got.counters.distanceCalcs, want.counters.distanceCalcs) << label;
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
            // Counter plausibility: running under budget must actually spill,
            // and the tile high-water mark must respect the wave cap.
            EXPECT_GT(got.counters.spilledTiles, 0u);
            EXPECT_GT(got.counters.peakTileBytes, 0u);
            const std::uint64_t bpp = PointStore<2>::kBytesPerPoint;
            const std::uint64_t wavePoints =
                std::max<std::uint64_t>(PointStore<2>::kTilePoints,
                                        budget / bpp / PointStore<2>::kTilePoints *
                                            PointStore<2>::kTilePoints);
            EXPECT_LE(got.counters.peakTileBytes, wavePoints * bpp);
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
        EXPECT_GT(got.second.result.counters.spilledTiles, 0u);
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
    EXPECT_EQ(got.partition, want.partition);
    EXPECT_EQ(got.centerCoords, want.centerCoords);
    EXPECT_GT(got.counters.spilledTiles, 0u);
}

}  // namespace
