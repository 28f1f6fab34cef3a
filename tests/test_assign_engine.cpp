// Unit tests for the assignment engine (core/assign_kernel), driven
// directly — without the surrounding balanced k-means loop — so round
// sequences the full algorithm cannot easily produce are constructible.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <numeric>
#include <vector>

#include "core/assign_kernel.hpp"
#include "core/tile_kernel.hpp"
#include "support/rng.hpp"

namespace {

using namespace geo;
using geo::core::AssignEngine;
using geo::core::Settings;

template <int D>
std::vector<Point<D>> randomPoints(int n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Point<D>> pts;
    for (int i = 0; i < n; ++i) {
        Point<D> p;
        for (int d = 0; d < D; ++d) p[d] = rng.uniform();
        pts.push_back(p);
    }
    return pts;
}

std::vector<std::size_t> identityOrder(std::size_t n) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    return order;
}

/// Brute-force argmin of the effective distance.
template <int D>
std::int32_t nearestCenter(const Point<D>& p, const std::vector<Point<D>>& centers,
                           const std::vector<double>& influence) {
    double best = std::numeric_limits<double>::infinity();
    std::int32_t bestC = -1;
    for (std::size_t c = 0; c < centers.size(); ++c) {
        const double e = distance(p, centers[c]) / influence[c];
        if (e < best) {
            best = e;
            bestC = static_cast<std::int32_t>(c);
        }
    }
    return bestC;
}

/// Brute-force check of one sweep over the active prefix order[0, prefix):
/// every active point holds its argmin, every other point −1, and the
/// unit-weight sizes add up to the active count.
template <int D>
void expectPrefixMatchesBruteForce(const AssignEngine<D>& engine,
                                   const std::vector<Point<D>>& points,
                                   const std::vector<std::size_t>& order, std::size_t prefix,
                                   const std::vector<Point<D>>& centers,
                                   const std::vector<double>& influence,
                                   const std::vector<double>& sizes) {
    std::vector<char> active(points.size(), 0);
    for (std::size_t s = 0; s < prefix; ++s) active[order[s]] = 1;
    const auto assignment = engine.assignment();
    ASSERT_EQ(assignment.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        const std::int32_t want = active[p] ? nearestCenter(points[p], centers, influence) : -1;
        ASSERT_EQ(assignment[p], want) << "prefix " << prefix << " point " << p;
    }
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0.0), static_cast<double>(prefix))
        << "prefix " << prefix;
}

/// Every other engine test runs the identity order, where slot and point
/// id coincide. A sampled run walks a random permutation whose prefix
/// grows between calls, with lazy epochs replayed on slots that were last
/// touched under a shorter prefix: the slot-indexed state must still map
/// back to the right points.
TEST(AssignEngine, ShuffledGrowingPrefixMatchesBruteForce) {
    const auto points = randomPoints<2>(9000, 307);
    std::vector<std::size_t> order = identityOrder(points.size());
    Xoshiro256 shuffle(311);
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[shuffle.below(i)]);

    for (const int threads : {1, 3}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        auto centers = randomPoints<2>(16, 313);
        std::vector<double> influence(16, 1.0);
        Settings s;
        s.threads = threads;
        AssignEngine<2> engine(points, {}, order, s, 16);
        std::vector<double> sizes(16, 0.0);
        Xoshiro256 rng(317);
        for (const std::size_t prefix : {std::size_t{1000}, std::size_t{2000},
                                         std::size_t{4000}, points.size()}) {
            engine.setActive(prefix);
            engine.beginRound(centers, influence);
            engine.sweep(sizes);
            expectPrefixMatchesBruteForce(engine, points, order, prefix, centers, influence,
                                          sizes);

            // Between rounds: one influence epoch, then one move epoch
            // (centers shift, influence erodes), both replayed lazily.
            std::vector<double> ratio(16), shift(16);
            for (std::size_t c = 0; c < 16; ++c) {
                const double before = influence[c];
                influence[c] *= rng.uniform(0.96, 1.04);
                ratio[c] = before / influence[c];
            }
            engine.pushInfluenceEpoch(ratio);
            for (std::size_t c = 0; c < 16; ++c) {
                Point2 moved = centers[c];
                moved[0] += rng.uniform(-0.01, 0.01);
                moved[1] += rng.uniform(-0.01, 0.01);
                const double delta = distance(moved, centers[c]);
                centers[c] = moved;
                const double before = influence[c];
                influence[c] *= rng.uniform(0.98, 1.02);
                ratio[c] = before / influence[c];
                shift[c] = delta / influence[c];
            }
            engine.pushMoveEpoch(ratio, shift);
        }
        EXPECT_GT(engine.counters().boundSkips, 0u);
        EXPECT_GT(engine.counters().epochBoundApplications, 0u);
    }
}

class EngineModeSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Modes, EngineModeSweep, ::testing::Values(1, 3));  // threads

TEST_P(EngineModeSweep, SingleSweepMatchesBruteForce) {
    const int threads = GetParam();
    const auto points = randomPoints<2>(4000, 211);
    const auto centers = randomPoints<2>(23, 223);
    Xoshiro256 rng(227);
    std::vector<double> influence;
    for (std::size_t c = 0; c < centers.size(); ++c)
        influence.push_back(rng.uniform(0.5, 2.0));
    Settings s;
    s.threads = threads;
    const auto order = identityOrder(points.size());
    AssignEngine<2> engine(points, {}, order, s, 23);
    engine.setActive(points.size());
    engine.beginRound(centers, influence);
    std::vector<double> sizes(23, 0.0);
    engine.sweep(sizes);
    const auto assignment = engine.assignment();
    for (std::size_t p = 0; p < points.size(); ++p)
        ASSERT_EQ(assignment[p], nearestCenter(points[p], centers, influence))
            << "point " << p;
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0.0),
              static_cast<double>(points.size()));
}

TEST(AssignEngine, LazyEpochBoundsSkipButNeverMisassign) {
    const auto points = randomPoints<2>(5000, 229);
    auto centers = randomPoints<2>(12, 233);
    std::vector<double> influence(12, 1.0);
    Settings s;
    const auto order = identityOrder(points.size());
    AssignEngine<2> engine(points, {}, order, s, 12);
    engine.setActive(points.size());
    std::vector<double> sizes(12, 0.0);
    engine.beginRound(centers, influence);
    engine.sweep(sizes);

    // Apply three influence perturbations, each pushed as a lazy epoch; the
    // bounds replayed on touch must stay conservative: a skipped point's
    // membership is provably unchanged, so every assignment still equals
    // the brute-force argmin under the *current* influence.
    Xoshiro256 rng(239);
    for (int step = 0; step < 3; ++step) {
        std::vector<double> ratio(12);
        for (std::size_t c = 0; c < 12; ++c) {
            const double before = influence[c];
            influence[c] *= rng.uniform(0.96, 1.04);
            ratio[c] = before / influence[c];
        }
        engine.pushInfluenceEpoch(ratio);
        engine.beginRound(centers, influence);
        engine.sweep(sizes);
        const auto assignment = engine.assignment();
        for (std::size_t p = 0; p < points.size(); ++p)
            ASSERT_EQ(assignment[p], nearestCenter(points[p], centers, influence))
                << "step " << step << " point " << p;
    }
    EXPECT_GT(engine.counters().boundSkips, 0u);
    EXPECT_GT(engine.counters().epochBoundApplications, 0u);
    // A skipped point applies epochs without a fresh distance scan, so the
    // lazy scheme did strictly less relaxation work than three eager O(n)
    // sweeps would have.
    EXPECT_LE(engine.counters().epochBoundApplications, 3u * points.size());
}

TEST(AssignEngine, MoveEpochKeepsBoundsConservative) {
    const auto points = randomPoints<2>(4000, 241);
    auto centers = randomPoints<2>(10, 251);
    std::vector<double> influence(10, 1.0);
    Settings s;
    const auto order = identityOrder(points.size());
    AssignEngine<2> engine(points, {}, order, s, 10);
    engine.setActive(points.size());
    std::vector<double> sizes(10, 0.0);
    engine.beginRound(centers, influence);
    engine.sweep(sizes);

    // Move every center a little and erode influence, as an outer k-means
    // iteration would, then push the corresponding move epoch.
    Xoshiro256 rng(257);
    std::vector<double> ratio(10), shift(10);
    for (std::size_t c = 0; c < 10; ++c) {
        Point2 moved = centers[c];
        moved[0] += rng.uniform(-0.01, 0.01);
        moved[1] += rng.uniform(-0.01, 0.01);
        const double delta = distance(moved, centers[c]);
        centers[c] = moved;
        const double before = influence[c];
        influence[c] *= rng.uniform(0.98, 1.02);
        ratio[c] = before / influence[c];
        shift[c] = delta / influence[c];
    }
    engine.pushMoveEpoch(ratio, shift);
    engine.beginRound(centers, influence);
    engine.sweep(sizes);
    const auto assignment = engine.assignment();
    for (std::size_t p = 0; p < points.size(); ++p)
        ASSERT_EQ(assignment[p], nearestCenter(points[p], centers, influence))
            << "point " << p;
}

TEST(AssignEngine, ThreadCountNeverChangesSizesBitwise) {
    // Fractional weights: the block-wise partial sums must reduce to the
    // exact same doubles at every thread count (fixed block boundaries,
    // serial block-order reduction) — the engine's determinism contract.
    const auto points = randomPoints<2>(7001, 263);
    Xoshiro256 rng(269);
    std::vector<double> weights;
    for (std::size_t i = 0; i < points.size(); ++i) weights.push_back(rng.uniform(0.1, 3.0));
    const auto centers = randomPoints<2>(16, 271);
    const std::vector<double> influence(16, 1.0);

    std::vector<double> want;
    std::vector<std::int32_t> wantAssign;
    for (const int threads : {1, 2, 3, 4}) {
        Settings s;
        s.threads = threads;
        const auto order = identityOrder(points.size());
        AssignEngine<2> engine(points, weights, order, s, 16);
        engine.setActive(points.size());
        engine.beginRound(centers, influence);
        std::vector<double> sizes(16, 0.0);
        engine.sweep(sizes);
        const auto assign = engine.assignment();
        if (threads == 1) {
            want = sizes;
            wantAssign = assign;
        } else {
            EXPECT_EQ(sizes, want) << "threads=" << threads;
            EXPECT_EQ(assign, wantAssign) << "threads=" << threads;
        }
    }
}

TEST(AssignEngine, ChunkedFoldIsTheBlockOrderedLeftFold) {
    // More blocks than one chunk of partials, the last block partial,
    // fractional weights and a shuffled order: the sweep's sizes and the
    // center update's sums must equal the per-block partials (slot order
    // within a block) folded in ascending block order — with and without
    // a mirror, at any thread count, however the blocks are chunked.
    using Engine = AssignEngine<2>;
    constexpr std::int32_t k = 8;
    const std::size_t n = (Engine::kChunkBlocks + 1) * Engine::kBlockSlots + 333;
    const auto points = randomPoints<2>(static_cast<int>(n), 401);
    Xoshiro256 rng(409);
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) weights.push_back(rng.uniform(0.1, 3.0));
    auto order = identityOrder(n);
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    const auto centers = randomPoints<2>(k, 419);
    const std::vector<double> influence(k, 1.0);

    std::vector<double> wantSizes(k, 0.0);
    std::vector<double> wantSums(k * 3, 0.0);
    for (std::size_t s0 = 0; s0 < n; s0 += Engine::kBlockSlots) {
        std::vector<double> sizes(k, 0.0);
        std::vector<double> sums(k * 3, 0.0);
        for (std::size_t s = s0; s < std::min(n, s0 + Engine::kBlockSlots); ++s) {
            const std::size_t p = order[s];
            const auto c = static_cast<std::size_t>(nearestCenter(points[p], centers, influence));
            sizes[c] += weights[p];
            for (int d = 0; d < 2; ++d) sums[c * 3 + d] += weights[p] * points[p][d];
            sums[c * 3 + 2] += weights[p];
        }
        for (std::size_t c = 0; c < sizes.size(); ++c) wantSizes[c] += sizes[c];
        for (std::size_t c = 0; c < sums.size(); ++c) wantSums[c] += sums[c];
    }

    for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1} << 20}) {
        for (const int threads : {1, 3}) {
            Settings s;
            s.threads = threads;
            s.memoryBudgetBytes = budget;
            Engine engine(points, weights, order, s, k);
            engine.setActive(n);
            engine.beginRound(centers, influence);
            std::vector<double> sizes(k);
            std::vector<double> sums(k * 3);
            engine.sweep(sizes);
            engine.updateCenters(sums);
            EXPECT_EQ(sizes, wantSizes) << "budget " << budget << " threads " << threads;
            EXPECT_EQ(sums, wantSums) << "budget " << budget << " threads " << threads;
        }
    }
}

TEST(AssignEngine, ZeroActivePointsIsANoop) {
    const auto points = randomPoints<2>(10, 277);
    const auto centers = randomPoints<2>(3, 281);
    const std::vector<double> influence(3, 1.0);
    Settings s;
    const auto order = identityOrder(points.size());
    AssignEngine<2> engine(points, {}, order, s, 3);
    engine.setActive(0);
    engine.beginRound(centers, influence);
    std::vector<double> sizes(3, 1.0);
    engine.sweep(sizes);
    for (const double v : sizes) EXPECT_EQ(v, 0.0);
}

TEST(AssignEngine, BatchKernelCountsBatchedDistances) {
    const auto points = randomPoints<2>(2000, 283);
    const auto centers = randomPoints<2>(8, 293);
    const std::vector<double> influence(8, 1.0);
    Settings s;
    const auto order = identityOrder(points.size());
    AssignEngine<2> engine(points, {}, order, s, 8);
    engine.setActive(points.size());
    engine.beginRound(centers, influence);
    std::vector<double> sizes(8, 0.0);
    engine.sweep(sizes);
    EXPECT_GT(engine.counters().distanceCalcs, 0u);
    EXPECT_EQ(engine.counters().batchedDistanceCalcs, engine.counters().distanceCalcs);
}

/// One fold sequence's lane state: coordinates plus the four running
/// arrays, seen through a TileLanes view.
template <int D>
struct LaneBuffers {
    std::array<std::vector<double>, static_cast<std::size_t>(D)> x;
    std::vector<double> best2, bestC, second2, secondC;

    [[nodiscard]] core::TileLanes<D> view() {
        core::TileLanes<D> lanes;
        for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d) lanes.x[d] = x[d].data();
        lanes.best2 = best2.data();
        lanes.bestC = bestC.data();
        lanes.second2 = second2.data();
        lanes.secondC = secondC.data();
        return lanes;
    }
};

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

#if defined(__x86_64__)
/// Folds sixteen centers into `count` lanes twice — as runs of 1, 2, 5 and
/// 8 centers through foldCenters (the wide body, tail lanes to the
/// baseline), and one center at a time through the baseline body — and
/// requires every lane bitwise equal after every run. The lanes cycle
/// through random points, points sitting on center 8 (e2 = 0), points
/// equidistant from centers 9 and 10 (an exact tie), and points so far out
/// that e2 overflows to +inf; their starting state cycles through +inf, a
/// finite best and runner-up, and a finite best alone. Center 11 duplicates
/// center 8 under another id, tying with it on every lane; the tied centers
/// all sit in the 8-center run, so the run order decides their ties.
template <int D, bool TrackSecond>
void expectRunsMatchBaseline(std::size_t count, std::uint64_t seed) {
    constexpr std::array<std::size_t, 4> kRuns{1, 2, 5, 8};
    constexpr std::size_t kCenters = 16;
    Xoshiro256 rng(seed);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<Point<D>> centers(kCenters);
    std::vector<double> inv(kCenters);
    for (std::size_t c = 0; c < kCenters; ++c) {
        for (int d = 0; d < D; ++d) centers[c][d] = rng.uniform();
        const double influence = rng.uniform(0.5, 2.0);
        inv[c] = 1.0 / (influence * influence);
    }
    centers[9][0] = 0.25;
    centers[10] = centers[9];
    centers[10][0] = 0.75;
    inv[10] = inv[9];
    centers[11] = centers[8];
    inv[11] = inv[8];
    std::array<std::vector<double>, static_cast<std::size_t>(D)> cx;
    std::vector<double> ids(kCenters);
    for (std::size_t c = 0; c < kCenters; ++c) {
        for (int d = 0; d < D; ++d) cx[static_cast<std::size_t>(d)].push_back(centers[c][d]);
        ids[c] = static_cast<double>(c);
    }

    LaneBuffers<D> base;
    for (auto& xd : base.x) xd.resize(count);
    base.best2.resize(count);
    base.bestC.resize(count);
    base.second2.resize(count);
    base.secondC.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
        Point<D> p;
        for (int d = 0; d < D; ++d) p[d] = rng.uniform();
        if (j % 4 == 1) p = centers[8];
        if (j % 4 == 2) p[0] = 0.5;
        if (j % 4 == 3) p[j % D] = j % 8 == 3 ? 1e200 : -1e200;
        for (int d = 0; d < D; ++d) base.x[static_cast<std::size_t>(d)][j] = p[d];
        const double b = rng.uniform(0.0, 0.5);
        const std::size_t state = j % 3;
        base.best2[j] = state == 0 ? kInf : b;
        base.bestC[j] = state == 0 ? -1.0 : 90.0;
        base.second2[j] = state == 1 ? b + rng.uniform() : kInf;
        base.secondC[j] = state == 1 ? 91.0 : -1.0;
    }
    LaneBuffers<D> wide = base;
    const core::TileLanes<D> baseLanes = base.view();
    const core::TileLanes<D> wideLanes = wide.view();
    std::size_t begin = 0;
    for (const std::size_t size : kRuns) {
        for (std::size_t c = begin; c < begin + size; ++c)
            core::detail::foldCenterBaseline<D, TrackSecond>(baseLanes, 0, count, centers[c],
                                                             inv[c], ids[c]);
        core::CenterRun<D> run;
        for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d)
            run.x[d] = cx[d].data() + begin;
        run.invInfluence2 = inv.data() + begin;
        run.id = ids.data() + begin;
        run.size = size;
        core::foldCenters<D, TrackSecond>(wideLanes, count, run);
        const auto where = ::testing::Message()
                           << "D=" << D << " TrackSecond=" << TrackSecond << " count=" << count
                           << " after the run of " << size << " centers from " << begin;
        ASSERT_TRUE(sameBits(base.best2, wide.best2)) << where;
        ASSERT_TRUE(sameBits(base.bestC, wide.bestC)) << where;
        ASSERT_TRUE(sameBits(base.second2, wide.second2)) << where;
        ASSERT_TRUE(sameBits(base.secondC, wide.secondC)) << where;
        begin += size;
    }
}
#endif

/// The AVX-512F run body of foldCenters against the SSE2 baseline: counts
/// 0-17 cover every tail length on both sides of one wide step, 33 several
/// wide steps and a tail, 1024 a whole block. The log line names the body
/// compared, so a CI log shows what the runner exercised.
TEST(TileKernel, WideBodyMatchesBaselineBitwise) {
#if defined(__x86_64__)
    if (!core::detail::wideFoldSupported())
        GTEST_SKIP() << "CPU lacks AVX-512F: foldCenters runs the SSE2 baseline alone";
    std::cout << "[ TileKernel ] comparing the AVX-512F body against the SSE2 baseline\n";
    std::vector<std::size_t> counts(18);
    std::iota(counts.begin(), counts.end(), std::size_t{0});
    counts.push_back(33);
    counts.push_back(1024);
    for (const std::size_t count : counts) {
        const std::uint64_t seed = 401 + count;
        expectRunsMatchBaseline<2, false>(count, seed);
        expectRunsMatchBaseline<2, true>(count, seed);
        expectRunsMatchBaseline<3, false>(count, seed);
        expectRunsMatchBaseline<3, true>(count, seed);
        if (HasFatalFailure()) return;
    }
#else
    GTEST_SKIP() << "the wide foldCenters body is compiled only on x86-64";
#endif
}

}  // namespace
