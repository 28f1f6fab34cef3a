#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/center_tree.hpp"
#include "core/tile_kernel.hpp"
#include "support/rng.hpp"

namespace {

using namespace geo;
using geo::core::CenterKdTree;

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

/// The definition the tree answers: the smallest squared effective
/// distance, centers scanned in id order with a strict `<` from (+inf, 0),
/// so an exact tie goes to the lowest id and an all-+inf query to id 0.
template <int D>
std::int32_t lowestIdScan(const Point<D>& q, const std::vector<Point<D>>& centers,
                          const std::vector<double>& influence) {
    double best2 = std::numeric_limits<double>::infinity();
    std::int32_t best = 0;
    for (std::size_t c = 0; c < centers.size(); ++c) {
        const double e2 = squaredDistance(q, centers[c]) * (1.0 / (influence[c] * influence[c]));
        if (e2 < best2) {
            best2 = e2;
            best = static_cast<std::int32_t>(c);
        }
    }
    return best;
}

/// The snapshot's batched scan: every center folded in id order into one
/// tile of query lanes through the shared tile kernel.
template <int D>
std::vector<std::int32_t> tileKernelIds(const std::vector<Point<D>>& queries,
                                        const std::vector<Point<D>>& centers,
                                        const std::vector<double>& influence) {
    std::array<std::vector<double>, static_cast<std::size_t>(D)> x;
    for (int d = 0; d < D; ++d)
        for (const auto& q : queries) x[static_cast<std::size_t>(d)].push_back(q[d]);
    std::vector<double> best2(queries.size(), std::numeric_limits<double>::infinity());
    std::vector<double> bestC(queries.size(), 0.0);
    core::TileLanes<D> lanes;
    for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d) lanes.x[d] = x[d].data();
    lanes.best2 = best2.data();
    lanes.bestC = bestC.data();
    for (std::size_t c = 0; c < centers.size(); ++c)
        core::foldCenter<D, false>(lanes, queries.size(), centers[c],
                                   1.0 / (influence[c] * influence[c]),
                                   static_cast<double>(c));
    std::vector<std::int32_t> ids;
    for (const double c : bestC) ids.push_back(static_cast<std::int32_t>(c));
    return ids;
}

/// Every query: the tree's answer equals the lowest-id scan and the tile
/// kernel's. Counts the disagreements, so a failure says how many.
template <int D>
void expectTreeMatchesScans(const std::vector<Point<D>>& centers,
                            const std::vector<double>& influence,
                            const std::vector<Point<D>>& queries) {
    const CenterKdTree<D> tree(centers, influence);
    const auto kernel = tileKernelIds(queries, centers, influence);
    int wrong = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::int32_t want = lowestIdScan(queries[i], centers, influence);
        ASSERT_EQ(kernel[i], want) << "tile kernel, query " << i;
        if (tree.nearest(queries[i]) != want) ++wrong;
    }
    EXPECT_EQ(wrong, 0) << "of " << queries.size() << " queries";
}

class TreeSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(CenterCounts, TreeSweep, ::testing::Values(1, 2, 5, 16, 64, 257));

TEST_P(TreeSweep, MatchesBruteForceWithUniformInfluence) {
    const int k = GetParam();
    const auto centers = randomPoints<2>(k, 11);
    const std::vector<double> influence(static_cast<std::size_t>(k), 1.0);
    expectTreeMatchesScans(centers, influence, randomPoints<2>(300, 13));
}

TEST_P(TreeSweep, MatchesBruteForceWithVariedInfluence) {
    // The tree prunes on minSquaredDistance · (1/maxInfluence²) per subtree;
    // with varied influence the nearest center by plain distance is often
    // not the answer.
    const int k = GetParam();
    const auto centers = randomPoints<2>(k, 17);
    Xoshiro256 rng(19);
    std::vector<double> influence;
    for (int c = 0; c < k; ++c) influence.push_back(rng.uniform(0.25, 4.0));
    expectTreeMatchesScans(centers, influence, randomPoints<2>(300, 23));
}

TEST(CenterKdTree, WorksIn3d) {
    const auto centers = randomPoints<3>(40, 29);
    Xoshiro256 rng(31);
    std::vector<double> influence;
    for (int c = 0; c < 40; ++c) influence.push_back(rng.uniform(0.5, 2.0));
    expectTreeMatchesScans(centers, influence, randomPoints<3>(100, 37));
}

TEST(CenterKdTree, RejectsBadInput) {
    const std::vector<Point2> none;
    const std::vector<double> noInfluence;
    EXPECT_THROW(CenterKdTree<2>(none, noInfluence), std::invalid_argument);
    const auto centers = randomPoints<2>(3, 41);
    const std::vector<double> wrong(2, 1.0);
    EXPECT_THROW(CenterKdTree<2>(centers, wrong), std::invalid_argument);
}

TEST(CenterKdTree, DuplicatedCentersTieToLowestId) {
    // 20 duplicated pairs among 128 centers (an empty cluster keeps its
    // seeded center, so duplicates are real k-means output). A pair shares
    // its influence, so every query nearest to it ties exactly; the copy is
    // the lower id of its pair about half the time.
    for (const int k : {16, 128}) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        auto centers = randomPoints<2>(k, 43);
        Xoshiro256 rng(47);
        std::vector<double> influence;
        for (int c = 0; c < k; ++c) influence.push_back(rng.uniform(0.5, 2.0));
        for (int pair = 0; pair < std::min(20, k / 4); ++pair) {
            const auto from = rng.below(static_cast<std::uint64_t>(k));
            const auto to = rng.below(static_cast<std::uint64_t>(k));
            centers[to] = centers[from];
            influence[to] = influence[from];
        }
        auto queries = randomPoints<2>(5000, 53);
        queries.insert(queries.end(), centers.begin(), centers.end());  // e2 = 0 ties
        expectTreeMatchesScans(centers, influence, queries);
    }
}

TEST(CenterKdTree, BisectorQueriesTieToLowestId) {
    // Centers on the integer lattice 16 × 16 with unit influence, ids
    // shuffled: a query at a half-integer coordinate is exactly equidistant
    // from two lattice neighbours (four at a cell center).
    constexpr int side = 16;
    std::vector<Point2> centers;
    for (int i = 0; i < side; ++i)
        for (int j = 0; j < side; ++j)
            centers.push_back(Point2{{static_cast<double>(i), static_cast<double>(j)}});
    Xoshiro256 rng(59);
    for (std::size_t i = centers.size(); i > 1; --i) std::swap(centers[i - 1], centers[rng.below(i)]);
    const std::vector<double> influence(centers.size(), 1.0);

    std::vector<Point2> queries;
    for (int i = 0; i < 2 * side - 1; ++i)
        for (int j = 0; j < 2 * side - 1; ++j)
            queries.push_back(Point2{{0.5 * i, 0.5 * j}});
    expectTreeMatchesScans(centers, influence, queries);
}

TEST(CenterKdTree, OverflowingDistancesAnswerLowestId) {
    // Coordinates of ±1e200 to ±4e200: any nonzero difference squares past
    // the largest double, so e2 is 0 on a center's own coordinates and +inf
    // everywhere else. A query that matches no center ties at +inf between
    // all of them, where the tile kernel answers id 0.
    Xoshiro256 rng(61);
    const auto huge = [&] {
        return (rng.below(2) == 0 ? -1e200 : 1e200) * static_cast<double>(1 + rng.below(4));
    };
    for (const int k : {5, 130}) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        std::vector<Point3> centers(static_cast<std::size_t>(k));
        for (auto& c : centers)
            for (int d = 0; d < 3; ++d) c[d] = huge();
        std::vector<double> influence;
        for (int c = 0; c < k; ++c) influence.push_back(rng.uniform(0.5, 2.0));

        std::vector<Point3> queries(centers.begin(), centers.end());
        for (int i = 0; i < 500; ++i) queries.push_back(Point3{{huge(), huge(), huge()}});
        queries.push_back(Point3{{0.0, 0.0, 0.0}});
        queries.push_back(Point3{{1e200, 0.5, -1e200}});
        expectTreeMatchesScans(centers, influence, queries);
    }
}

}  // namespace
