#include <gtest/gtest.h>

#include <limits>

#include "core/balanced_kmeans.hpp"
#include "core/center_tree.hpp"
#include "par/comm.hpp"
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

/// Brute-force best and second-best center ids by effective distance
/// dist/influence (second = -1 with a single center).
template <int D>
typename CenterKdTree<D>::IdResult nearestIds(const Point<D>& q,
                                              const std::vector<Point<D>>& centers,
                                              const std::vector<double>& influence) {
    double best = std::numeric_limits<double>::infinity(), second = best;
    typename CenterKdTree<D>::IdResult out;
    for (std::size_t c = 0; c < centers.size(); ++c) {
        const double d = distance(q, centers[c]) / influence[c];
        if (d < best) {
            second = best;
            out.second = out.best;
            best = d;
            out.best = static_cast<std::int32_t>(c);
        } else if (d < second) {
            second = d;
            out.second = static_cast<std::int32_t>(c);
        }
    }
    return out;
}

class TreeSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(CenterCounts, TreeSweep, ::testing::Values(1, 2, 5, 16, 64, 257));

TEST_P(TreeSweep, MatchesBruteForceWithUniformInfluence) {
    const int k = GetParam();
    const auto centers = randomPoints<2>(k, 11);
    const std::vector<double> influence(static_cast<std::size_t>(k), 1.0);
    const CenterKdTree<2> tree(centers, influence);
    for (const auto& q : randomPoints<2>(300, 13)) {
        const auto want = nearestIds(q, centers, influence);
        const auto got = tree.queryNearestIds(q);
        EXPECT_EQ(got.best, want.best);
        EXPECT_EQ(got.second, want.second);
    }
}

TEST_P(TreeSweep, MatchesBruteForceWithVariedInfluence) {
    // queryNearestIds computes and prunes in the squared effective-distance
    // domain; squaring is monotone, so it must find the same best and
    // second-best centers as the sqrt-domain brute force (second = -1 for a
    // single center).
    const int k = GetParam();
    const auto centers = randomPoints<2>(k, 17);
    Xoshiro256 rng(19);
    std::vector<double> influence;
    for (int c = 0; c < k; ++c) influence.push_back(rng.uniform(0.25, 4.0));
    const CenterKdTree<2> tree(centers, influence);
    for (const auto& q : randomPoints<2>(300, 23)) {
        const auto want = nearestIds(q, centers, influence);
        const auto got = tree.queryNearestIds(q);
        EXPECT_EQ(got.best, want.best);
        EXPECT_EQ(got.second, want.second);
    }
}

TEST(CenterKdTree, WorksIn3d) {
    const auto centers = randomPoints<3>(40, 29);
    Xoshiro256 rng(31);
    std::vector<double> influence;
    for (int c = 0; c < 40; ++c) influence.push_back(rng.uniform(0.5, 2.0));
    const CenterKdTree<3> tree(centers, influence);
    for (const auto& q : randomPoints<3>(100, 37)) {
        const auto want = nearestIds(q, centers, influence);
        const auto got = tree.queryNearestIds(q);
        EXPECT_EQ(got.best, want.best);
        EXPECT_EQ(got.second, want.second);
    }
}

TEST(CenterKdTree, RejectsBadInput) {
    const std::vector<Point2> none;
    const std::vector<double> noInfluence;
    EXPECT_THROW(CenterKdTree<2>(none, noInfluence), std::invalid_argument);
    const auto centers = randomPoints<2>(3, 41);
    const std::vector<double> wrong(2, 1.0);
    EXPECT_THROW(CenterKdTree<2>(centers, wrong), std::invalid_argument);
}

TEST(CenterKdTree, RebuildInPlaceMatchesFreshTree) {
    const auto first = randomPoints<2>(40, 67);
    const auto second = randomPoints<2>(25, 71);
    Xoshiro256 rng(73);
    std::vector<double> infFirst, infSecond;
    for (int c = 0; c < 40; ++c) infFirst.push_back(rng.uniform(0.5, 2.0));
    for (int c = 0; c < 25; ++c) infSecond.push_back(rng.uniform(0.5, 2.0));

    CenterKdTree<2> reused(first, infFirst);
    reused.rebuild(second, infSecond);  // shrinks k, reuses storage
    const CenterKdTree<2> fresh(second, infSecond);
    EXPECT_EQ(reused.size(), 25);
    for (const auto& q : randomPoints<2>(200, 79)) {
        const auto a = reused.queryNearestIds(q);
        const auto b = fresh.queryNearestIds(q);
        EXPECT_EQ(a.best, b.best);
        EXPECT_EQ(a.second, b.second);
        EXPECT_EQ(a.best, nearestIds(q, second, infSecond).best);
    }
}

TEST(KMeansWithKdTree, SameResultAsLinearScan) {
    // The engine's kd-tree path queries in the squared domain and
    // materializes the Hamerly bounds itself; with or without bounds, and
    // threaded, it must reproduce the plain linear scan exactly.
    const auto pts = randomPoints<2>(3000, 43);
    Xoshiro256 rng(47);
    std::vector<Point2> centers;
    for (int c = 0; c < 8; ++c) centers.push_back(Point2{{rng.uniform(), rng.uniform()}});
    core::Settings scan;
    scan.sampledInitialization = false;
    scan.hamerlyBounds = false;
    scan.boundingBoxPruning = false;
    std::vector<std::int32_t> want;
    par::runSpmd(1, [&](par::Comm& comm) {
        want = core::balancedKMeans<2>(comm, pts, {}, centers, scan).assignment;
    });
    for (const int threads : {1, 2}) {
        core::Settings tree;
        tree.sampledInitialization = false;
        tree.useKdTree = true;
        tree.hamerlyBounds = threads == 2;  // threads = 1 isolates the tree
        tree.threads = threads;
        std::vector<std::int32_t> got;
        par::runSpmd(1, [&](par::Comm& comm) {
            got = core::balancedKMeans<2>(comm, pts, {}, centers, tree).assignment;
        });
        EXPECT_EQ(got, want) << "threads=" << threads;
    }
}

}  // namespace
