#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "core/balanced_kmeans.hpp"
#include "geometry/box.hpp"
#include "par/comm.hpp"
#include "support/rng.hpp"

namespace {

using geo::Point2;
using geo::Point3;
using geo::Xoshiro256;
using geo::core::balancedKMeans;
using geo::core::KMeansOutcome;
using geo::core::Settings;
using geo::par::Comm;
using geo::par::runSpmd;

std::vector<Point2> uniformPoints(int n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Point2> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
    return pts;
}

/// uniformPoints sorted by x. Split into contiguous rank ranges, every rank
/// holds a vertical slab, so its active box excludes most centers: their
/// pruning keys are positive and the engine's lane-retirement passes run.
std::vector<Point2> slabPoints(int n, std::uint64_t seed) {
    auto pts = uniformPoints(n, seed);
    std::sort(pts.begin(), pts.end(),
              [](const Point2& a, const Point2& b) { return a[0] < b[0]; });
    return pts;
}

/// Evenly spread deterministic centers for tests.
std::vector<Point2> seedCenters(int k, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Point2> centers;
    for (int i = 0; i < k; ++i) centers.push_back(Point2{{rng.uniform(), rng.uniform()}});
    return centers;
}

double globalImbalance(std::span<const std::int32_t> assignment, int k,
                       std::span<const double> weights = {}) {
    std::vector<double> sizes(static_cast<std::size_t>(k), 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        const double w = weights.empty() ? 1.0 : weights[i];
        sizes[static_cast<std::size_t>(assignment[i])] += w;
        total += w;
    }
    return *std::max_element(sizes.begin(), sizes.end()) / std::ceil(total / k) - 1.0;
}

TEST(BalancedKMeans, SerialAchievesBalanceOnUniformPoints) {
    const auto pts = uniformPoints(4000, 3);
    Settings s;
    s.epsilon = 0.03;
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, {}, seedCenters(8, 99), s);
        ASSERT_EQ(out.assignment.size(), pts.size());
        EXPECT_LE(out.imbalance, s.epsilon + 1e-9);
        EXPECT_LE(globalImbalance(out.assignment, 8), s.epsilon + 1e-9);
    });
}

class KMeansRankSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, KMeansRankSweep, ::testing::Values(1, 2, 4, 8));

TEST_P(KMeansRankSweep, DistributedBalanceAndFullAssignment) {
    const int p = GetParam();
    const int k = 6;
    const auto all = uniformPoints(3000, 5);
    Settings s;
    s.epsilon = 0.05;
    runSpmd(p, [&](Comm& comm) {
        // Block-distribute the points.
        const auto n = static_cast<std::int64_t>(all.size());
        const std::int64_t lo = n * comm.rank() / p, hi = n * (comm.rank() + 1) / p;
        std::vector<Point2> local(all.begin() + lo, all.begin() + hi);
        const auto out = balancedKMeans<2>(comm, local, {}, seedCenters(k, 7), s);
        ASSERT_EQ(out.assignment.size(), local.size());
        for (const auto a : out.assignment) {
            EXPECT_GE(a, 0);
            EXPECT_LT(a, k);
        }
        EXPECT_LE(out.imbalance, s.epsilon + 1e-9);

        // Centers and influence are replicated bit-identically.
        auto flat = std::vector<double>();
        for (const auto& c : out.centers) {
            flat.push_back(c[0]);
            flat.push_back(c[1]);
        }
        flat.insert(flat.end(), out.influence.begin(), out.influence.end());
        auto maxv = flat, minv = flat;
        comm.allreduceMax(std::span<double>(maxv));
        comm.allreduceMin(std::span<double>(minv));
        for (std::size_t i = 0; i < flat.size(); ++i) EXPECT_EQ(maxv[i], minv[i]);
    });
}

TEST(BalancedKMeans, RespectsNodeWeights) {
    // Heavily weighted cluster of points in one corner: without balancing
    // by weight, one block would be overloaded.
    Xoshiro256 rng(11);
    std::vector<Point2> pts;
    std::vector<double> w;
    for (int i = 0; i < 2000; ++i) {
        const Point2 pt{{rng.uniform(), rng.uniform()}};
        pts.push_back(pt);
        // Weight gradient: left half much heavier.
        w.push_back(pt[0] < 0.5 ? 9.0 : 1.0);
    }
    Settings s;
    s.epsilon = 0.05;
    s.maxIterations = 80;
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, w, seedCenters(5, 13), s);
        EXPECT_LE(globalImbalance(out.assignment, 5, w), s.epsilon + 1e-9);
    });
}

TEST(BalancedKMeans, UnbalancedPlainLloydWouldFail) {
    // Two dense clusters + sparse background; plain k-means with k=4 would
    // give wildly unequal blocks. Balanced version must not.
    Xoshiro256 rng(17);
    std::vector<Point2> pts;
    for (int i = 0; i < 1800; ++i)
        pts.push_back(Point2{{0.1 + 0.05 * rng.uniform(), 0.1 + 0.05 * rng.uniform()}});
    for (int i = 0; i < 1800; ++i)
        pts.push_back(Point2{{0.9 - 0.05 * rng.uniform(), 0.9 - 0.05 * rng.uniform()}});
    for (int i = 0; i < 400; ++i) pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
    Settings s;
    s.epsilon = 0.05;
    s.maxIterations = 100;
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, {}, seedCenters(4, 23), s);
        EXPECT_LE(out.imbalance, s.epsilon + 1e-9);
    });
}

TEST(BalancedKMeans, InfluenceDeviatesFromOneUnderImbalance) {
    Xoshiro256 rng(19);
    std::vector<Point2> pts;
    for (int i = 0; i < 1500; ++i)
        pts.push_back(Point2{{0.2 * rng.uniform(), rng.uniform()}});  // dense strip
    for (int i = 0; i < 500; ++i)
        pts.push_back(Point2{{0.2 + 0.8 * rng.uniform(), rng.uniform()}});
    Settings s;
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, {}, seedCenters(4, 29), s);
        double spread = 0.0;
        for (const double inf : out.influence) spread = std::max(spread, std::abs(inf - 1.0));
        EXPECT_GT(spread, 0.001);  // balancing actually used influence
        for (const double inf : out.influence) EXPECT_GT(inf, 0.0);
    });
}

TEST(BalancedKMeans, HamerlyBoundsDoNotChangeResult) {
    const auto pts = uniformPoints(2500, 31);
    Settings withBounds, without;
    withBounds.hamerlyBounds = true;
    without.hamerlyBounds = false;
    withBounds.sampledInitialization = without.sampledInitialization = false;
    std::vector<std::int32_t> a, b;
    runSpmd(1, [&](Comm& comm) {
        a = balancedKMeans<2>(comm, pts, {}, seedCenters(6, 37), withBounds).assignment;
    });
    runSpmd(1, [&](Comm& comm) {
        b = balancedKMeans<2>(comm, pts, {}, seedCenters(6, 37), without).assignment;
    });
    EXPECT_EQ(a, b);
}

TEST(BalancedKMeans, BboxPruningDoesNotChangeResult) {
    // Four slab ranks: the pruned run breaks (an input whose keys are all 0
    // would run the same computation both ways).
    constexpr int kRanks = 4;
    const auto pts = slabPoints(2500, 41);
    Settings withPruning, without;
    withPruning.boundingBoxPruning = true;
    without.boundingBoxPruning = false;
    withPruning.sampledInitialization = without.sampledInitialization = false;
    KMeansOutcome<2> a, b;
    std::uint64_t breaks = 0;
    const auto run = [&](const Settings& s, KMeansOutcome<2>& out) {
        runSpmd(kRanks, [&](Comm& comm) {
            const auto [lo, hi] = geo::par::blockRange(static_cast<std::int64_t>(pts.size()),
                                                       comm.rank(), kRanks);
            std::vector<Point2> local(pts.begin() + lo, pts.begin() + hi);
            auto mine = balancedKMeans<2>(comm, local, {}, seedCenters(9, 43), s);
            mine.assignment = comm.allgatherv(std::span<const std::int32_t>(mine.assignment));
            const std::uint64_t rankBreaks = comm.allreduceSum(mine.counters.bboxBreaks);
            if (comm.isRoot()) {
                out = std::move(mine);
                breaks = rankBreaks;
            }
        });
    };
    run(withPruning, a);
    EXPECT_GT(breaks, 0u);
    run(without, b);
    EXPECT_EQ(breaks, 0u);
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.centers.size(), b.centers.size());
    ASSERT_EQ(a.influence.size(), b.influence.size());
    EXPECT_EQ(std::memcmp(a.centers.data(), b.centers.data(),
                          a.centers.size() * sizeof(Point2)),
              0);
    EXPECT_EQ(std::memcmp(a.influence.data(), b.influence.data(),
                          a.influence.size() * sizeof(double)),
              0);
}

TEST(BalancedKMeans, BoundsSkipSubstantialWorkInLaterPhases) {
    const auto pts = uniformPoints(6000, 47);
    Settings s;
    s.sampledInitialization = false;
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, {}, seedCenters(12, 53), s);
        // The paper reports ~80% skip rate; require a healthy majority.
        EXPECT_GT(out.counters.skipFraction(), 0.4);
        EXPECT_GT(out.counters.boundSkips, 0u);
        // Pruning must have saved distance calcs vs the naive k*n per sweep.
        const auto naive = static_cast<std::uint64_t>(out.counters.balanceIterations) *
                           static_cast<std::uint64_t>(pts.size()) * 12u;
        EXPECT_LT(out.counters.distanceCalcs, naive);
    });
}

TEST(BalancedKMeans, SampledInitMatchesQualityOfFullInit) {
    const auto pts = uniformPoints(4000, 59);
    auto sumSquares = [&](const KMeansOutcome<2>& out) {
        double ss = 0.0;
        for (std::size_t i = 0; i < pts.size(); ++i)
            ss += squaredDistance(pts[i], out.centers[static_cast<std::size_t>(
                                              out.assignment[i])]);
        return ss;
    };
    Settings sampled, full;
    sampled.sampledInitialization = true;
    full.sampledInitialization = false;
    double ssSampled = 0.0, ssFull = 0.0;
    runSpmd(1, [&](Comm& comm) {
        ssSampled = sumSquares(balancedKMeans<2>(comm, pts, {}, seedCenters(8, 61), sampled));
    });
    runSpmd(1, [&](Comm& comm) {
        ssFull = sumSquares(balancedKMeans<2>(comm, pts, {}, seedCenters(8, 61), full));
    });
    // "Starting with only a randomly sampled subset ... does not impact the
    // quality noticeably" — allow 25% slack.
    EXPECT_LT(ssSampled, ssFull * 1.25);
}

TEST(BalancedKMeans, WorksIn3d) {
    Xoshiro256 rng(67);
    std::vector<Point3> pts;
    for (int i = 0; i < 3000; ++i)
        pts.push_back(Point3{{rng.uniform(), rng.uniform(), rng.uniform()}});
    std::vector<Point3> centers;
    for (int i = 0; i < 5; ++i)
        centers.push_back(Point3{{rng.uniform(), rng.uniform(), rng.uniform()}});
    Settings s;
    runSpmd(2, [&](Comm& comm) {
        const auto n = static_cast<std::int64_t>(pts.size());
        const std::int64_t lo = n * comm.rank() / 2, hi = n * (comm.rank() + 1) / 2;
        std::vector<Point3> local(pts.begin() + lo, pts.begin() + hi);
        const auto out = balancedKMeans<3>(comm, local, {}, centers, s);
        EXPECT_LE(out.imbalance, s.epsilon + 1e-9);
    });
}

TEST(BalancedKMeans, SingleClusterTrivia) {
    const auto pts = uniformPoints(100, 71);
    Settings s;
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, {}, {Point2{{0.5, 0.5}}}, s);
        for (const auto a : out.assignment) EXPECT_EQ(a, 0);
        EXPECT_LE(out.imbalance, 1e-9);
    });
}

TEST(BalancedKMeans, RejectsMismatchedWeights) {
    const auto pts = uniformPoints(10, 73);
    const std::vector<double> wrong(3, 1.0);
    Settings s;
    runSpmd(1, [&](Comm& comm) {
        EXPECT_THROW(
            (void)balancedKMeans<2>(comm, pts, wrong, seedCenters(2, 79), s),
            std::invalid_argument);
    });
}

TEST(HeterogeneousTargets, NonUniformBlockSizesAreHonored) {
    // Paper footnote 1: non-uniform target sizes for heterogeneous
    // architectures. Ask for a 60/25/15 split.
    const auto pts = uniformPoints(4000, 53);
    Settings s;
    s.targetFractions = {0.6, 0.25, 0.15};
    s.epsilon = 0.05;
    s.maxIterations = 80;
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, {}, seedCenters(3, 59), s);
        std::vector<double> sizes(3, 0.0);
        for (const auto a : out.assignment) sizes[static_cast<std::size_t>(a)] += 1.0;
        EXPECT_NEAR(sizes[0] / 4000.0, 0.60, 0.05);
        EXPECT_NEAR(sizes[1] / 4000.0, 0.25, 0.04);
        EXPECT_NEAR(sizes[2] / 4000.0, 0.15, 0.03);
    });
}

TEST(HeterogeneousTargets, UnnormalizedFractionsAreNormalized) {
    // Fractions are relative shares, not probabilities: {12, 5, 3} must
    // behave exactly like {0.6, 0.25, 0.15}.
    const auto pts = uniformPoints(4000, 53);
    Settings normalized, scaled;
    normalized.targetFractions = {0.6, 0.25, 0.15};
    scaled.targetFractions = {12.0, 5.0, 3.0};
    normalized.epsilon = scaled.epsilon = 0.05;
    normalized.maxIterations = scaled.maxIterations = 80;
    std::vector<std::int32_t> a, b;
    double imbA = 0.0, imbB = 0.0;
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, {}, seedCenters(3, 59), normalized);
        a = out.assignment;
        imbA = out.imbalance;
    });
    runSpmd(1, [&](Comm& comm) {
        const auto out = balancedKMeans<2>(comm, pts, {}, seedCenters(3, 59), scaled);
        b = out.assignment;
        imbB = out.imbalance;
    });
    EXPECT_EQ(a, b);
    EXPECT_DOUBLE_EQ(imbA, imbB);
    EXPECT_LE(imbA, 0.05 + 1e-9);
}

TEST(HeterogeneousTargets, RejectsBadFractions) {
    const auto pts = uniformPoints(100, 61);
    const std::vector<Point2> centers{Point2{{0.2, 0.2}}, Point2{{0.8, 0.8}}};
    Settings s;
    s.targetFractions = {0.5};  // wrong arity
    runSpmd(1, [&](Comm& comm) {
        EXPECT_THROW((void)balancedKMeans<2>(comm, pts, {}, centers, s),
                     std::invalid_argument);
    });
    s.targetFractions = {0.5, -0.5};
    runSpmd(1, [&](Comm& comm) {
        EXPECT_THROW((void)balancedKMeans<2>(comm, pts, {}, centers, s),
                     std::invalid_argument);
    });
}

// ---------------------------------------------------------------------------
// Assignment-engine equivalence suite.
//
// `seedKMeans` below is a line-for-line compact copy of the seed
// implementation of balancedKMeans (scalar sqrt-domain candidate loop, eager
// O(n) Hamerly bound relaxation sweeps, flat size accumulation) — the oracle
// the fast engine (squared-distance kernels, lazy epoch bounds, SoA batching,
// threading) must reproduce *exactly*: same assignment, bitwise-equal
// centers, influence and imbalance. One deliberate change from the seed:
// centers with equal pruning keys are visited in id order, the tie rule the
// engine shares with the serving snapshots.
// ---------------------------------------------------------------------------

template <int D>
struct SeedOutcome {
    std::vector<std::int32_t> assignment;
    std::vector<geo::Point<D>> centers;
    std::vector<double> influence;
    double imbalance = 0.0;
};

template <int D>
SeedOutcome<D> seedKMeans(Comm& comm, std::span<const geo::Point<D>> points,
                          std::span<const double> weights,
                          std::vector<geo::Point<D>> centers, const Settings& s) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto k = static_cast<std::int32_t>(centers.size());
    const std::size_t n = points.size();
    std::vector<double> targetShare;
    if (s.targetFractions.empty()) {
        targetShare.assign(static_cast<std::size_t>(k), 1.0 / k);
    } else {
        double sum = 0.0;
        for (const double f : s.targetFractions) sum += f;
        for (const double f : s.targetFractions) targetShare.push_back(f / sum);
    }
    std::vector<double> influence = s.initialInfluence.empty()
                                        ? std::vector<double>(static_cast<std::size_t>(k), 1.0)
                                        : s.initialInfluence;
    std::vector<std::int32_t> assignment(n, -1);
    std::vector<double> ub(n, kInf), lb(n, 0.0);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::size_t sampleSize = n;
    if (s.sampledInitialization) {
        Xoshiro256 rng(s.seed ^
                       (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(comm.rank() + 1)));
        for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
        sampleSize = std::min<std::size_t>(
            static_cast<std::size_t>(std::max(1, s.initialSampleSize)), n);
    }
    auto bb = geo::Box<D>::around(points);
    std::array<double, 2 * D> lohi;
    for (int i = 0; i < D; ++i) {
        lohi[static_cast<std::size_t>(i)] = bb.valid() ? bb.lo[i] : kInf;
        lohi[static_cast<std::size_t>(D + i)] = bb.valid() ? -bb.hi[i] : kInf;
    }
    comm.allreduceMin(std::span<double>(lohi.data(), lohi.size()));
    geo::Box<D> globalBox;
    for (int i = 0; i < D; ++i) {
        globalBox.lo[i] = lohi[static_cast<std::size_t>(i)];
        globalBox.hi[i] = -lohi[static_cast<std::size_t>(D + i)];
    }
    const double clusterScale =
        geo::core::expectedClusterRadius(globalBox.diagonal(), k, D);
    const double deltaThreshold = s.deltaThresholdFactor * clusterScale;
    const auto weightOf = [&](std::size_t p) {
        return weights.empty() ? 1.0 : weights[p];
    };

    std::vector<std::int32_t> sortedCenters;
    std::vector<double> centerKey;
    const auto assignPoint = [&](std::size_t p) {
        double best = kInf, second = kInf;
        std::int32_t bestC = -1;
        for (std::size_t ci = 0; ci < sortedCenters.size(); ++ci) {
            const std::int32_t c = sortedCenters[ci];
            if (s.boundingBoxPruning && centerKey.size() == sortedCenters.size() &&
                centerKey[static_cast<std::size_t>(c)] > second)
                break;
            const double eDist = distance(points[p], centers[static_cast<std::size_t>(c)]) /
                                 influence[static_cast<std::size_t>(c)];
            if (eDist < best) {
                second = best;
                best = eDist;
                bestC = c;
            } else if (eDist < second) {
                second = eDist;
            }
        }
        assignment[p] = bestC;
        ub[p] = best;
        lb[p] = second;
    };
    const auto imbalanceOf = [&](std::span<const double> sizes) {
        const double total = std::accumulate(sizes.begin(), sizes.end(), 0.0);
        if (total <= 0.0) return 0.0;
        double worst = 0.0;
        for (std::int32_t c = 0; c < k; ++c) {
            const double target = s.targetFractions.empty()
                                      ? std::ceil(total / k)
                                      : targetShare[static_cast<std::size_t>(c)] * total;
            worst = std::max(worst, sizes[static_cast<std::size_t>(c)] /
                                        std::max(target, 1e-300));
        }
        return worst - 1.0;
    };
    const auto assignAndBalance = [&]() {
        auto active = geo::Box<D>::empty();
        for (std::size_t oi = 0; oi < sampleSize; ++oi) active.extend(points[order[oi]]);
        double imb = kInf;
        for (int round = 0; round < s.maxBalanceIterations; ++round) {
            sortedCenters.resize(static_cast<std::size_t>(k));
            std::iota(sortedCenters.begin(), sortedCenters.end(), 0);
            if (s.boundingBoxPruning && active.valid()) {
                centerKey.resize(static_cast<std::size_t>(k));
                for (std::int32_t c = 0; c < k; ++c)
                    centerKey[static_cast<std::size_t>(c)] =
                        active.minDistance(centers[static_cast<std::size_t>(c)]) /
                        influence[static_cast<std::size_t>(c)];
                // (key, id) order: equal keys — every center inside the
                // active box has key 0 — visit in id order, so an exact tie
                // keeps the lowest id.
                std::sort(sortedCenters.begin(), sortedCenters.end(),
                          [&](std::int32_t a, std::int32_t b) {
                              const double ka = centerKey[static_cast<std::size_t>(a)];
                              const double kb = centerKey[static_cast<std::size_t>(b)];
                              return ka < kb || (ka == kb && a < b);
                          });
            }
            std::vector<double> localSizes(static_cast<std::size_t>(k), 0.0);
            for (std::size_t oi = 0; oi < sampleSize; ++oi) {
                const std::size_t p = order[oi];
                if (!(s.hamerlyBounds && assignment[p] >= 0 && ub[p] < lb[p]))
                    assignPoint(p);
                localSizes[static_cast<std::size_t>(assignment[p])] += weightOf(p);
            }
            comm.allreduceSum(std::span<double>(localSizes));
            imb = imbalanceOf(localSizes);
            if (imb <= s.epsilon) return imb;
            // Influence adaptation + eager bound relaxation for influence.
            const double total =
                std::accumulate(localSizes.begin(), localSizes.end(), 0.0);
            std::vector<double> ratio(static_cast<std::size_t>(k), 1.0);
            for (std::int32_t c = 0; c < k; ++c) {
                const double target = targetShare[static_cast<std::size_t>(c)] * total;
                const double size = localSizes[static_cast<std::size_t>(c)];
                const double factor =
                    size <= 0.0 ? 1.0 + s.influenceChangeCap
                                : std::clamp(std::pow(target / size, 1.0 / D),
                                             1.0 - s.influenceChangeCap,
                                             1.0 + s.influenceChangeCap);
                const double before = influence[static_cast<std::size_t>(c)];
                influence[static_cast<std::size_t>(c)] = before * factor;
                ratio[static_cast<std::size_t>(c)] =
                    before / influence[static_cast<std::size_t>(c)];
            }
            if (s.hamerlyBounds) {
                const double minRatio = *std::min_element(ratio.begin(), ratio.end());
                for (std::size_t p = 0; p < n; ++p) {
                    if (assignment[p] < 0) continue;
                    ub[p] *= ratio[static_cast<std::size_t>(assignment[p])];
                    lb[p] *= minRatio;
                }
            }
        }
        return imb;
    };

    double imbalanceNow = kInf;
    bool converged = false;
    for (int iter = 0; iter < s.maxIterations; ++iter) {
        imbalanceNow = assignAndBalance();
        // Center sums in the engine's deterministic association: per-cluster
        // partials over fixed 1024-slot blocks of the (permuted) active
        // order, added in ascending block order — the same association
        // AssignEngine::updateCenters uses at every thread count. The value
        // is the same weighted mean; only the floating-point grouping is
        // pinned so the equivalence below can stay bitwise.
        const std::size_t stride = static_cast<std::size_t>(k) * (D + 1);
        std::vector<double> sums(stride, 0.0);
        std::vector<double> blockSum(stride);
        for (std::size_t b0 = 0; b0 < sampleSize; b0 += 1024) {
            std::fill(blockSum.begin(), blockSum.end(), 0.0);
            const std::size_t b1 = std::min(sampleSize, b0 + 1024);
            for (std::size_t oi = b0; oi < b1; ++oi) {
                const std::size_t p = order[oi];
                const auto c = static_cast<std::size_t>(assignment[p]);
                for (int d = 0; d < D; ++d)
                    blockSum[c * (D + 1) + static_cast<std::size_t>(d)] +=
                        weightOf(p) * points[p][d];
                blockSum[c * (D + 1) + D] += weightOf(p);
            }
            for (std::size_t i = 0; i < stride; ++i) sums[i] += blockSum[i];
        }
        comm.allreduceSum(std::span<double>(sums));
        auto freshCenters = centers;
        std::vector<double> delta(static_cast<std::size_t>(k), 0.0);
        double maxDelta = 0.0;
        for (std::int32_t c = 0; c < k; ++c) {
            const auto base = static_cast<std::size_t>(c) * (D + 1);
            if (sums[base + D] <= 0.0) continue;
            geo::Point<D> fresh;
            for (int d = 0; d < D; ++d)
                fresh[d] = sums[base + static_cast<std::size_t>(d)] / sums[base + D];
            delta[static_cast<std::size_t>(c)] =
                distance(fresh, centers[static_cast<std::size_t>(c)]);
            maxDelta = std::max(maxDelta, delta[static_cast<std::size_t>(c)]);
            freshCenters[static_cast<std::size_t>(c)] = fresh;
        }
        const bool sampleComplete =
            comm.allreduceMin<std::uint64_t>(sampleSize >= n ? 1 : 0) == 1;
        if (sampleComplete && maxDelta < deltaThreshold) {
            converged = true;
            break;
        }
        centers = std::move(freshCenters);
        std::vector<double> influenceBefore = influence;
        if (s.influenceErosion) {
            const double beta = std::max(clusterScale, 1e-300);
            for (std::int32_t c = 0; c < k; ++c) {
                const double x = delta[static_cast<std::size_t>(c)] / beta;
                const double alpha = 2.0 / (1.0 + std::exp(-x)) - 1.0;
                auto& inf = influence[static_cast<std::size_t>(c)];
                inf = std::exp((1.0 - alpha) * std::log(inf));
            }
        }
        if (s.hamerlyBounds) {
            double minRatio = kInf, maxShift = 0.0;
            std::vector<double> ratio(static_cast<std::size_t>(k));
            for (std::int32_t c = 0; c < k; ++c) {
                const double r = influenceBefore[static_cast<std::size_t>(c)] /
                                 influence[static_cast<std::size_t>(c)];
                ratio[static_cast<std::size_t>(c)] = r;
                minRatio = std::min(minRatio, r);
                maxShift = std::max(maxShift, delta[static_cast<std::size_t>(c)] /
                                                  influence[static_cast<std::size_t>(c)]);
            }
            for (std::size_t p = 0; p < n; ++p) {
                if (assignment[p] < 0) continue;
                const auto c = static_cast<std::size_t>(assignment[p]);
                ub[p] = ub[p] * ratio[c] + delta[c] / influence[c];
                lb[p] = std::max(0.0, lb[p] * minRatio - maxShift);
            }
        }
        if (sampleSize < n) sampleSize = std::min(n, sampleSize * 2);
    }
    if (sampleSize < n) {
        sampleSize = n;
        std::fill(ub.begin(), ub.end(), kInf);
        std::fill(lb.begin(), lb.end(), 0.0);
        imbalanceNow = assignAndBalance();
    } else if (!converged) {
        imbalanceNow = assignAndBalance();
    }
    return {std::move(assignment), std::move(centers), std::move(influence), imbalanceNow};
}

template <int D>
void expectExactlyEqual(const KMeansOutcome<D>& got, const SeedOutcome<D>& want,
                        const std::string& label) {
    EXPECT_EQ(got.assignment, want.assignment) << label;
    ASSERT_EQ(got.centers.size(), want.centers.size()) << label;
    for (std::size_t c = 0; c < want.centers.size(); ++c)
        for (int d = 0; d < D; ++d)
            EXPECT_EQ(got.centers[c][d], want.centers[c][d]) << label << " center " << c;
    EXPECT_EQ(got.influence, want.influence) << label;
    EXPECT_EQ(got.imbalance, want.imbalance) << label;
}

/// Run the seed oracle and the engine at threads 1/2/4 on one
/// configuration; everything must agree exactly. Returns the engine's
/// bboxBreaks summed over the ranks (the same at every thread count).
template <int D>
std::uint64_t runEquivalence(const std::vector<geo::Point<D>>& pts,
                    const std::vector<double>& weights,
                    const std::vector<geo::Point<D>>& centers, Settings s,
                    int ranks, const std::string& label) {
    SeedOutcome<D> want;
    runSpmd(ranks, [&](Comm& comm) {
        const auto [lo, hi] =
            geo::par::blockRange(static_cast<std::int64_t>(pts.size()), comm.rank(), ranks);
        std::vector<geo::Point<D>> local(pts.begin() + lo, pts.begin() + hi);
        std::vector<double> localW;
        if (!weights.empty()) localW.assign(weights.begin() + lo, weights.begin() + hi);
        auto mine = seedKMeans<D>(comm, local, localW, centers, s);
        mine.assignment = comm.allgatherv(std::span<const std::int32_t>(mine.assignment));
        if (comm.isRoot()) want = std::move(mine);
    });

    std::uint64_t breaks = 0;
    for (const int threads : {1, 2, 4}) {
        Settings engine = s;
        engine.threads = threads;
        runSpmd(ranks, [&](Comm& comm) {
            const auto [lo, hi] = geo::par::blockRange(
                static_cast<std::int64_t>(pts.size()), comm.rank(), ranks);
            std::vector<geo::Point<D>> local(pts.begin() + lo, pts.begin() + hi);
            std::vector<double> localW;
            if (!weights.empty())
                localW.assign(weights.begin() + lo, weights.begin() + hi);
            auto got = balancedKMeans<D>(comm, local, localW, centers, engine);
            got.assignment = comm.allgatherv(std::span<const std::int32_t>(got.assignment));
            const std::uint64_t rankBreaks = comm.allreduceSum(got.counters.bboxBreaks);
            if (comm.isRoot()) {
                expectExactlyEqual<D>(got, want, label + " [t" + std::to_string(threads) + "]");
                if (threads == 1)
                    breaks = rankBreaks;
                else
                    EXPECT_EQ(rankBreaks, breaks) << label << " bboxBreaks [t" << threads << "]";
            }
        });
    }
    return breaks;
}

TEST(AssignEngineEquivalence, Uniform2dSampled) {
    runEquivalence<2>(uniformPoints(3000, 101), {}, seedCenters(8, 103), Settings{}, 1,
                      "uniform2d-sampled");
}

TEST(AssignEngineEquivalence, Uniform2dFullInit) {
    Settings s;
    s.sampledInitialization = false;
    runEquivalence<2>(uniformPoints(3000, 107), {}, seedCenters(8, 109), s, 1,
                      "uniform2d-full");
}

TEST(AssignEngineEquivalence, Weighted2d) {
    // Integer weights: every partial sum is exact, so even the block-wise
    // size accumulation of the engine matches the seed's flat sums bitwise.
    const auto pts = uniformPoints(2500, 113);
    std::vector<double> w;
    for (std::size_t i = 0; i < pts.size(); ++i) w.push_back(pts[i][0] < 0.4 ? 7.0 : 1.0);
    Settings s;
    s.maxIterations = 60;
    runEquivalence<2>(pts, w, seedCenters(6, 127), s, 1, "weighted2d");
}

TEST(AssignEngineEquivalence, WarmStartInfluence2d) {
    Settings s;
    s.sampledInitialization = false;  // the repart warm path disables sampling
    s.initialInfluence = {1.25, 0.8, 1.0, 0.95, 1.1};
    runEquivalence<2>(uniformPoints(2500, 131), {}, seedCenters(5, 137), s, 1,
                      "warm-start2d");
}

TEST(AssignEngineEquivalence, TargetFractions2d) {
    Settings s;
    s.targetFractions = {0.6, 0.25, 0.15};
    s.epsilon = 0.05;
    s.maxIterations = 80;
    runEquivalence<2>(uniformPoints(2500, 139), {}, seedCenters(3, 149), s, 1,
                      "fractions2d");
}

TEST(AssignEngineEquivalence, Uniform3dMultiRank) {
    Xoshiro256 rng(151);
    std::vector<Point3> pts;
    for (int i = 0; i < 3000; ++i)
        pts.push_back(Point3{{rng.uniform(), rng.uniform(), rng.uniform()}});
    std::vector<Point3> centers;
    for (int i = 0; i < 6; ++i)
        centers.push_back(Point3{{rng.uniform(), rng.uniform(), rng.uniform()}});
    runEquivalence<3>(pts, {}, centers, Settings{}, 2, "uniform3d-2ranks");
}

TEST(AssignEngineEquivalence, NoBoundsNoPruning2d) {
    Settings s;
    s.hamerlyBounds = false;
    s.boundingBoxPruning = false;
    s.sampledInitialization = false;
    runEquivalence<2>(uniformPoints(2000, 157), {}, seedCenters(7, 163), s, 1,
                      "nobounds2d");
}

TEST(AssignEngineEquivalence, SortedSlabs2dFourRanks) {
    // The only equivalence case whose ranks see positive pruning keys: the
    // engine splits its center runs at the lane-retirement passes.
    const std::uint64_t breaks = runEquivalence<2>(slabPoints(4000, 167), {},
                                                   seedCenters(12, 173), Settings{}, 4,
                                                   "slabs2d-4ranks");
    EXPECT_GT(breaks, 0u);
}

TEST(BalancedKMeans, DeterministicAcrossRuns) {
    const auto pts = uniformPoints(1500, 83);
    Settings s;
    std::vector<std::int32_t> first;
    for (int trial = 0; trial < 2; ++trial) {
        runSpmd(3, [&](Comm& comm) {
            const auto n = static_cast<std::int64_t>(pts.size());
            const std::int64_t lo = n * comm.rank() / 3, hi = n * (comm.rank() + 1) / 3;
            std::vector<Point2> local(pts.begin() + lo, pts.begin() + hi);
            const auto out = balancedKMeans<2>(comm, local, {}, seedCenters(4, 89), s);
            const auto mine = comm.allgatherv(std::span<const std::int32_t>(out.assignment));
            if (comm.isRoot()) {
                if (trial == 0)
                    first = mine;
                else
                    EXPECT_EQ(first, mine);
            }
        });
    }
}

}  // namespace
