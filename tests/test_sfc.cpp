#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "geometry/box.hpp"
#include "sfc/hilbert.hpp"
#include "support/rng.hpp"

namespace {

using geo::Box2;
using geo::Box3;
using geo::Point2;
using geo::Point3;
namespace sfc = geo::sfc;

Box2 unitBox2() {
    Box2 b;
    b.lo = Point2{{0.0, 0.0}};
    b.hi = Point2{{1.0, 1.0}};
    return b;
}

Box3 unitBox3() {
    Box3 b;
    b.lo = Point3{{0.0, 0.0, 0.0}};
    b.hi = Point3{{1.0, 1.0, 1.0}};
    return b;
}

TEST(Hilbert2D, RoundTripThroughInverse) {
    const auto bb = unitBox2();
    geo::Xoshiro256 rng(42);
    for (int i = 0; i < 2000; ++i) {
        const Point2 p{{rng.uniform(), rng.uniform()}};
        const auto idx = sfc::hilbertIndex<2>(p, bb);
        const Point2 q = sfc::hilbertPoint<2>(idx, bb);
        // Cell size is 2^-31; inverse returns the cell center.
        EXPECT_NEAR(p[0], q[0], 1e-8);
        EXPECT_NEAR(p[1], q[1], 1e-8);
        EXPECT_EQ(sfc::hilbertIndex<2>(q, bb), idx);
    }
}

TEST(Hilbert3D, RoundTripThroughInverse) {
    const auto bb = unitBox3();
    geo::Xoshiro256 rng(43);
    for (int i = 0; i < 2000; ++i) {
        const Point3 p{{rng.uniform(), rng.uniform(), rng.uniform()}};
        const auto idx = sfc::hilbertIndex<3>(p, bb);
        const Point3 q = sfc::hilbertPoint<3>(idx, bb);
        EXPECT_NEAR(p[0], q[0], 2e-6);
        EXPECT_NEAR(p[1], q[1], 2e-6);
        EXPECT_NEAR(p[2], q[2], 2e-6);
        EXPECT_EQ(sfc::hilbertIndex<3>(q, bb), idx);
    }
}

TEST(Hilbert2D, ConsecutiveIndicesAreAdjacentCells) {
    // The defining Hilbert property: consecutive curve positions are
    // neighboring grid cells (Chebyshev distance in coordinates == 1 cell).
    const auto bb = unitBox2();
    const double cell = 1.0 / static_cast<double>(1ULL << sfc::kBitsPerDim<2>);
    geo::Xoshiro256 rng(44);
    for (int i = 0; i < 500; ++i) {
        const auto idx = static_cast<std::uint64_t>(rng.below(1ULL << 40));
        const Point2 a = sfc::hilbertPoint<2>(idx, bb);
        const Point2 b = sfc::hilbertPoint<2>(idx + 1, bb);
        const double manhattan =
            (std::abs(a[0] - b[0]) + std::abs(a[1] - b[1])) / cell;
        EXPECT_NEAR(manhattan, 1.0, 1e-6) << "index " << idx;
    }
}

TEST(Hilbert3D, ConsecutiveIndicesAreAdjacentCells) {
    const auto bb = unitBox3();
    const double cell = 1.0 / static_cast<double>(1ULL << sfc::kBitsPerDim<3>);
    geo::Xoshiro256 rng(45);
    for (int i = 0; i < 500; ++i) {
        const auto idx = static_cast<std::uint64_t>(rng.below(1ULL << 50));
        const Point3 a = sfc::hilbertPoint<3>(idx, bb);
        const Point3 b = sfc::hilbertPoint<3>(idx + 1, bb);
        const double manhattan =
            (std::abs(a[0] - b[0]) + std::abs(a[1] - b[1]) + std::abs(a[2] - b[2])) / cell;
        EXPECT_NEAR(manhattan, 1.0, 1e-5) << "index " << idx;
    }
}

TEST(Hilbert2D, DistinctCellsGetDistinctIndices) {
    const auto bb = unitBox2();
    std::set<std::uint64_t> seen;
    const int g = 32;
    for (int i = 0; i < g; ++i)
        for (int j = 0; j < g; ++j) {
            const Point2 p{{(i + 0.5) / g, (j + 0.5) / g}};
            seen.insert(sfc::hilbertIndex<2>(p, bb));
        }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(g * g));
}

TEST(Hilbert2D, LocalityBeatsRandomOrder) {
    // Mean spatial distance between consecutive points in Hilbert order must
    // be far below the mean distance of a random order.
    geo::Xoshiro256 rng(46);
    std::vector<Point2> pts;
    for (int i = 0; i < 4000; ++i) pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
    const auto bb = Box2::around(pts);
    std::vector<std::pair<std::uint64_t, int>> order;
    for (int i = 0; i < static_cast<int>(pts.size()); ++i)
        order.emplace_back(sfc::hilbertIndex<2>(pts[static_cast<std::size_t>(i)], bb), i);
    std::sort(order.begin(), order.end());
    double hilbertHops = 0.0, randomHops = 0.0;
    for (std::size_t i = 1; i < order.size(); ++i) {
        hilbertHops += geo::distance(pts[static_cast<std::size_t>(order[i - 1].second)],
                                     pts[static_cast<std::size_t>(order[i].second)]);
        randomHops += geo::distance(pts[i - 1], pts[i]);
    }
    EXPECT_LT(hilbertHops * 5.0, randomHops);
}

TEST(Hilbert2D, IndicesMonotoneAlongCurveSegments) {
    // hilbertPoint is the inverse of hilbertIndex, so sorting indices must
    // reproduce the original curve order.
    const auto bb = unitBox2();
    std::vector<std::uint64_t> idx;
    for (std::uint64_t i = 1000; i < 1100; ++i)
        idx.push_back(sfc::hilbertIndex<2>(sfc::hilbertPoint<2>(i << 20, bb), bb));
    EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
}

TEST(Hilbert, BoundaryPointsAreClampedNotRejected) {
    const auto bb = unitBox2();
    EXPECT_NO_THROW(sfc::hilbertIndex<2>(Point2{{1.0, 1.0}}, bb));
    EXPECT_NO_THROW(sfc::hilbertIndex<2>(Point2{{-0.5, 2.0}}, bb));
    // Clamped outside points map to corner cells.
    const auto low = sfc::hilbertIndex<2>(Point2{{-1.0, -1.0}}, bb);
    const auto inside = sfc::hilbertIndex<2>(Point2{{1e-12, 1e-12}}, bb);
    EXPECT_EQ(low, inside);
}

TEST(Hilbert, DegenerateBoxDoesNotCrash) {
    Box2 flat;
    flat.lo = Point2{{0.0, 3.0}};
    flat.hi = Point2{{1.0, 3.0}};  // zero extent in y
    EXPECT_NO_THROW(sfc::hilbertIndex<2>(Point2{{0.5, 3.0}}, flat));
}

TEST(Hilbert, InvalidBoxThrows) {
    const auto bad = Box2::empty();
    EXPECT_THROW(sfc::hilbertIndex<2>(Point2{{0.0, 0.0}}, bad), std::invalid_argument);
}

TEST(HilbertIndices, ComputesBoundsWhenInvalid) {
    std::vector<Point2> pts{{{0.0, 0.0}}, {{1.0, 1.0}}, {{0.25, 0.75}}};
    const auto idx = sfc::hilbertIndices<2>(pts, Box2::empty());
    EXPECT_EQ(idx.size(), pts.size());
}

TEST(HilbertIndices, UpperBoundaryClampsIntoLastCell2D) {
    // The exact upper corner must key into the LAST cell, not one past it —
    // a point just inside the last cell (cell width 2^-31) and the corner
    // itself must agree, through the batch API.
    const auto bb = unitBox2();
    const double inside = 1.0 - 1e-12;  // within the last 2^-31 cell
    const std::vector<Point2> pts{{{1.0, 1.0}}, {{inside, inside}}, {{1.0, inside}}};
    const auto idx = sfc::hilbertIndices<2>(pts, bb);
    EXPECT_EQ(idx[0], idx[1]);
    EXPECT_EQ(idx[0], sfc::hilbertIndex<2>(pts[2], bb));
    // Round-tripping the clamped corner stays inside the box.
    const Point2 q = sfc::hilbertPoint<2>(idx[0], bb);
    EXPECT_TRUE(bb.contains(q));
}

TEST(HilbertIndices, UpperBoundaryClampsIntoLastCell3D) {
    const auto bb = unitBox3();
    const double inside = 1.0 - 1e-8;  // within the last 2^-20 cell (~9.5e-7)
    const std::vector<Point3> pts{{{1.0, 1.0, 1.0}}, {{inside, inside, inside}}};
    const auto idx = sfc::hilbertIndices<3>(pts, bb);
    EXPECT_EQ(idx[0], idx[1]);
    const Point3 q = sfc::hilbertPoint<3>(idx[0], bb);
    EXPECT_TRUE(bb.contains(q));
    // Same clamp contract for the Morton batch keying.
    std::vector<std::uint64_t> midx(pts.size());
    sfc::mortonIndicesInto<3>(pts, bb, midx);
    EXPECT_EQ(midx[0], midx[1]);
}

TEST(HilbertIndices, ReusesCallerBounds) {
    // A caller-provided valid box must be used as-is (no recomputation from
    // the points): keying against a wider box than the data's own bounds
    // must match per-point indices in that wider box.
    geo::Xoshiro256 rng(48);
    std::vector<Point2> pts;
    for (int i = 0; i < 200; ++i) pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
    Box2 wide;
    wide.lo = Point2{{-1.0, -1.0}};
    wide.hi = Point2{{3.0, 3.0}};
    const auto idx = sfc::hilbertIndices<2>(pts, wide);
    for (std::size_t i = 0; i < pts.size(); ++i)
        ASSERT_EQ(idx[i], sfc::hilbertIndex<2>(pts[i], wide)) << i;
}

TEST(HilbertIndices, ThreadedKeyingMatchesSerial) {
    geo::Xoshiro256 rng(49);
    std::vector<Point2> pts;
    for (int i = 0; i < 20000; ++i) pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
    // Valid box (keying only threaded) and invalid box (threaded bounds
    // pass too) — both must be independent of the thread count.
    for (const auto& bb : {Box2::around(std::span<const Point2>(pts)), Box2::empty()}) {
        const auto serial = sfc::hilbertIndices<2>(pts, bb, 1);
        for (const int threads : {2, 4, 8})
            EXPECT_EQ(sfc::hilbertIndices<2>(pts, bb, threads), serial);
        std::vector<std::uint64_t> serialMorton(pts.size()), threadedMorton(pts.size());
        sfc::mortonIndicesInto<2>(pts, bb, serialMorton, 1);
        sfc::mortonIndicesInto<2>(pts, bb, threadedMorton, 4);
        EXPECT_EQ(threadedMorton, serialMorton);
    }
    EXPECT_EQ(sfc::boundsOf<2>(pts, 4).lo, Box2::around(std::span<const Point2>(pts)).lo);
    EXPECT_EQ(sfc::boundsOf<2>(pts, 4).hi, Box2::around(std::span<const Point2>(pts)).hi);
}

TEST(Morton2D, PreservesGridDistinctness) {
    const auto bb = unitBox2();
    std::set<std::uint64_t> seen;
    const int g = 16;
    for (int i = 0; i < g; ++i)
        for (int j = 0; j < g; ++j)
            seen.insert(sfc::mortonIndex<2>(Point2{{(i + 0.5) / g, (j + 0.5) / g}}, bb));
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(g * g));
}

TEST(Morton2D, HilbertLocalityIsAtLeastAsGood) {
    // Aggregate hop length along the curve order: Hilbert should not be
    // worse than Morton (it is typically ~30% better).
    geo::Xoshiro256 rng(47);
    std::vector<Point2> pts;
    for (int i = 0; i < 4000; ++i) pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
    const auto bb = Box2::around(pts);
    auto hopLength = [&](auto indexer) {
        std::vector<std::pair<std::uint64_t, int>> order;
        for (int i = 0; i < static_cast<int>(pts.size()); ++i)
            order.emplace_back(indexer(pts[static_cast<std::size_t>(i)]), i);
        std::sort(order.begin(), order.end());
        double total = 0.0;
        for (std::size_t i = 1; i < order.size(); ++i)
            total += geo::distance(pts[static_cast<std::size_t>(order[i - 1].second)],
                                   pts[static_cast<std::size_t>(order[i].second)]);
        return total;
    };
    const double h = hopLength([&](const Point2& p) { return sfc::hilbertIndex<2>(p, bb); });
    const double m = hopLength([&](const Point2& p) { return sfc::mortonIndex<2>(p, bb); });
    EXPECT_LE(h, m * 1.05);
}

}  // namespace
