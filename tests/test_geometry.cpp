#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/eigen.hpp"
#include "geometry/point.hpp"
#include "support/rng.hpp"

namespace {

using geo::Box2;
using geo::Box3;
using geo::Point2;
using geo::Point3;

TEST(Point, Arithmetic) {
    const Point2 a{{1.0, 2.0}};
    const Point2 b{{3.0, 5.0}};
    EXPECT_EQ((a + b), (Point2{{4.0, 7.0}}));
    EXPECT_EQ((b - a), (Point2{{2.0, 3.0}}));
    EXPECT_EQ((a * 2.0), (Point2{{2.0, 4.0}}));
    EXPECT_EQ((a / 2.0), (Point2{{0.5, 1.0}}));
}

TEST(Point, DotAndNorm) {
    const Point3 a{{1.0, 2.0, 2.0}};
    EXPECT_DOUBLE_EQ(geo::dot(a, a), 9.0);
    EXPECT_DOUBLE_EQ(geo::norm(a), 3.0);
}

TEST(Point, DistanceIsMetric) {
    geo::Xoshiro256 rng(11);
    for (int i = 0; i < 200; ++i) {
        Point3 a, b, c;
        for (int d = 0; d < 3; ++d) {
            a[d] = rng.uniform(-1, 1);
            b[d] = rng.uniform(-1, 1);
            c[d] = rng.uniform(-1, 1);
        }
        const double ab = geo::distance(a, b);
        const double ba = geo::distance(b, a);
        EXPECT_DOUBLE_EQ(ab, ba);
        EXPECT_LE(ab, geo::distance(a, c) + geo::distance(c, b) + 1e-12);
        EXPECT_GE(ab, 0.0);
    }
    const Point3 p{{0.3, 0.4, 0.5}};
    EXPECT_DOUBLE_EQ(geo::distance(p, p), 0.0);
}

TEST(Box, EmptyIsInvalidUntilExtended) {
    auto b = Box2::empty();
    EXPECT_FALSE(b.valid());
    b.extend(Point2{{1.0, 2.0}});
    EXPECT_TRUE(b.valid());
    EXPECT_TRUE(b.contains(Point2{{1.0, 2.0}}));
}

TEST(Box, AroundContainsAllPoints) {
    geo::Xoshiro256 rng(13);
    std::vector<Point2> pts;
    for (int i = 0; i < 500; ++i)
        pts.push_back(Point2{{rng.uniform(-5, 5), rng.uniform(0, 10)}});
    const auto b = Box2::around(pts);
    for (const auto& p : pts) EXPECT_TRUE(b.contains(p));
}

TEST(Box, MinDistanceLowerBoundsTrueDistances) {
    geo::Xoshiro256 rng(17);
    Box3 b;
    b.lo = Point3{{0.0, 0.0, 0.0}};
    b.hi = Point3{{1.0, 2.0, 3.0}};
    for (int i = 0; i < 500; ++i) {
        Point3 q{{rng.uniform(-4, 5), rng.uniform(-4, 6), rng.uniform(-4, 7)}};
        // Sample points inside the box; none is nearer than minDistance.
        Point3 inside{{rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(0, 3)}};
        const double d = geo::distance(q, inside);
        EXPECT_LE(b.minDistance(q), d + 1e-12);
    }
}

TEST(Box, MinDistanceZeroInside) {
    Box2 b;
    b.lo = Point2{{0.0, 0.0}};
    b.hi = Point2{{1.0, 1.0}};
    EXPECT_DOUBLE_EQ(b.minDistance(Point2{{0.5, 0.5}}), 0.0);
    EXPECT_DOUBLE_EQ(b.minDistance(Point2{{2.0, 0.5}}), 1.0);
}

TEST(Box, WidestAxis) {
    Box3 b;
    b.lo = Point3{{0.0, 0.0, 0.0}};
    b.hi = Point3{{1.0, 5.0, 2.0}};
    EXPECT_EQ(b.widestAxis(), 1);
}

TEST(Box, CenterAndExtent) {
    Box2 b;
    b.lo = Point2{{-1.0, 0.0}};
    b.hi = Point2{{3.0, 2.0}};
    EXPECT_EQ(b.center(), (Point2{{1.0, 1.0}}));
    EXPECT_EQ(b.extent(), (Point2{{4.0, 2.0}}));
}

TEST(Centroid, UnweightedMean) {
    std::vector<Point2> pts{{{0.0, 0.0}}, {{2.0, 0.0}}, {{1.0, 3.0}}};
    const auto c = geo::centroid<2>(pts);
    EXPECT_NEAR(c[0], 1.0, 1e-12);
    EXPECT_NEAR(c[1], 1.0, 1e-12);
}

TEST(Centroid, WeightsShiftTheMean) {
    std::vector<Point2> pts{{{0.0, 0.0}}, {{1.0, 0.0}}};
    std::vector<double> w{1.0, 3.0};
    const auto c = geo::centroid<2>(pts, w);
    EXPECT_NEAR(c[0], 0.75, 1e-12);
}

TEST(Centroid, EmptyThrows) {
    std::vector<Point2> none;
    EXPECT_THROW(geo::centroid<2>(none), std::invalid_argument);
}

TEST(PrincipalAxis, RecoversDominantDirection2D) {
    // Points stretched along (1,1)/sqrt(2).
    geo::Xoshiro256 rng(23);
    std::vector<Point2> pts;
    for (int i = 0; i < 2000; ++i) {
        const double t = rng.uniform(-10, 10);
        const double noise = rng.uniform(-0.1, 0.1);
        pts.push_back(Point2{{t + noise, t - noise}});
    }
    const auto axis = geo::principalAxis<2>(geo::covarianceMatrix<2>(pts));
    const double align = std::abs(axis[0] * M_SQRT1_2 + axis[1] * M_SQRT1_2);
    EXPECT_GT(align, 0.999);
    EXPECT_NEAR(geo::norm(axis), 1.0, 1e-9);
}

TEST(PrincipalAxis, RecoversDominantDirection3D) {
    geo::Xoshiro256 rng(29);
    std::vector<Point3> pts;
    for (int i = 0; i < 2000; ++i) {
        const double t = rng.uniform(-10, 10);
        pts.push_back(Point3{{0.05 * rng.uniform(-1, 1), t, 0.05 * rng.uniform(-1, 1)}});
    }
    const auto axis = geo::principalAxis<3>(geo::covarianceMatrix<3>(pts));
    EXPECT_GT(std::abs(axis[1]), 0.999);
}

TEST(PrincipalAxis, DegenerateAllEqualPointsYieldsUnitVector) {
    std::vector<Point2> pts(10, Point2{{1.0, 1.0}});
    const auto axis = geo::principalAxis<2>(geo::covarianceMatrix<2>(pts));
    EXPECT_NEAR(geo::norm(axis), 1.0, 1e-9);
}

TEST(Covariance, DiagonalForAxisAlignedSpread) {
    geo::Xoshiro256 rng(31);
    std::vector<Point2> pts;
    for (int i = 0; i < 20000; ++i)
        pts.push_back(Point2{{rng.uniform(-1, 1), rng.uniform(-0.1, 0.1)}});
    const auto m = geo::covarianceMatrix<2>(pts);
    EXPECT_NEAR(m[0][1], 0.0, 0.01);
    EXPECT_GT(m[0][0], m[1][1]);
}

}  // namespace
