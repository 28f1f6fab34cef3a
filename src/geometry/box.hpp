// Axis-aligned bounding box with the min/max distance queries the
// bounding-box pruning optimization of the paper (§4.4) relies on.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "geometry/point.hpp"

namespace geo {

template <int D>
struct Box {
    Point<D> lo;
    Point<D> hi;

    /// Empty box: lo = +inf, hi = -inf; extending with any point fixes it.
    static constexpr Box empty() noexcept {
        Box b;
        for (int i = 0; i < D; ++i) {
            b.lo[i] = std::numeric_limits<double>::infinity();
            b.hi[i] = -std::numeric_limits<double>::infinity();
        }
        return b;
    }

    static Box around(std::span<const Point<D>> points) noexcept {
        Box b = empty();
        for (const auto& p : points) b.extend(p);
        return b;
    }

    constexpr void extend(const Point<D>& p) noexcept {
        for (int i = 0; i < D; ++i) {
            lo[i] = std::min(lo[i], p[i]);
            hi[i] = std::max(hi[i], p[i]);
        }
    }

    constexpr void extend(const Box& o) noexcept {
        extend(o.lo);
        extend(o.hi);
    }

    [[nodiscard]] constexpr bool valid() const noexcept {
        for (int i = 0; i < D; ++i)
            if (lo[i] > hi[i]) return false;
        return true;
    }

    [[nodiscard]] constexpr bool contains(const Point<D>& p) const noexcept {
        for (int i = 0; i < D; ++i)
            if (p[i] < lo[i] || p[i] > hi[i]) return false;
        return true;
    }

    [[nodiscard]] constexpr Point<D> center() const noexcept {
        Point<D> c;
        for (int i = 0; i < D; ++i) c[i] = 0.5 * (lo[i] + hi[i]);
        return c;
    }

    [[nodiscard]] constexpr Point<D> extent() const noexcept {
        Point<D> e;
        for (int i = 0; i < D; ++i) e[i] = hi[i] - lo[i];
        return e;
    }

    /// Index of the widest axis (used by RCB / MultiJagged cut selection).
    [[nodiscard]] constexpr int widestAxis() const noexcept {
        int best = 0;
        double bestExtent = hi[0] - lo[0];
        for (int i = 1; i < D; ++i) {
            const double e = hi[i] - lo[i];
            if (e > bestExtent) {
                bestExtent = e;
                best = i;
            }
        }
        return best;
    }

    /// Smallest squared distance from p to any point of the box (0 if inside).
    [[nodiscard]] constexpr double minSquaredDistance(const Point<D>& p) const noexcept {
        double s = 0.0;
        for (int i = 0; i < D; ++i) {
            double d = 0.0;
            if (p[i] < lo[i]) d = lo[i] - p[i];
            else if (p[i] > hi[i]) d = p[i] - hi[i];
            s += d * d;
        }
        return s;
    }

    [[nodiscard]] double minDistance(const Point<D>& p) const noexcept {
        return std::sqrt(minSquaredDistance(p));
    }

    [[nodiscard]] double diagonal() const noexcept { return distance(lo, hi); }
};

using Box2 = Box<2>;
using Box3 = Box<3>;

}  // namespace geo
