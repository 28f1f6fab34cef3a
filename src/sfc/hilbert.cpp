#include "sfc/hilbert.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "par/parallel_for.hpp"
#include "support/assert.hpp"

namespace geo::sfc {

namespace {

/// Quantize p into integer grid coordinates with `bits` bits per dimension.
template <int D>
std::array<std::uint32_t, D> quantize(const Point<D>& p, const Box<D>& bounds, int bits) {
    GEO_REQUIRE(bounds.valid(), "hilbert index needs a valid bounding box");
    std::array<std::uint32_t, D> coord{};
    const auto maxCell = static_cast<std::uint64_t>((1ULL << bits) - 1);
    for (int i = 0; i < D; ++i) {
        const double extent = bounds.hi[i] - bounds.lo[i];
        double t = extent > 0.0 ? (p[i] - bounds.lo[i]) / extent : 0.0;
        t = std::clamp(t, 0.0, 1.0);
        auto c = static_cast<std::uint64_t>(t * static_cast<double>(maxCell + 1));
        coord[static_cast<std::size_t>(i)] =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(c, maxCell));
    }
    return coord;
}

/// Skilling: axis coordinates -> transpose form of the Hilbert index.
template <int D>
void axesToTranspose(std::array<std::uint32_t, D>& x, int bits) {
    // Gray decode by H ^ (H/2).
    std::uint32_t m = 1U << (bits - 1);
    // Inverse undo.
    for (std::uint32_t q = m; q > 1; q >>= 1) {
        const std::uint32_t pMask = q - 1;
        for (int i = 0; i < D; ++i) {
            if (x[static_cast<std::size_t>(i)] & q) {
                x[0] ^= pMask;  // invert
            } else {
                const std::uint32_t t = (x[0] ^ x[static_cast<std::size_t>(i)]) & pMask;
                x[0] ^= t;
                x[static_cast<std::size_t>(i)] ^= t;
            }
        }
    }
    // Gray encode.
    for (int i = 1; i < D; ++i) x[static_cast<std::size_t>(i)] ^= x[static_cast<std::size_t>(i - 1)];
    std::uint32_t t = 0;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
        if (x[static_cast<std::size_t>(D - 1)] & q) t ^= q - 1;
    }
    for (int i = 0; i < D; ++i) x[static_cast<std::size_t>(i)] ^= t;
}

/// Skilling: transpose form -> axis coordinates (inverse of the above).
template <int D>
void transposeToAxes(std::array<std::uint32_t, D>& x, int bits) {
    const std::uint32_t n = 2U << (bits - 1);
    // Gray decode by H ^ (H/2).
    std::uint32_t t = x[static_cast<std::size_t>(D - 1)] >> 1;
    for (int i = D - 1; i > 0; --i)
        x[static_cast<std::size_t>(i)] ^= x[static_cast<std::size_t>(i - 1)];
    x[0] ^= t;
    // Undo excess work.
    for (std::uint32_t q = 2; q != n; q <<= 1) {
        const std::uint32_t pMask = q - 1;
        for (int i = D - 1; i >= 0; --i) {
            if (x[static_cast<std::size_t>(i)] & q) {
                x[0] ^= pMask;
            } else {
                const std::uint32_t s = (x[0] ^ x[static_cast<std::size_t>(i)]) & pMask;
                x[0] ^= s;
                x[static_cast<std::size_t>(i)] ^= s;
            }
        }
    }
}

/// Interleave the transpose form into one integer: bit b of dimension i of
/// the transpose occupies position b*D + (D-1-i) of the index.
template <int D>
std::uint64_t packTranspose(const std::array<std::uint32_t, D>& x, int bits) {
    std::uint64_t index = 0;
    for (int b = bits - 1; b >= 0; --b) {
        for (int i = 0; i < D; ++i) {
            index <<= 1;
            index |= (x[static_cast<std::size_t>(i)] >> b) & 1U;
        }
    }
    return index;
}

template <int D>
std::array<std::uint32_t, D> unpackTranspose(std::uint64_t index, int bits) {
    std::array<std::uint32_t, D> x{};
    for (int b = 0; b < bits; ++b) {
        for (int i = D - 1; i >= 0; --i) {
            x[static_cast<std::size_t>(i)] |= static_cast<std::uint32_t>(index & 1ULL) << b;
            index >>= 1;
        }
    }
    return x;
}

}  // namespace

template <int D>
std::uint64_t hilbertIndex(const Point<D>& p, const Box<D>& bounds) {
    constexpr int bits = kBitsPerDim<D>;
    auto coord = quantize<D>(p, bounds, bits);
    axesToTranspose<D>(coord, bits);
    return packTranspose<D>(coord, bits);
}

template <int D>
Point<D> hilbertPoint(std::uint64_t index, const Box<D>& bounds) {
    constexpr int bits = kBitsPerDim<D>;
    auto coord = unpackTranspose<D>(index, bits);
    transposeToAxes<D>(coord, bits);
    Point<D> p;
    const double cells = static_cast<double>(1ULL << bits);
    for (int i = 0; i < D; ++i) {
        const double extent = bounds.hi[i] - bounds.lo[i];
        p[i] = bounds.lo[i] +
               extent * ((static_cast<double>(coord[static_cast<std::size_t>(i)]) + 0.5) / cells);
    }
    return p;
}

template <int D>
Box<D> boundsOf(std::span<const Point<D>> points, int threads) {
    if (points.empty()) return Box<D>::empty();
    std::vector<Box<D>> partial(static_cast<std::size_t>(std::max(1, threads)),
                                Box<D>::empty());
    par::parallelFor(threads, points.size(),
                     [&](std::size_t i0, std::size_t i1, int worker) {
                         Box<D> bb = Box<D>::empty();
                         for (std::size_t i = i0; i < i1; ++i) bb.extend(points[i]);
                         partial[static_cast<std::size_t>(worker)] = bb;
                     });
    Box<D> out = Box<D>::empty();
    for (const auto& bb : partial)
        if (bb.valid()) out.extend(bb);
    return out;
}

template <int D>
void hilbertIndicesInto(std::span<const Point<D>> points, const Box<D>& bounds,
                        std::span<std::uint64_t> out, int threads) {
    GEO_REQUIRE(out.size() == points.size(), "need one key slot per point");
    const Box<D> bb = bounds.valid() ? bounds : boundsOf<D>(points, threads);
    par::parallelFor(threads, points.size(),
                     [&](std::size_t i0, std::size_t i1, int) {
                         for (std::size_t i = i0; i < i1; ++i)
                             out[i] = hilbertIndex<D>(points[i], bb);
                     });
}

template <int D>
std::vector<std::uint64_t> hilbertIndices(std::span<const Point<D>> points,
                                          const Box<D>& bounds, int threads) {
    std::vector<std::uint64_t> out(points.size());
    hilbertIndicesInto<D>(points, bounds, out, threads);
    return out;
}

template <int D>
std::uint64_t mortonIndex(const Point<D>& p, const Box<D>& bounds) {
    constexpr int bits = kBitsPerDim<D>;
    const auto coord = quantize<D>(p, bounds, bits);
    std::uint64_t index = 0;
    for (int b = bits - 1; b >= 0; --b) {
        for (int i = 0; i < D; ++i) {
            index <<= 1;
            index |= (coord[static_cast<std::size_t>(i)] >> b) & 1U;
        }
    }
    return index;
}

template <int D>
void mortonIndicesInto(std::span<const Point<D>> points, const Box<D>& bounds,
                       std::span<std::uint64_t> out, int threads) {
    GEO_REQUIRE(out.size() == points.size(), "need one key slot per point");
    const Box<D> bb = bounds.valid() ? bounds : boundsOf<D>(points, threads);
    par::parallelFor(threads, points.size(),
                     [&](std::size_t i0, std::size_t i1, int) {
                         for (std::size_t i = i0; i < i1; ++i)
                             out[i] = mortonIndex<D>(points[i], bb);
                     });
}

template std::uint64_t hilbertIndex<2>(const Point2&, const Box2&);
template std::uint64_t hilbertIndex<3>(const Point3&, const Box3&);
template Point2 hilbertPoint<2>(std::uint64_t, const Box2&);
template Point3 hilbertPoint<3>(std::uint64_t, const Box3&);
template std::vector<std::uint64_t> hilbertIndices<2>(std::span<const Point2>, const Box2&, int);
template std::vector<std::uint64_t> hilbertIndices<3>(std::span<const Point3>, const Box3&, int);
template void hilbertIndicesInto<2>(std::span<const Point2>, const Box2&, std::span<std::uint64_t>, int);
template void hilbertIndicesInto<3>(std::span<const Point3>, const Box3&, std::span<std::uint64_t>, int);
template void mortonIndicesInto<2>(std::span<const Point2>, const Box2&, std::span<std::uint64_t>, int);
template void mortonIndicesInto<3>(std::span<const Point3>, const Box3&, std::span<std::uint64_t>, int);
template std::uint64_t mortonIndex<2>(const Point2&, const Box2&);
template std::uint64_t mortonIndex<3>(const Point3&, const Box3&);
template Box2 boundsOf<2>(std::span<const Point2>, int);
template Box3 boundsOf<3>(std::span<const Point3>, int);

}  // namespace geo::sfc
