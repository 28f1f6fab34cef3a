// Hilbert space-filling curve indices for 2D and 3D points.
//
// Geographer (§4.1) sorts all points by their Hilbert index to (i) give each
// process a spatially compact local point set and (ii) bootstrap the initial
// k-means centers at equidistant positions along the curve. The locality
// property of the Hilbert curve — points close in index are close in space —
// is what makes both uses effective.
//
// Implementation: Skilling's transpose-based algorithm (AIP Conf. Proc. 707,
// 2004), which maps between axis coordinates and the "transpose" form of the
// Hilbert index for arbitrary dimension; we instantiate D = 2, 3 and pack
// the result into a single 64-bit key (D * bitsPerDim <= 62).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"

namespace geo::sfc {

/// Number of bits of resolution per dimension used for 64-bit keys.
template <int D>
inline constexpr int kBitsPerDim = (D == 2) ? 31 : 20;

/// Map a point inside `bounds` to its Hilbert curve index.
/// Points on the upper boundary are clamped to the last cell.
template <int D>
std::uint64_t hilbertIndex(const Point<D>& p, const Box<D>& bounds);

/// Inverse: center of the cell with the given Hilbert index, in `bounds`.
template <int D>
Point<D> hilbertPoint(std::uint64_t index, const Box<D>& bounds);

/// Points per keying tile — the span the chunked pipeline keys at a time
/// (geographer fuses keying into its record build through one tile-sized
/// stack buffer per worker instead of an n-wide key mirror). Matches the
/// assignment engine's cache block.
inline constexpr std::size_t kKeyTile = 1024;

/// Batch keying for a whole point set. Callers that already hold the global
/// bounding box (geographer's allreduced box, repart's carried state) pass
/// it and no per-call bounds pass runs; an invalid `bounds` falls back to a
/// bounds computation over `points`. Both the bounds pass and the keying
/// loop fan out over `threads` workers; indices are pure per-point integer
/// functions and the bounds reduction is exact min/max, so results are
/// identical at every thread count.
template <int D>
std::vector<std::uint64_t> hilbertIndices(std::span<const Point<D>> points,
                                          const Box<D>& bounds, int threads = 1);

/// Span-writing variant: key `points` into caller-provided `out` (same
/// size) without allocating. The chunked pipeline calls this per tile, so
/// the key buffer stays tile-sized instead of mirroring all n points.
template <int D>
void hilbertIndicesInto(std::span<const Point<D>> points, const Box<D>& bounds,
                        std::span<std::uint64_t> out, int threads = 1);

/// Morton (Z-order) index; used as a cheaper, lower-locality comparator
/// in ablation experiments.
template <int D>
std::uint64_t mortonIndex(const Point<D>& p, const Box<D>& bounds);

/// Batch Morton keying into `out` (one slot per point), with the same
/// bounds-reuse and threading contract as hilbertIndicesInto.
template <int D>
void mortonIndicesInto(std::span<const Point<D>> points, const Box<D>& bounds,
                       std::span<std::uint64_t> out, int threads = 1);

/// Bounding box of `points`, the reduction preceding keying: per-worker
/// partial boxes merged into one. Box merge is exact coordinate min/max —
/// associative and commutative — so the result is thread-count independent.
template <int D>
Box<D> boundsOf(std::span<const Point<D>> points, int threads = 1);

extern template std::uint64_t hilbertIndex<2>(const Point2&, const Box2&);
extern template std::uint64_t hilbertIndex<3>(const Point3&, const Box3&);
extern template Point2 hilbertPoint<2>(std::uint64_t, const Box2&);
extern template Point3 hilbertPoint<3>(std::uint64_t, const Box3&);
extern template std::vector<std::uint64_t> hilbertIndices<2>(std::span<const Point2>, const Box2&, int);
extern template std::vector<std::uint64_t> hilbertIndices<3>(std::span<const Point3>, const Box3&, int);
extern template void hilbertIndicesInto<2>(std::span<const Point2>, const Box2&, std::span<std::uint64_t>, int);
extern template void hilbertIndicesInto<3>(std::span<const Point3>, const Box3&, std::span<std::uint64_t>, int);
extern template void mortonIndicesInto<2>(std::span<const Point2>, const Box2&, std::span<std::uint64_t>, int);
extern template void mortonIndicesInto<3>(std::span<const Point3>, const Box3&, std::span<std::uint64_t>, int);
extern template std::uint64_t mortonIndex<2>(const Point2&, const Box2&);
extern template std::uint64_t mortonIndex<3>(const Point3&, const Box3&);
extern template Box2 boundsOf<2>(std::span<const Point2>, int);
extern template Box3 boundsOf<3>(std::span<const Point3>, int);

}  // namespace geo::sfc
