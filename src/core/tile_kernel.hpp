// The effective-distance tile kernel: one center folded into a tile of
// gathered points.
//
// Balanced k-means assigns a point to the center with the smallest
// effective distance dist(p, c)/influence(c), and a serving snapshot answers
// the same argmin over the same weighted Voronoi diagram. Both compare
// candidates in the squared domain, e2 = dist²(p, c) · (1/influence(c)²):
// x ↦ x² is monotone on non-negative effective distances, so the argmin and
// runner-up are unchanged while the per-candidate sqrt disappears.
//
// foldCenter is that comparison for a run of lanes (points, SoA layout):
// it computes e2 against one center and updates each lane's best value and
// id — and, when TrackSecond is set, its runner-up value and id — without
// branches. The SSE2 body handles two lanes at a time with minpd/maxpd and
// compare-mask selects; the scalar tail is the same select network one lane
// at a time, so every lane gets identical arithmetic whichever body runs.
//
// Tie rule: the update is a strict `<`, so among bitwise-equal candidates
// the first center folded in wins. Callers fold in a fixed order — the
// assignment engine (core/assign_kernel) in ascending (pruning key, id)
// order, a snapshot (serve/snapshot) in ascending id order — and that order
// is the tie rule. minpd/maxpd only ever choose between bitwise-equal
// values on a tie, so the value lanes agree with the strict-< scalar logic.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "geometry/point.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace geo::core {

/// One gathered tile: per-dimension lane coordinates plus each lane's
/// running best (and runner-up) squared effective distance and center id.
/// Ids travel as doubles so every lane of the select has one vector width;
/// callers narrow them when they read the result. second2/secondC are only
/// touched by a fold that tracks the runner-up.
template <int D>
struct TileLanes {
    std::array<const double*, static_cast<std::size_t>(D)> x{};
    double* best2 = nullptr;
    double* bestC = nullptr;
    double* second2 = nullptr;
    double* secondC = nullptr;
};

/// Fold `center` (with precomputed 1/influence², and id `id`) into lanes
/// [0, count). Per lane: best' = min(e2, best), second' = min(second,
/// max(e2, best)); the ids follow through flat selects.
template <int D, bool TrackSecond>
inline void foldCenter(const TileLanes<D>& lanes, std::size_t count,
                       const Point<D>& center, double invInfluence2, double id) {
    const Point<D> cx = center;
    const std::array<const double*, static_cast<std::size_t>(D)> x = lanes.x;
    double* __restrict best2 = lanes.best2;
    double* __restrict bestC = lanes.bestC;
    double* __restrict second2 = lanes.second2;
    double* __restrict secondC = lanes.secondC;

    const auto scalarLanes = [&](std::size_t from, std::size_t to) {
        for (std::size_t j = from; j < to; ++j) {
            double d2 = 0.0;
            for (int d = 0; d < D; ++d) {
                const double diff = x[static_cast<std::size_t>(d)][j] - cx[d];
                d2 += diff * diff;
            }
            const double e2 = d2 * invInfluence2;
            const double ob = best2[j], obc = bestC[j];
            best2[j] = std::min(e2, ob);
            bestC[j] = e2 < ob ? id : obc;
            if constexpr (TrackSecond) {
                const double os = second2[j], osc = secondC[j];
                second2[j] = std::min(os, std::max(e2, ob));
                secondC[j] = e2 < ob ? obc : (e2 < os ? id : osc);
            }
        }
    };
#if defined(__SSE2__)
    const __m128d idv = _mm_set1_pd(id);
    const __m128d invv = _mm_set1_pd(invInfluence2);
    std::size_t j = 0;
    for (; j + 2 <= count; j += 2) {
        __m128d d2 = _mm_setzero_pd();
        for (int d = 0; d < D; ++d) {
            const __m128d diff = _mm_sub_pd(_mm_loadu_pd(x[static_cast<std::size_t>(d)] + j),
                                            _mm_set1_pd(cx[d]));
            d2 = _mm_add_pd(d2, _mm_mul_pd(diff, diff));
        }
        const __m128d e2 = _mm_mul_pd(d2, invv);
        const __m128d ob = _mm_loadu_pd(best2 + j);
        const __m128d obc = _mm_loadu_pd(bestC + j);
        const __m128d mb = _mm_cmplt_pd(e2, ob);
        _mm_storeu_pd(best2 + j, _mm_min_pd(e2, ob));
        _mm_storeu_pd(bestC + j, _mm_or_pd(_mm_and_pd(mb, idv), _mm_andnot_pd(mb, obc)));
        if constexpr (TrackSecond) {
            const __m128d os = _mm_loadu_pd(second2 + j);
            const __m128d osc = _mm_loadu_pd(secondC + j);
            const __m128d ms = _mm_cmplt_pd(e2, os);
            _mm_storeu_pd(second2 + j, _mm_min_pd(os, _mm_max_pd(e2, ob)));
            const __m128d demoted = _mm_or_pd(_mm_and_pd(ms, idv), _mm_andnot_pd(ms, osc));
            _mm_storeu_pd(secondC + j,
                          _mm_or_pd(_mm_and_pd(mb, obc), _mm_andnot_pd(mb, demoted)));
        }
    }
    scalarLanes(j, count);
#else
    scalarLanes(0, count);
#endif
}

}  // namespace geo::core
