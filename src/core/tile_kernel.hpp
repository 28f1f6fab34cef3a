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
// branches. It has two bodies:
//
//   * the baseline (detail::foldCenterBaseline) handles two lanes at a time
//     with SSE2 minpd/maxpd and compare-mask selects, and an odd last lane
//     with the same select network in scalar code;
//   * the wide body (detail::foldCenterWide, x86-64 only) handles eight
//     lanes per AVX-512F instruction with vminpd/vmaxpd and mask blends,
//     and hands the count % 8 tail lanes to the baseline.
//
// Dispatch rule: foldCenter takes the wide body when the CPU reports
// AVX-512F (libgcc's __builtin_cpu_supports, which also checks that the OS
// saves the AVX-512 state), decided once per process; no setting selects
// it. Both bodies give every lane the same sequence of operations — d2
// starts at +0.0 and adds diff·diff one dimension at a time, in order;
// e2 = d2 · invInfluence2; strict `<` compares; min/max/select pick the
// same operand — so their results are bitwise identical, and the kernel
// test (tests/test_assign_engine.cpp) compares them with memcmp. That
// needs the wide body compiled without floating-point contraction: g++
// contracts by default (-ffp-contract=fast), and the AVX-512 target turns
// d2 + diff·diff into a fused multiply-add that rounds once instead of
// twice. The pragma around the wide body turns contraction off there,
// whatever flags the including target passes.
//
// Tie rule: the update is a strict `<`, so among bitwise-equal candidates
// the first center folded in wins. Callers fold in a fixed order — the
// assignment engine (core/assign_kernel) in ascending (pruning key, id)
// order, a snapshot (serve/snapshot) in ascending id order — and that order
// is the tie rule. min/max only ever choose between bitwise-equal values on
// a tie, so the value lanes agree with the strict-< scalar logic. Both
// bodies keep this rule unchanged.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "geometry/point.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__)
#include <immintrin.h>
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

namespace detail {

/// The baseline body over lanes [from, count); `from` is even, so lanes
/// pair up exactly as they do in a fold that starts at lane 0.
template <int D, bool TrackSecond>
inline void foldCenterBaseline(const TileLanes<D>& lanes, std::size_t from,
                               std::size_t count, const Point<D>& center,
                               double invInfluence2, double id) {
    const Point<D> cx = center;
    const std::array<const double*, static_cast<std::size_t>(D)> x = lanes.x;
    double* __restrict best2 = lanes.best2;
    double* __restrict bestC = lanes.bestC;
    double* __restrict second2 = lanes.second2;
    double* __restrict secondC = lanes.secondC;

    const auto scalarLanes = [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
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
    std::size_t j = from;
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
    scalarLanes(from, count);
#endif
}

#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

/// The wide body over lanes [0, count - count % 8): the baseline's SSE2
/// lane arithmetic, eight lanes per instruction. The min/max use the masked
/// forms with an explicit source and a full mask — the same instruction
/// and result as the unmasked forms, whose GCC 12 definitions read an
/// undefined register and trip -Wmaybe-uninitialized.
template <int D, bool TrackSecond>
__attribute__((target("avx512f"))) void foldCenterWide(const TileLanes<D>& lanes,
                                                       std::size_t count,
                                                       const Point<D>& center,
                                                       double invInfluence2, double id) {
    constexpr __mmask8 kAll = 0xFF;
    const std::array<const double*, static_cast<std::size_t>(D)> x = lanes.x;
    double* __restrict best2 = lanes.best2;
    double* __restrict bestC = lanes.bestC;
    double* __restrict second2 = lanes.second2;
    double* __restrict secondC = lanes.secondC;

    __m512d cv[D];
    for (int d = 0; d < D; ++d) cv[d] = _mm512_set1_pd(center[d]);
    const __m512d idv = _mm512_set1_pd(id);
    const __m512d invv = _mm512_set1_pd(invInfluence2);
    for (std::size_t j = 0; j + 8 <= count; j += 8) {
        __m512d d2 = _mm512_setzero_pd();
        for (int d = 0; d < D; ++d) {
            const __m512d diff =
                _mm512_sub_pd(_mm512_loadu_pd(x[static_cast<std::size_t>(d)] + j), cv[d]);
            d2 = _mm512_add_pd(d2, _mm512_mul_pd(diff, diff));
        }
        const __m512d e2 = _mm512_mul_pd(d2, invv);
        const __m512d ob = _mm512_loadu_pd(best2 + j);
        const __m512d obc = _mm512_loadu_pd(bestC + j);
        const __mmask8 mb = _mm512_cmp_pd_mask(e2, ob, _CMP_LT_OS);
        _mm512_storeu_pd(best2 + j, _mm512_mask_min_pd(e2, kAll, e2, ob));
        _mm512_storeu_pd(bestC + j, _mm512_mask_blend_pd(mb, obc, idv));
        if constexpr (TrackSecond) {
            const __m512d os = _mm512_loadu_pd(second2 + j);
            const __m512d osc = _mm512_loadu_pd(secondC + j);
            const __mmask8 ms = _mm512_cmp_pd_mask(e2, os, _CMP_LT_OS);
            const __m512d challenger = _mm512_mask_max_pd(e2, kAll, e2, ob);
            _mm512_storeu_pd(second2 + j, _mm512_mask_min_pd(os, kAll, os, challenger));
            const __m512d demoted = _mm512_mask_blend_pd(ms, osc, idv);
            _mm512_storeu_pd(secondC + j, _mm512_mask_blend_pd(mb, demoted, obc));
        }
    }
}

#pragma GCC pop_options

/// Whether this CPU (and OS) runs the wide body; decided on first use.
inline bool wideFoldSupported() {
    static const bool supported = __builtin_cpu_supports("avx512f") != 0;
    return supported;
}
#endif

}  // namespace detail

/// Fold `center` (with precomputed 1/influence², and id `id`) into lanes
/// [0, count). Per lane: best' = min(e2, best), second' = min(second,
/// max(e2, best)); the ids follow through flat selects.
template <int D, bool TrackSecond>
inline void foldCenter(const TileLanes<D>& lanes, std::size_t count,
                       const Point<D>& center, double invInfluence2, double id) {
    std::size_t from = 0;
#if defined(__x86_64__)
    if (detail::wideFoldSupported()) {
        detail::foldCenterWide<D, TrackSecond>(lanes, count, center, invInfluence2, id);
        from = count - count % 8;
    }
#endif
    detail::foldCenterBaseline<D, TrackSecond>(lanes, from, count, center, invInfluence2, id);
}

}  // namespace geo::core
