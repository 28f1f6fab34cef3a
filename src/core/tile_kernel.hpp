// The effective-distance tile kernel: a run of centers folded into a tile
// of gathered points.
//
// Balanced k-means assigns a point to the center with the smallest
// effective distance dist(p, c)/influence(c), and a serving snapshot answers
// the same argmin over the same weighted Voronoi diagram. Both compare
// candidates in the squared domain, e2 = dist²(p, c) · (1/influence(c)²):
// x ↦ x² is monotone on non-negative effective distances, so the argmin and
// runner-up are unchanged while the per-candidate sqrt disappears.
//
// foldCenters is the one entry point: it folds a run of centers (a
// CenterRun: per-dimension coordinates, 1/influence² and ids), one after
// the other in run order, into a run of lanes (points, SoA layout). Per
// center it computes e2 and updates each lane's best value and id — and,
// when TrackSecond is set, its runner-up value and id — without branches.
// It has two bodies:
//
//   * the baseline (detail::foldCenterBaseline) folds one center per call,
//     two lanes at a time with SSE2 minpd/maxpd and compare-mask selects,
//     and an odd last lane with the same select network in scalar code;
//   * the wide body (detail::foldCentersWide, x86-64 only) loads eight
//     lanes' coordinates and best/runner-up state into AVX-512F registers
//     once, folds every center of the run into them with vminpd/vmaxpd
//     and mask blends, and stores them once; foldCenters hands the
//     count % 8 tail lanes to the baseline, center by center.
//
// Dispatch rule: foldCenters takes the wide body when the CPU reports
// AVX-512F (libgcc's __builtin_cpu_supports, which also checks that the OS
// saves the AVX-512 state), decided once per process; no setting selects
// it. Both bodies give every lane the same sequence of operations — per
// center, in run order, d2 starts at +0.0 and adds diff·diff one dimension
// at a time, in order; e2 = d2 · invInfluence2; strict `<` compares;
// min/max/select pick the same operand — so their results are bitwise
// identical, and the kernel test (tests/test_assign_engine.cpp) compares
// them with memcmp. Holding a lane's state in registers across the run
// instead of storing and reloading it between centers changes no value.
// That needs the wide body compiled without floating-point contraction:
// g++ contracts by default (-ffp-contract=fast), and the AVX-512 target
// turns d2 + diff·diff into a fused multiply-add that rounds once instead
// of twice. The pragma around the wide body turns contraction off there,
// whatever flags the including target passes.
//
// Tie rule: the update is a strict `<`, so among bitwise-equal candidates
// the center that comes first in the run wins, and across calls the center
// folded first. Callers lay out their runs in a fixed order — the
// assignment engine (core/assign_kernel) in ascending (pruning key, id)
// order, a snapshot (serve/snapshot) in ascending id order — and that
// order is the tie rule. min/max only ever choose between bitwise-equal
// values on a tie, so the value lanes agree with the strict-< scalar
// logic. Both bodies keep this rule unchanged.
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

/// A run of `size` centers, folded in order: per-dimension coordinates,
/// 1/influence² and the id each lane records (a double, like the lanes'
/// ids), one array each, all indexed by the center's place in the run.
template <int D>
struct CenterRun {
    std::array<const double*, static_cast<std::size_t>(D)> x{};
    const double* invInfluence2 = nullptr;
    const double* id = nullptr;
    std::size_t size = 0;
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
/// lane arithmetic, eight lanes per instruction, every center of the run
/// folded into one register-resident group of lanes before the next group
/// is loaded. The min/max use the masked forms with an explicit source and
/// a full mask — the same instruction and result as the unmasked forms,
/// whose GCC 12 definitions read an undefined register and trip
/// -Wmaybe-uninitialized.
template <int D, bool TrackSecond>
__attribute__((target("avx512f"))) void foldCentersWide(const TileLanes<D>& lanes,
                                                        std::size_t count,
                                                        const CenterRun<D>& run) {
    constexpr __mmask8 kAll = 0xFF;
    const std::array<const double*, static_cast<std::size_t>(D)> x = lanes.x;
    const std::array<const double*, static_cast<std::size_t>(D)> cx = run.x;
    const double* __restrict inv = run.invInfluence2;
    const double* __restrict ids = run.id;
    double* __restrict best2 = lanes.best2;
    double* __restrict bestC = lanes.bestC;
    double* __restrict second2 = lanes.second2;
    double* __restrict secondC = lanes.secondC;

    for (std::size_t j = 0; j + 8 <= count; j += 8) {
        __m512d xv[D];
        for (int d = 0; d < D; ++d)
            xv[d] = _mm512_loadu_pd(x[static_cast<std::size_t>(d)] + j);
        __m512d b = _mm512_loadu_pd(best2 + j);
        __m512d bc = _mm512_loadu_pd(bestC + j);
        __m512d s = TrackSecond ? _mm512_loadu_pd(second2 + j) : _mm512_setzero_pd();
        __m512d sc = TrackSecond ? _mm512_loadu_pd(secondC + j) : _mm512_setzero_pd();
        for (std::size_t c = 0; c < run.size; ++c) {
            __m512d d2 = _mm512_setzero_pd();
            for (int d = 0; d < D; ++d) {
                const __m512d diff = _mm512_sub_pd(
                    xv[d], _mm512_set1_pd(cx[static_cast<std::size_t>(d)][c]));
                d2 = _mm512_add_pd(d2, _mm512_mul_pd(diff, diff));
            }
            const __m512d e2 = _mm512_mul_pd(d2, _mm512_set1_pd(inv[c]));
            const __m512d idv = _mm512_set1_pd(ids[c]);
            const __mmask8 mb = _mm512_cmp_pd_mask(e2, b, _CMP_LT_OS);
            if constexpr (TrackSecond) {
                const __mmask8 ms = _mm512_cmp_pd_mask(e2, s, _CMP_LT_OS);
                const __m512d challenger = _mm512_mask_max_pd(e2, kAll, e2, b);
                s = _mm512_mask_min_pd(s, kAll, s, challenger);
                const __m512d demoted = _mm512_mask_blend_pd(ms, sc, idv);
                sc = _mm512_mask_blend_pd(mb, demoted, bc);
            }
            b = _mm512_mask_min_pd(e2, kAll, e2, b);
            bc = _mm512_mask_blend_pd(mb, bc, idv);
        }
        _mm512_storeu_pd(best2 + j, b);
        _mm512_storeu_pd(bestC + j, bc);
        if constexpr (TrackSecond) {
            _mm512_storeu_pd(second2 + j, s);
            _mm512_storeu_pd(secondC + j, sc);
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

/// Fold the centers of `run`, in run order, into lanes [0, count). Per
/// lane and center: best' = min(e2, best), second' = min(second,
/// max(e2, best)); the ids follow through flat selects.
template <int D, bool TrackSecond>
inline void foldCenters(const TileLanes<D>& lanes, std::size_t count, const CenterRun<D>& run) {
    std::size_t from = 0;
#if defined(__x86_64__)
    if (detail::wideFoldSupported()) {
        detail::foldCentersWide<D, TrackSecond>(lanes, count, run);
        from = count - count % 8;
    }
#endif
    if (from == count) return;
    for (std::size_t c = 0; c < run.size; ++c) {
        Point<D> center;
        for (int d = 0; d < D; ++d) center[d] = run.x[static_cast<std::size_t>(d)][c];
        detail::foldCenterBaseline<D, TrackSecond>(lanes, from, count, center,
                                                   run.invInfluence2[c], run.id[c]);
    }
}

}  // namespace geo::core
