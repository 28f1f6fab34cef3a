// Intra-rank fork-join parallelism for every O(n) phase of the pipeline.
//
// The simulated SPMD runtime (par/comm.hpp) dedicates one thread per logical
// rank; `parallelFor` adds a second, nested level: a rank may fan its local
// compute loop out over `threads` workers (Settings::threads). Work is split
// into contiguous chunks of *items* (callers pass fixed-size cache blocks,
// never single points, whenever they reduce floating-point partials), so the
// chunk boundaries — and therefore every floating-point reduction the caller
// performs per chunk — are a function of the item count only, not of the
// thread count. That is what makes threaded sweeps bitwise reproducible at
// any `threads` value; see DESIGN.md "Threading model".
//
// Execution goes through the calling thread's persistent par::ThreadPool, so
// repeated phase launches (keying, sort, assignment, center update, metrics)
// reuse the same workers instead of paying a thread spawn per phase.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "par/thread_pool.hpp"

namespace geo::par {

/// Run `fn(begin, end, worker)` over [0, n) split into one contiguous chunk
/// per worker (chunk w = [n·w/threads, n·(w+1)/threads)). Worker 0 runs on
/// the calling thread; the rest execute on the caller's pooled workers. The
/// first exception thrown by any worker is rethrown on the caller after all
/// chunks finished.
template <typename Fn>
void parallelFor(int threads, std::size_t n, Fn&& fn) {
    if (threads <= 1 || n <= 1) {
        if (n > 0) fn(std::size_t{0}, n, 0);
        return;
    }
    const ThreadPool::Body body = std::forward<Fn>(fn);
    ThreadPool::forThisThread().run(threads, n, body);
}

/// Tile-aligned variant for callers that work in fixed `tile`-item units
/// (the geographer's keying tiles) or keep floating-point partials at tile
/// boundaries: `fn(begin, end, worker)` ranges cover [0, n) and begin/end
/// are always multiples of `tile` (end clamps to n on the last tile). The split
/// is computed over whole tiles, so — like parallelFor — chunk boundaries
/// depend only on n and tile, never on the thread count, and a caller that
/// reduces per-tile partials in tile order stays bitwise reproducible.
template <typename Fn>
void parallelForTiled(int threads, std::size_t n, std::size_t tile, Fn&& fn) {
    if (tile == 0) tile = 1;
    const std::size_t tiles = (n + tile - 1) / tile;
    parallelFor(threads, tiles,
                [&, tile, n](std::size_t t0, std::size_t t1, int worker) {
                    fn(t0 * tile, std::min(n, t1 * tile), worker);
                });
}

}  // namespace geo::par
