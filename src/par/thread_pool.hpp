// Reusable intra-rank worker pool behind par::parallelFor.
//
// PR 3 introduced fork-join threading for the assignment sweep but spawned
// fresh std::threads on every parallelFor call. Once every O(n) phase of the
// pipeline is threaded (SFC keying, local sort, center updates, metrics),
// that spawn cost is paid dozens of times per run and dominates small
// phases. This pool keeps the workers alive across calls: each OS thread
// that uses parallelFor owns one lazily-created pool (so SPMD rank threads
// never contend for each other's workers), workers block on a condition
// variable between tasks, and a task is dispatched as one generation bump +
// notify instead of thread creation.
//
// The pool does not choose chunking — parallelFor still splits [0, n) into
// one contiguous chunk per worker with thread-count-independent *item*
// semantics left to the caller. The pool only executes chunk w on worker w
// (chunk 0 on the caller), so the determinism contract of DESIGN.md
// "Threading model" is unaffected by pooling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace geo::par {

/// Process-wide default worker-thread count: GEO_THREADS in [1, 1024], 1
/// when unset (support/env.hpp rule: a malformed value throws
/// std::invalid_argument). Both Settings::threads resolution (core) and the
/// graph-metrics thread defaults consult this, so one variable threads the
/// whole pipeline — which is what lets the CI GEO_THREADS=4 matrix leg
/// exercise every threaded path through the existing suite.
[[nodiscard]] int defaultThreads();

class ThreadPool {
public:
    using Body = std::function<void(std::size_t, std::size_t, int)>;

    ThreadPool() = default;
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;
    ~ThreadPool();

    /// Run `body(begin, end, worker)` over [0, n) with `threads` workers
    /// (chunk w = [n·w/threads, n·(w+1)/threads), worker 0 = the caller).
    /// Blocks until every chunk finished; rethrows the first worker
    /// exception. Requires threads >= 2 and n >= 1 (parallelFor handles the
    /// serial fast path before reaching the pool).
    void run(int threads, std::size_t n, const Body& body);

    /// The calling thread's own pool, created on first use and destroyed
    /// (workers joined) when the thread exits. Rank threads of the SPMD
    /// machine therefore get disjoint pools whose lifetime spans all phases
    /// of the run on that rank.
    static ThreadPool& forThisThread();

private:
    struct State;
    void ensureWorkers(int count);
    void workerLoop(int slot, std::uint64_t seenGeneration);

    State* state_ = nullptr;  ///< allocated on first run()
};

}  // namespace geo::par
