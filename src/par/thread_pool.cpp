#include "par/thread_pool.hpp"

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/assert.hpp"
#include "support/env.hpp"

namespace geo::par {

int defaultThreads() { return support::env::integer("GEO_THREADS", 1, 1, 1024); }

/// Shared pool state. Workers sleep on `wake` until the generation counter
/// advances, run their chunk of the current task, then report completion on
/// `done`. A worker whose slot is beyond the current task's party count
/// simply re-arms for the next generation.
struct ThreadPool::State {
    std::mutex mutex;
    std::condition_variable wake;
    std::condition_variable done;
    std::vector<std::thread> workers;

    // Current task (valid while pending > 0 or the caller runs chunk 0).
    const Body* body = nullptr;
    std::size_t n = 0;
    int parties = 0;        ///< total workers incl. caller
    std::uint64_t generation = 0;
    int pending = 0;        ///< spawned workers still running this task
    std::exception_ptr error;
    bool stop = false;
};

namespace {

/// Chunk w of [0, n) split over t workers — the exact split parallelFor has
/// always used; kept here so pool and header cannot drift apart.
struct Chunk {
    std::size_t begin, end;
};
Chunk chunkOf(std::size_t n, int w, int t) {
    const auto tw = static_cast<std::size_t>(w);
    const auto tt = static_cast<std::size_t>(t);
    return {n * tw / tt, n * (tw + 1) / tt};
}

}  // namespace

ThreadPool::~ThreadPool() {
    if (!state_) return;
    {
        const std::lock_guard<std::mutex> lock(state_->mutex);
        state_->stop = true;
    }
    state_->wake.notify_all();
    for (auto& worker : state_->workers) worker.join();
    delete state_;
}

void ThreadPool::ensureWorkers(int count) {
    // Called under state_->mutex, *before* run() bumps the generation. New
    // workers start with `seen` equal to the pre-dispatch generation, so
    // the bump that follows in the same critical section is visible to them
    // as a fresh task (reading the counter after spawning would race: the
    // worker could observe the already-bumped value and sleep through the
    // very task it was spawned for).
    while (static_cast<int>(state_->workers.size()) < count) {
        const int slot = static_cast<int>(state_->workers.size());
        const std::uint64_t spawnGeneration = state_->generation;
        state_->workers.emplace_back(
            [this, slot, spawnGeneration] { workerLoop(slot, spawnGeneration); });
    }
}

void ThreadPool::workerLoop(int slot, std::uint64_t seen) {
    State& s = *state_;
    std::unique_lock<std::mutex> lock(s.mutex);
    for (;;) {
        s.wake.wait(lock, [&] { return s.stop || s.generation != seen; });
        if (s.stop) return;
        seen = s.generation;
        if (slot + 1 >= s.parties) continue;  // not needed for this task
        const Body* body = s.body;
        const auto [begin, end] = chunkOf(s.n, slot + 1, s.parties);
        lock.unlock();
        std::exception_ptr thrown;
        if (begin < end) {
            try {
                (*body)(begin, end, slot + 1);
            } catch (...) {
                thrown = std::current_exception();
            }
        }
        lock.lock();
        if (thrown && !s.error) s.error = thrown;
        if (--s.pending == 0) s.done.notify_one();
    }
}

void ThreadPool::run(int threads, std::size_t n, const Body& body) {
    GEO_REQUIRE(threads >= 2 && n >= 1, "pool dispatch needs >= 2 workers");
    if (!state_) state_ = new State();
    State& s = *state_;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        ensureWorkers(threads - 1);
        s.body = &body;
        s.n = n;
        s.parties = threads;
        s.pending = threads - 1;
        s.error = nullptr;
        ++s.generation;
    }
    s.wake.notify_all();

    // Chunk 0 runs on the caller, concurrently with the workers.
    const auto [begin, end] = chunkOf(n, 0, threads);
    std::exception_ptr thrown;
    if (begin < end) {
        try {
            body(begin, end, 0);
        } catch (...) {
            thrown = std::current_exception();
        }
    }

    std::unique_lock<std::mutex> lock(s.mutex);
    s.done.wait(lock, [&] { return s.pending == 0; });
    s.body = nullptr;
    if (thrown && !s.error) s.error = thrown;
    std::exception_ptr error = s.error;
    s.error = nullptr;
    lock.unlock();
    if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::forThisThread() {
    static thread_local ThreadPool pool;
    return pool;
}

}  // namespace geo::par
