// Lock-free epoch-swapped router: the thread-safe serving handle over
// immutable PartitionSnapshots.
//
// A Router answers point → block (→ rank) lookups against "the current
// partition" while repartitioning keeps publishing new ones. The contract:
//   * readers never block — route()/snapshot() copy the current snapshot
//     pointer out of a par::AtomicSharedPtr slot (a one-bit spin protocol
//     held for a single refcount increment; see that header for why the
//     standard atomic<shared_ptr> does not survive TSan) and then work
//     exclusively on that immutable snapshot, so a reader mid-batch keeps
//     its snapshot alive even if the publisher swaps and drops every other
//     reference,
//   * publishers swap in O(1) — publish() installs the new snapshot with
//     one release store into the slot and bumps the router epoch; it never
//     waits for readers, and the old snapshot is freed by whichever side
//     drops the last reference,
//   * a reader therefore observes either the complete old snapshot or the
//     complete new one, never a mix — the property tests/test_serve.cpp
//     hammers under the TSan CI job.
//
// Batched route() fans fixed tiles out over the router's worker threads via
// par::parallelFor (Settings::threads semantics: per-point results are
// independent, so the output is identical at every thread count). The
// single-point overload is the low-latency path: one shared_ptr load + one
// descent, no pool traffic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "par/atomic_shared_ptr.hpp"
#include "par/thread_pool.hpp"
#include "serve/snapshot.hpp"

namespace geo::serve {

/// The one clock every serving-layer age/staleness measurement uses.
/// Pinned to steady_clock on purpose: RouterHealth::epochAgeSeconds and the
/// service SLO staleness window must not jump when NTP steps the wall
/// clock — a backwards wall-clock jump would fake a fresh snapshot, a
/// forwards one would fake an SLO violation and shed real traffic. The
/// regression test in tests/test_serve.cpp asserts this alias stays steady.
using HealthClock = std::chrono::steady_clock;
static_assert(HealthClock::is_steady,
              "serving staleness must be immune to wall-clock jumps");

/// Health/staleness report of a Router (see Router::health). The serving
/// contract under failure is graceful degradation: a failed publish leaves
/// the last good snapshot in place and is only RECORDED here — routing
/// keeps answering, just against an aging epoch. Operators (and the chaos
/// tests) read this struct to see how stale the answers are and why.
struct RouterHealth {
    std::uint64_t epoch = 0;            ///< last successfully published epoch
    double epochAgeSeconds = 0.0;       ///< age of that epoch (0 if none yet)
    std::uint64_t failedPublishes = 0;  ///< total tryPublish failures
    std::uint64_t consecutiveFailures = 0;  ///< failures since the last success
    std::string lastPublishError;       ///< empty when the last publish worked
    bool poisoned = false;              ///< explicit refuse-to-serve flag
    std::string poisonReason;

    /// True when route() would answer: some epoch is live and the router
    /// was not explicitly poisoned. Stale-but-alive IS servable.
    [[nodiscard]] bool servable() const noexcept { return epoch > 0 && !poisoned; }
};

template <int D>
class Router {
public:
    /// `threads` workers serve batched route() calls; 0 = the process
    /// default (GEO_THREADS or 1), matching Settings::resolvedThreads().
    explicit Router(int threads = 0)
        : threads_(threads >= 1 ? threads : par::defaultThreads()) {}

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    /// Atomically install `snapshot` as the current one and bump the epoch.
    /// Returns the new epoch (1 for the first publish). O(1): readers are
    /// never blocked or waited for; concurrent publishers serialize among
    /// themselves on a publisher-only mutex so the returned epochs match
    /// the order the snapshots became visible. The epoch is bumped *after*
    /// the slot store: observing epoch() >= E guarantees the E-th snapshot
    /// (or a newer one) is already visible to snapshot()/route().
    std::uint64_t publish(PartitionSnapshot<D> snapshot);

    /// Degradation-aware publish: run `make` (a callable producing the next
    /// PartitionSnapshot<D> — typically a repartition against a possibly
    /// failing transport) and publish its result. If production OR the
    /// publish throws, the router keeps serving the last good epoch, the
    /// failure is recorded for health(), and false is returned. Never
    /// throws: failure to produce a NEW partition must not take down
    /// serving of the OLD one.
    template <typename MakeSnapshot>
    bool tryPublish(MakeSnapshot&& make) noexcept {
        try {
            publish(std::forward<MakeSnapshot>(make)());
            return true;
        } catch (const std::exception& e) {
            recordPublishFailure(e.what());
            return false;
        } catch (...) {
            recordPublishFailure("unknown publish error");
            return false;
        }
    }

    /// Explicitly refuse to serve from now on: every route()/routeRank()
    /// call throws std::runtime_error carrying `reason`. The ONLY way a
    /// router stops answering — staleness and failed publishes never do.
    void poison(std::string reason);

    /// Current health/staleness snapshot (thread-safe, not on the routing
    /// fast path).
    [[nodiscard]] RouterHealth health() const;

    /// Lock-free poison probe — what the serving service's admission
    /// controller checks per batch (health() takes the status mutex and
    /// copies strings; too heavy for that path).
    [[nodiscard]] bool poisoned() const noexcept {
        return poisoned_.load(std::memory_order_acquire);
    }

    /// The current snapshot (nullptr before the first publish). The
    /// returned shared_ptr keeps the snapshot alive across any number of
    /// subsequent publishes.
    [[nodiscard]] std::shared_ptr<const PartitionSnapshot<D>> snapshot() const {
        return current_.load();
    }

    /// Number of publishes so far (0 = nothing published yet).
    [[nodiscard]] std::uint64_t epoch() const noexcept {
        return epoch_.load(std::memory_order_acquire);
    }

    [[nodiscard]] bool hasSnapshot() const { return snapshot() != nullptr; }

    /// Low-latency single lookup against the current snapshot. Like every
    /// lookup, throws std::invalid_argument on a NaN or infinite coordinate
    /// (PartitionSnapshot::blockOf).
    [[nodiscard]] std::int32_t route(const Point<D>& p) const;

    /// Batched lookup: `blocks[i]` = block of `points[i]`, computed against
    /// ONE snapshot (grabbed once for the whole batch) with the cache-
    /// blocked squared-domain kernel across the router's worker threads.
    void route(std::span<const Point<D>> points, std::span<std::int32_t> blocks) const;

    /// Serving rank of the block owning `p` (-1 when the current snapshot
    /// carries no rank map).
    [[nodiscard]] std::int32_t routeRank(const Point<D>& p) const;

    [[nodiscard]] int threads() const noexcept { return threads_; }

private:
    void recordPublishFailure(const std::string& what) noexcept;
    /// Fast-path poison check: one relaxed atomic load when healthy; the
    /// throw path takes the status mutex to read the reason.
    void checkNotPoisoned() const;

    par::AtomicSharedPtr<const PartitionSnapshot<D>> current_;
    std::atomic<std::uint64_t> epoch_{0};
    std::mutex publishMutex_;  ///< serializes publishers; readers never touch it
    int threads_;

    std::atomic<bool> poisoned_{false};
    mutable std::mutex statusMutex_;  ///< guards the health strings + timestamp
    std::string lastPublishError_;
    std::string poisonReason_;
    std::uint64_t failedPublishes_ = 0;
    std::uint64_t consecutiveFailures_ = 0;
    HealthClock::time_point lastPublishTime_{};
};

/// Misroute accounting of a stale snapshot against the fresh partition of
/// the SAME query points: position i compares the routed block to the block
/// the freshly computed partition assigns. The fraction is the paper-side
/// cost of serving block lookups from the previous timestep's diagram while
/// the next repartition is still running.
struct MisrouteStats {
    std::int64_t total = 0;
    std::int64_t misrouted = 0;

    [[nodiscard]] double fraction() const noexcept {
        return total == 0 ? 0.0
                          : static_cast<double>(misrouted) / static_cast<double>(total);
    }
};

[[nodiscard]] MisrouteStats misrouteStats(std::span<const std::int32_t> routed,
                                          std::span<const std::int32_t> fresh);

extern template class Router<2>;
extern template class Router<3>;

}  // namespace geo::serve
