// SLO-governed partition-serving service: concurrent ingest, background
// repartition, bounded staleness, and backpressure.
//
// bench/repart_timeline closes the compute→serve→recompute loop OFFLINE —
// one thread does everything in sequence. A PartitionService promotes it to
// a long-running online service running three roles concurrently against
// one serve::Router:
//   * the QUERY FRONTIER — any number of caller threads issuing batched
//     route() calls; each batch is answered against exactly one published
//     snapshot (the epoch is returned in the RouteTicket) and its latency
//     is recorded into a lock-free sharded histogram
//     (support/histogram.hpp),
//   * the INGEST PATH — producers submit() batches of repart::ChurnEvent
//     (inserts/deletes/drift, e.g. repart::diffSteps over a scenario) into
//     a mutex-protected bounded queue drained by worker threads that apply
//     them to the live point set — the job-queue shape of an IPP-style
//     print server: jobs held under one lock, workers draining, clients
//     polling state. When the queue is full, producers BLOCK (backpressure)
//     instead of growing the queue without bound,
//   * the REPARTITION WORKER — a background thread that captures a
//     consistent copy of the live point set, warm-starts
//     repart::repartitionGeographer, and publishes the fresh snapshot via
//     Router::tryPublish — so a failed recompute or publish degrades to the
//     last good epoch (PR 8's RouterHealth path) instead of taking serving
//     down. Fault points faultPoint("repart", seq) / faultPoint("publish",
//     seq) let GEO_FAULT wedge or kill the loop deterministically.
//
// The SLO contract (SloConfig) makes staleness an explicit, bounded
// quantity: a snapshot's staleness is measured BOTH in seconds since its
// point set was captured AND in churn events applied since then. The
// admission controller degrades through the state machine
//
//     Healthy → Backpressure → Shedding → Poisoned
//
//   * Backpressure — the ingest queue is at its bound; producers block,
//     queries still flow,
//   * Shedding — an SLO bound is violated (staleness in seconds or events,
//     observed misroute rate, or p99 route latency): LOW-priority queries
//     are rejected with a typed RouteStatus::Overloaded ticket; HIGH-
//     priority queries are still answered from the stale snapshot
//     (availability for the traffic that needs it, load shed for the rest),
//   * Poisoned — only via Router::poison; the service never poisons itself.
// Every transition is recorded and visible in a ServiceHealth snapshot.
// All ages use serve::HealthClock (steady), never the wall clock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/settings.hpp"
#include "repart/repartition.hpp"
#include "repart/scenarios.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "support/histogram.hpp"

namespace geo::serve {

enum class ServiceState : std::uint8_t { Healthy, Backpressure, Shedding, Poisoned };

[[nodiscard]] const char* toString(ServiceState state) noexcept;

/// The serving-level objectives the admission controller enforces. A bound
/// of 0 (or 0 events) disables that trigger — the defaults are deliberately
/// generous so a service without explicit SLOs behaves like a plain Router.
struct SloConfig {
    /// Shed low-priority traffic when the p99 batched-route latency (over
    /// the service lifetime histogram) exceeds this. 0 disables.
    double p99LatencyTargetSeconds = 0.0;
    /// Shed when the misroute rate observed at the last publish (stale
    /// snapshot vs fresh partition over the captured point set) exceeds
    /// this fraction. <= 0 disables.
    double maxMisrouteFraction = 0.0;
    /// Shed when the served snapshot's capture is older than this. The
    /// capture time, not the publish time: a recompute that took 3 s
    /// publishes a snapshot that is already 3 s stale. 0 disables.
    double maxStalenessSeconds = 0.0;
    /// Shed when more than this many churn events were applied to the live
    /// point set after the served snapshot's capture. 0 disables.
    std::uint64_t maxStalenessEvents = 0;
    /// Ingest-queue bound in EVENTS: submit() blocks while admitting the
    /// batch would push the queued event count past this. Must be >= 1.
    std::size_t ingestQueueBound = 65536;
};

enum class QueryPriority : std::uint8_t { Low, High };

enum class RouteStatus : std::uint8_t {
    Ok,          ///< answered; `epoch` says from which snapshot
    Overloaded,  ///< shed: low priority while the service is degraded
    Poisoned,    ///< the router was explicitly poisoned
};

/// Receipt of one batched route() call.
struct RouteTicket {
    RouteStatus status = RouteStatus::Ok;
    std::uint64_t epoch = 0;  ///< snapshot version that answered (Ok only)
    double seconds = 0.0;     ///< measured batch latency (Ok only)
};

/// One admission-controller state change, timestamped on the service's
/// steady clock (seconds since construction).
struct StateTransition {
    ServiceState from = ServiceState::Healthy;
    ServiceState to = ServiceState::Healthy;
    double atSeconds = 0.0;
    std::string reason;
};

/// Operator-visible snapshot of the whole serving loop.
struct ServiceHealth {
    ServiceState state = ServiceState::Healthy;
    RouterHealth router;
    double p50LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;
    /// Staleness of the served snapshot: seconds since its point-set
    /// capture, and churn events applied to the live set since then.
    double stalenessSeconds = 0.0;
    std::uint64_t stalenessEvents = 0;
    /// Misroute fraction measured at the last successful publish (previous
    /// snapshot vs fresh partition over the captured points); -1 before the
    /// first repartition publish.
    double lastMisrouteFraction = -1.0;
    std::size_t ingestQueueDepth = 0;  ///< queued events right now
    std::size_t ingestQueueBound = 0;
    std::uint64_t appliedEvents = 0;      ///< churn events applied in total
    std::uint64_t servedBatches = 0;      ///< Ok route() calls
    std::uint64_t shedQueries = 0;        ///< Overloaded tickets issued
    std::uint64_t backpressureWaits = 0;  ///< producer blocks on the full queue
    std::uint64_t publishedEpochs = 0;    ///< successful publishes (incl. epoch 1)
    std::uint64_t repartitionAttempts = 0;
    /// Most recent admission-controller transitions, oldest first (bounded
    /// ring — see kMaxTransitions).
    std::vector<StateTransition> transitions;
};

template <int D>
struct ServiceConfig {
    std::int32_t blocks = 8;
    int ranks = 1;
    /// Settings for every repartition the worker runs (threads also drive
    /// the router's batched-route fan-out).
    core::Settings settings;
    SloConfig slo;
    /// Threads draining the ingest queue. Applying events takes the point
    /// mutex, so >1 worker mostly buys popping/validation concurrency.
    int ingestWorkers = 1;
    /// Repartition cadence floor: the worker recomputes at least this often
    /// while churn arrives, and immediately once pending (unsnapshotted)
    /// events reach half of slo.maxStalenessEvents (4096 when that is 0).
    double repartitionIntervalSeconds = 0.05;

    // ---- test seams (no-ops when empty) ------------------------------
    /// Runs inside the tryPublish factory right before the snapshot is
    /// built, with the would-be epoch; a throw here is a publish failure
    /// (the deterministic way to drive a publish-failure storm in-process).
    std::function<void(std::uint64_t epoch)> publishHook;
    /// Runs at the top of every repartition-worker iteration (before the
    /// point-set capture); blocking here wedges the worker like a
    /// GEO_FAULT=delay:op=repart would.
    std::function<void(std::uint64_t seq)> repartHook;
    /// Runs in an ingest worker before each batch is applied; blocking here
    /// stalls draining so tests can fill the queue deterministically.
    std::function<void(std::uint64_t batch)> ingestHook;
    /// Called after every successful publish with the epoch and the
    /// now-current snapshot (the epoch-consistency tests record these).
    std::function<void(std::uint64_t epoch,
                       std::shared_ptr<const PartitionSnapshot<D>>)>
        onPublish;
};

template <int D>
class PartitionService {
public:
    /// Capped length of ServiceHealth::transitions (oldest entries drop).
    static constexpr std::size_t kMaxTransitions = 64;

    /// Partitions `initial` synchronously (cold) and publishes epoch 1, so
    /// the service is servable before the constructor returns; then starts
    /// the ingest workers and the repartition worker.
    PartitionService(ServiceConfig<D> config, repart::WorkloadStep<D> initial);
    ~PartitionService();

    PartitionService(const PartitionService&) = delete;
    PartitionService& operator=(const PartitionService&) = delete;

    /// Stop ingest + repartition threads (idempotent). Pending queued
    /// batches are dropped; the router keeps serving its last epoch.
    void stop();

    /// Enqueue a churn batch, BLOCKING while the queue is at its event
    /// bound (backpressure). Returns false when the service is stopped
    /// (the batch is not enqueued). Empty batches return true immediately.
    /// Throws std::invalid_argument, enqueuing nothing, when any event's
    /// point or weight is NaN or infinite: applied, it would fail every
    /// later repartition's input check and freeze the served epoch.
    bool submit(std::vector<repart::ChurnEvent<D>> events);

    /// Batched query against the current snapshot. Admission may shed
    /// Low-priority batches (RouteStatus::Overloaded; `blocks` is then
    /// untouched). Never throws on a poisoned router — that surfaces as
    /// RouteStatus::Poisoned. A NaN or infinite query coordinate throws
    /// std::invalid_argument (PartitionSnapshot::blockOf). Thread-safe;
    /// this IS the query frontier.
    RouteTicket route(std::span<const Point<D>> points,
                      std::span<std::int32_t> blocks,
                      QueryPriority priority = QueryPriority::High) const;

    [[nodiscard]] ServiceHealth health() const;

    [[nodiscard]] const Router<D>& router() const noexcept { return router_; }
    /// Mutable router access: poison() is the operator's kill switch.
    [[nodiscard]] Router<D>& router() noexcept { return router_; }

    /// Nudge the repartition worker out of its cadence wait.
    void requestRepartition();

    /// Wait until the router reaches `epoch` (true) or `timeoutSeconds`
    /// passes (false).
    bool waitForEpoch(std::uint64_t epoch, double timeoutSeconds) const;

    /// Wait until the ingest queue is empty and no batch is mid-apply.
    bool waitForIngestDrain(double timeoutSeconds) const;

private:
    struct PointSet {
        std::vector<std::int64_t> ids;
        std::vector<Point<D>> points;
        std::vector<double> weights;
        std::unordered_map<std::int64_t, std::size_t> slot;
    };

    void ingestLoop();
    void repartitionLoop();
    void applyBatch(const std::vector<repart::ChurnEvent<D>>& events);
    /// Re-derive the admission state from current measurements; record and
    /// publish the transition when it changed. `statusMutex_` must NOT be
    /// held by the caller.
    void evaluateState() const;
    [[nodiscard]] std::uint64_t stalenessEventsNow() const noexcept;
    [[nodiscard]] double stalenessSecondsNow() const noexcept;

    ServiceConfig<D> config_;
    std::uint64_t eventThreshold_ = 0;  ///< pending events that trigger a repartition
    Router<D> router_;
    repart::RepartState<D> repartState_;
    HealthClock::time_point startTime_{};

    // Live point set (ingest workers write, repartition worker captures).
    mutable std::mutex pointsMutex_;
    PointSet live_;

    // Bounded ingest queue (the job-queue: one mutex, workers draining,
    // producers blocking on the not-full condition).
    mutable std::mutex queueMutex_;
    std::condition_variable queueNotFull_;   ///< producers wait here
    std::condition_variable queueNotEmpty_;  ///< ingest workers wait here
    mutable std::condition_variable queueDrained_;  ///< waitForIngestDrain
    std::deque<std::vector<repart::ChurnEvent<D>>> queue_;
    std::size_t queuedEvents_ = 0;  ///< sum of queued batch sizes (queueMutex_)
    std::size_t applyingBatches_ = 0;
    std::atomic<std::size_t> queueDepth_{0};  ///< lock-free mirror of queuedEvents_
    std::atomic<int> blockedProducers_{0};

    // Repartition worker coordination.
    mutable std::mutex repartMutex_;
    std::condition_variable repartWake_;
    bool repartRequested_ = false;
    mutable std::condition_variable epochCv_;  ///< waitForEpoch (repartMutex_)

    // Monotonic counters + cached SLO measurements (relaxed atomics: the
    // admission controller runs on every route() call and must stay off
    // every mutex a writer might hold).
    std::atomic<std::uint64_t> appliedEvents_{0};
    std::atomic<std::uint64_t> eventsAtLastPublish_{0};
    std::atomic<std::int64_t> captureOriginNanos_{0};  ///< served snapshot's capture, ns since start
    mutable std::atomic<std::uint64_t> servedBatches_{0};
    mutable std::atomic<std::uint64_t> shedQueries_{0};
    mutable std::atomic<std::uint64_t> backpressureWaits_{0};
    std::atomic<std::uint64_t> publishedEpochs_{0};
    std::atomic<std::uint64_t> repartitionAttempts_{0};
    std::atomic<std::uint64_t> ingestBatchSeq_{0};
    std::atomic<double> lastMisroute_{-1.0};
    mutable std::atomic<double> cachedP99_{0.0};  ///< refreshed every few batches

    mutable support::LatencyHistogram latency_;

    // Admission state + transition log.
    mutable std::atomic<ServiceState> state_{ServiceState::Healthy};
    mutable std::mutex statusMutex_;  ///< guards transitions_ only
    mutable std::deque<StateTransition> transitions_;

    std::atomic<bool> stopped_{false};
    std::vector<std::thread> ingestThreads_;
    std::thread repartThread_;
};

extern template class PartitionService<2>;
extern template class PartitionService<3>;

}  // namespace geo::serve
