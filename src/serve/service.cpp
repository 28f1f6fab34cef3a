#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "par/parallel_for.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace geo::serve {

namespace {

/// Latency shards: enough that a realistic frontier (tens of threads) sees
/// one shard per thread; beyond that threads share shards, which only costs
/// contention, never correctness.
constexpr int kLatencyShards = 16;

/// Refresh the cached p99 every this many served batches — merging the
/// histogram is O(buckets·shards), too heavy for every admission check.
constexpr std::uint64_t kP99RefreshBatches = 64;

/// Stable per-thread shard assignment (round-robin over all threads that
/// ever routed, wrapping into the shard count inside record()).
int threadShard() {
    static std::atomic<int> next{0};
    thread_local const int shard = next.fetch_add(1, std::memory_order_relaxed);
    return shard;
}

}  // namespace

const char* toString(ServiceState state) noexcept {
    switch (state) {
        case ServiceState::Healthy: return "healthy";
        case ServiceState::Backpressure: return "backpressure";
        case ServiceState::Shedding: return "shedding";
        case ServiceState::Poisoned: return "poisoned";
    }
    return "?";
}

template <int D>
PartitionService<D>::PartitionService(ServiceConfig<D> config,
                                      repart::WorkloadStep<D> initial)
    : config_(std::move(config)),
      router_(config_.settings.resolvedThreads()),
      latency_(kLatencyShards) {
    GEO_REQUIRE(config_.blocks >= 1, "service needs at least one block");
    GEO_REQUIRE(config_.slo.ingestQueueBound >= 1,
                "ingest queue bound must admit at least one event");
    GEO_REQUIRE(initial.ids.size() == initial.points.size(),
                "initial step needs one id per point");
    GEO_REQUIRE(static_cast<std::int64_t>(initial.points.size()) >= config_.blocks,
                "initial step needs at least one point per block");
    eventThreshold_ = config_.slo.maxStalenessEvents > 0
                          ? std::max<std::uint64_t>(1, config_.slo.maxStalenessEvents / 2)
                          : 4096;
    startTime_ = HealthClock::now();

    live_.ids = std::move(initial.ids);
    live_.points = std::move(initial.points);
    live_.weights = std::move(initial.weights);
    if (live_.weights.empty()) live_.weights.assign(live_.points.size(), 1.0);
    live_.slot.reserve(live_.ids.size());
    for (std::size_t i = 0; i < live_.ids.size(); ++i) live_.slot[live_.ids[i]] = i;

    // Synchronous cold start: the service is servable (epoch 1) before the
    // constructor returns. A failure HERE throws — there is no last good
    // epoch to degrade to yet.
    const auto rr = repart::repartitionGeographer<D>(
        live_.points, live_.weights, config_.blocks, config_.ranks,
        config_.settings, repartState_);
    router_.publish(PartitionSnapshot<D>::fromResult(rr.result, /*version=*/1,
                                                     config_.ranks));
    publishedEpochs_.store(1, std::memory_order_relaxed);
    captureOriginNanos_.store(0, std::memory_order_relaxed);
    if (config_.onPublish) config_.onPublish(1, router_.snapshot());

    const int workers = std::max(1, config_.ingestWorkers);
    ingestThreads_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        ingestThreads_.emplace_back([this] { ingestLoop(); });
    repartThread_ = std::thread([this] { repartitionLoop(); });
}

template <int D>
PartitionService<D>::~PartitionService() {
    stop();
}

template <int D>
void PartitionService<D>::stop() {
    if (stopped_.exchange(true)) {
        // Second caller (or the destructor after an explicit stop): threads
        // are already told; just make sure they were joined.
    } else {
        {
            const std::lock_guard<std::mutex> lock(queueMutex_);
            queueNotFull_.notify_all();
            queueNotEmpty_.notify_all();
            queueDrained_.notify_all();
        }
        {
            const std::lock_guard<std::mutex> lock(repartMutex_);
            repartWake_.notify_all();
            epochCv_.notify_all();
        }
    }
    for (auto& t : ingestThreads_)
        if (t.joinable()) t.join();
    if (repartThread_.joinable()) repartThread_.join();
}

// --------------------------------------------------------------- ingest

template <int D>
bool PartitionService<D>::submit(std::vector<repart::ChurnEvent<D>> events) {
    if (events.empty()) return !stopped_.load(std::memory_order_acquire);
    {
        std::unique_lock<std::mutex> lock(queueMutex_);
        bool counted = false;
        // A batch larger than the whole bound is admitted alone into an
        // empty queue — rejecting it forever would deadlock the producer.
        while (!stopped_.load(std::memory_order_acquire) && queuedEvents_ > 0 &&
               queuedEvents_ + events.size() > config_.slo.ingestQueueBound) {
            if (!counted) {
                backpressureWaits_.fetch_add(1, std::memory_order_relaxed);
                counted = true;
            }
            blockedProducers_.fetch_add(1, std::memory_order_relaxed);
            evaluateState();  // make the Backpressure transition visible NOW
            queueNotFull_.wait(lock);
            blockedProducers_.fetch_sub(1, std::memory_order_relaxed);
        }
        if (stopped_.load(std::memory_order_acquire)) return false;
        queuedEvents_ += events.size();
        queueDepth_.store(queuedEvents_, std::memory_order_relaxed);
        queue_.push_back(std::move(events));
    }
    queueNotEmpty_.notify_one();
    evaluateState();
    return true;
}

template <int D>
bool PartitionService<D>::trySubmit(std::vector<repart::ChurnEvent<D>> events) {
    if (events.empty()) return !stopped_.load(std::memory_order_acquire);
    {
        const std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopped_.load(std::memory_order_acquire)) return false;
        if (queuedEvents_ > 0 &&
            queuedEvents_ + events.size() > config_.slo.ingestQueueBound)
            return false;
        queuedEvents_ += events.size();
        queueDepth_.store(queuedEvents_, std::memory_order_relaxed);
        queue_.push_back(std::move(events));
    }
    queueNotEmpty_.notify_one();
    evaluateState();
    return true;
}

template <int D>
void PartitionService<D>::ingestLoop() {
    for (;;) {
        std::vector<repart::ChurnEvent<D>> batch;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueNotEmpty_.wait(lock, [this] {
                return stopped_.load(std::memory_order_acquire) || !queue_.empty();
            });
            if (stopped_.load(std::memory_order_acquire)) return;
            batch = std::move(queue_.front());
            queue_.pop_front();
            queuedEvents_ -= batch.size();
            queueDepth_.store(queuedEvents_, std::memory_order_relaxed);
            ++applyingBatches_;
        }
        queueNotFull_.notify_all();

        const std::uint64_t seq =
            ingestBatchSeq_.fetch_add(1, std::memory_order_relaxed);
        if (config_.ingestHook) config_.ingestHook(seq);
        applyBatch(batch);

        {
            const std::lock_guard<std::mutex> lock(queueMutex_);
            --applyingBatches_;
            if (queue_.empty() && applyingBatches_ == 0) queueDrained_.notify_all();
        }
        evaluateState();
        // The repartition worker re-checks its pending-event predicate; an
        // unconditional nudge per batch is cheaper than tracking the
        // threshold here.
        repartWake_.notify_one();
    }
}

template <int D>
void PartitionService<D>::applyBatch(
    const std::vector<repart::ChurnEvent<D>>& events) {
    const std::lock_guard<std::mutex> lock(pointsMutex_);
    for (const auto& e : events) {
        const auto it = live_.slot.find(e.id);
        switch (e.kind) {
            case repart::ChurnEvent<D>::Kind::Insert:
                if (it != live_.slot.end()) {  // defensive: recycled id = move
                    live_.points[it->second] = e.point;
                    live_.weights[it->second] = e.weight;
                    break;
                }
                live_.slot[e.id] = live_.points.size();
                live_.ids.push_back(e.id);
                live_.points.push_back(e.point);
                live_.weights.push_back(e.weight);
                break;
            case repart::ChurnEvent<D>::Kind::Remove: {
                if (it == live_.slot.end()) break;  // defensive: already gone
                const std::size_t idx = it->second;
                const std::size_t last = live_.points.size() - 1;
                if (idx != last) {
                    live_.ids[idx] = live_.ids[last];
                    live_.points[idx] = live_.points[last];
                    live_.weights[idx] = live_.weights[last];
                    live_.slot[live_.ids[idx]] = idx;
                }
                live_.ids.pop_back();
                live_.points.pop_back();
                live_.weights.pop_back();
                live_.slot.erase(e.id);
                break;
            }
            case repart::ChurnEvent<D>::Kind::Move:
                if (it == live_.slot.end()) {  // defensive: resurrect as insert
                    live_.slot[e.id] = live_.points.size();
                    live_.ids.push_back(e.id);
                    live_.points.push_back(e.point);
                    live_.weights.push_back(e.weight);
                    break;
                }
                live_.points[it->second] = e.point;
                break;
        }
    }
    // Inside the points lock: a capture that copies the set sees exactly
    // the events counted as applied, so staleness-in-events is exact.
    appliedEvents_.fetch_add(events.size(), std::memory_order_relaxed);
}

// --------------------------------------------------- repartition worker

template <int D>
void PartitionService<D>::repartitionLoop() {
    std::uint64_t seq = 0;
    const auto interval = std::chrono::duration<double>(
        std::max(1e-4, config_.repartitionIntervalSeconds));
    while (!stopped_.load(std::memory_order_acquire)) {
        bool requested = false;
        {
            std::unique_lock<std::mutex> lock(repartMutex_);
            repartWake_.wait_for(lock, interval, [this] {
                return stopped_.load(std::memory_order_acquire) || repartRequested_ ||
                       stalenessEventsNow() >= eventThreshold_;
            });
            requested = repartRequested_;
            repartRequested_ = false;
        }
        if (stopped_.load(std::memory_order_acquire)) break;
        // Nothing moved and nobody asked: a recompute would republish the
        // same diagram — skip the round, staleness is not accumulating.
        if (!requested && stalenessEventsNow() == 0) continue;

        repartitionAttempts_.fetch_add(1, std::memory_order_relaxed);
        if (config_.repartHook) config_.repartHook(seq);
        // Chaos hook: GEO_FAULT=delay:op=repart wedges the worker HERE —
        // queries keep flowing from the last epoch while staleness grows.
        support::faultPoint("repart", seq);

        // Consistent capture of the live set + the exact event count it
        // reflects (applyBatch counts under the same lock).
        std::vector<Point<D>> points;
        std::vector<double> weights;
        std::uint64_t capturedEvents = 0;
        {
            const std::lock_guard<std::mutex> lock(pointsMutex_);
            points = live_.points;
            weights = live_.weights;
            capturedEvents = appliedEvents_.load(std::memory_order_relaxed);
        }
        const std::int64_t captureNanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(HealthClock::now() -
                                                                 startTime_)
                .count();
        if (static_cast<std::int64_t>(points.size()) < config_.blocks) {
            // Deletes shrank the set below k: nothing publishable; retry
            // once inserts catch up.
            ++seq;
            continue;
        }

        double misroute = -1.0;
        const bool ok = router_.tryPublish([&] {
            auto rr = repart::repartitionGeographer<D>(
                points, weights, config_.blocks, config_.ranks, config_.settings,
                repartState_);
            // Chaos hook: GEO_FAULT=kill/exit/delay:op=publish targets the
            // window between recompute and epoch swap.
            support::faultPoint("publish", seq);
            const std::uint64_t epoch = router_.epoch() + 1;
            if (config_.publishHook) config_.publishHook(epoch);
            // Misroute the SLO tracks: what the snapshot being replaced
            // would answer for the fresh point set vs the fresh partition.
            if (const auto old = router_.snapshot()) {
                std::vector<std::int32_t> stale(points.size(), -1);
                old->blockOf(std::span<const Point<D>>(points),
                             std::span<std::int32_t>(stale));
                misroute = misrouteStats(stale, rr.result.partition).fraction();
            }
            return PartitionSnapshot<D>::fromResult(rr.result, epoch, config_.ranks);
        });

        if (ok) {
            eventsAtLastPublish_.store(capturedEvents, std::memory_order_relaxed);
            captureOriginNanos_.store(captureNanos, std::memory_order_relaxed);
            publishedEpochs_.fetch_add(1, std::memory_order_relaxed);
            if (misroute >= 0.0)
                lastMisroute_.store(misroute, std::memory_order_relaxed);
            {
                const std::lock_guard<std::mutex> lock(repartMutex_);
                epochCv_.notify_all();
            }
            if (config_.onPublish) config_.onPublish(router_.epoch(), router_.snapshot());
        } else {
            // Degraded: the router recorded the failure and still serves
            // the last good epoch. Pace the retry on the cadence interval
            // instead of hot-looping a failing recompute.
            std::unique_lock<std::mutex> lock(repartMutex_);
            repartWake_.wait_for(lock, interval, [this] {
                return stopped_.load(std::memory_order_acquire) || repartRequested_;
            });
        }
        ++seq;
        evaluateState();
    }
}

template <int D>
void PartitionService<D>::requestRepartition() {
    {
        const std::lock_guard<std::mutex> lock(repartMutex_);
        repartRequested_ = true;
    }
    repartWake_.notify_one();
}

template <int D>
bool PartitionService<D>::waitForEpoch(std::uint64_t epoch,
                                       double timeoutSeconds) const {
    std::unique_lock<std::mutex> lock(repartMutex_);
    epochCv_.wait_for(lock, std::chrono::duration<double>(timeoutSeconds), [&] {
        return router_.epoch() >= epoch || stopped_.load(std::memory_order_acquire);
    });
    return router_.epoch() >= epoch;
}

template <int D>
bool PartitionService<D>::waitForIngestDrain(double timeoutSeconds) const {
    std::unique_lock<std::mutex> lock(queueMutex_);
    return queueDrained_.wait_for(
        lock, std::chrono::duration<double>(timeoutSeconds), [&] {
            return (queue_.empty() && applyingBatches_ == 0) ||
                   stopped_.load(std::memory_order_acquire);
        });
}

// ------------------------------------------------------- query frontier

template <int D>
RouteTicket PartitionService<D>::route(std::span<const Point<D>> points,
                                       std::span<std::int32_t> blocks,
                                       QueryPriority priority) const {
    GEO_REQUIRE(points.size() == blocks.size(),
                "need one output slot per query point");
    evaluateState();
    RouteTicket ticket;
    const ServiceState state = state_.load(std::memory_order_acquire);
    if (state == ServiceState::Poisoned) {
        ticket.status = RouteStatus::Poisoned;
        return ticket;
    }
    if (state == ServiceState::Shedding && priority == QueryPriority::Low) {
        shedQueries_.fetch_add(1, std::memory_order_relaxed);
        ticket.status = RouteStatus::Overloaded;
        return ticket;
    }

    Timer timer;
    // One snapshot for the whole batch — the ticket's epoch is exactly the
    // snapshot every point was answered from, however many publishes land
    // while the batch is in flight.
    const auto snap = router_.snapshot();
    GEO_REQUIRE(snap != nullptr, "service constructed servable");
    par::parallelFor(config_.settings.resolvedThreads(), points.size(),
                     [&](std::size_t i0, std::size_t i1, int) {
                         snap->blockOf(points.subspan(i0, i1 - i0),
                                       blocks.subspan(i0, i1 - i0));
                     });
    ticket.seconds = timer.seconds();
    ticket.epoch = snap->version();
    latency_.record(ticket.seconds, threadShard());

    const std::uint64_t served =
        servedBatches_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (config_.slo.p99LatencyTargetSeconds > 0.0 &&
        (served % kP99RefreshBatches == 0 || served == 1))
        cachedP99_.store(latency_.merged().quantile(0.99),
                         std::memory_order_relaxed);
    return ticket;
}

// -------------------------------------------------- admission controller

template <int D>
std::uint64_t PartitionService<D>::stalenessEventsNow() const noexcept {
    const std::uint64_t applied = appliedEvents_.load(std::memory_order_relaxed);
    const std::uint64_t at = eventsAtLastPublish_.load(std::memory_order_relaxed);
    return applied > at ? applied - at : 0;
}

template <int D>
double PartitionService<D>::stalenessSecondsNow() const noexcept {
    const auto nowNanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              HealthClock::now() - startTime_)
                              .count();
    return static_cast<double>(nowNanos -
                               captureOriginNanos_.load(std::memory_order_relaxed)) *
           1e-9;
}

template <int D>
void PartitionService<D>::evaluateState() const {
    const auto& slo = config_.slo;
    ServiceState next = ServiceState::Healthy;
    char reason[160];
    std::snprintf(reason, sizeof reason, "within slo");

    if (router_.poisoned()) {
        next = ServiceState::Poisoned;
        std::snprintf(reason, sizeof reason, "router poisoned");
    } else {
        const double staleSeconds = stalenessSecondsNow();
        const std::uint64_t staleEvents = stalenessEventsNow();
        const double misroute = lastMisroute_.load(std::memory_order_relaxed);
        const double p99 = cachedP99_.load(std::memory_order_relaxed);
        if (slo.maxStalenessSeconds > 0.0 && staleSeconds > slo.maxStalenessSeconds) {
            next = ServiceState::Shedding;
            std::snprintf(reason, sizeof reason, "staleness %.3fs > %.3fs",
                          staleSeconds, slo.maxStalenessSeconds);
        } else if (slo.maxStalenessEvents > 0 &&
                   staleEvents > slo.maxStalenessEvents) {
            next = ServiceState::Shedding;
            std::snprintf(reason, sizeof reason,
                          "staleness %llu events > %llu",
                          static_cast<unsigned long long>(staleEvents),
                          static_cast<unsigned long long>(slo.maxStalenessEvents));
        } else if (slo.maxMisrouteFraction > 0.0 && misroute > slo.maxMisrouteFraction) {
            next = ServiceState::Shedding;
            std::snprintf(reason, sizeof reason, "misroute %.4f > %.4f", misroute,
                          slo.maxMisrouteFraction);
        } else if (slo.p99LatencyTargetSeconds > 0.0 &&
                   p99 > slo.p99LatencyTargetSeconds) {
            next = ServiceState::Shedding;
            std::snprintf(reason, sizeof reason, "p99 %.6fs > %.6fs", p99,
                          slo.p99LatencyTargetSeconds);
        } else if (queueDepth_.load(std::memory_order_relaxed) >=
                       slo.ingestQueueBound ||
                   blockedProducers_.load(std::memory_order_relaxed) > 0) {
            next = ServiceState::Backpressure;
            std::snprintf(reason, sizeof reason,
                          "ingest queue %zu / bound %zu, %d producer(s) blocked",
                          queueDepth_.load(std::memory_order_relaxed),
                          slo.ingestQueueBound,
                          blockedProducers_.load(std::memory_order_relaxed));
        }
    }
    if (next == state_.load(std::memory_order_acquire)) return;
    const std::lock_guard<std::mutex> lock(statusMutex_);
    const ServiceState current = state_.load(std::memory_order_acquire);
    if (next == current) return;  // another thread recorded it first
    StateTransition t;
    t.from = current;
    t.to = next;
    t.atSeconds = std::chrono::duration<double>(HealthClock::now() - startTime_).count();
    t.reason = reason;
    transitions_.push_back(std::move(t));
    while (transitions_.size() > kMaxTransitions) transitions_.pop_front();
    state_.store(next, std::memory_order_release);
}

template <int D>
ServiceHealth PartitionService<D>::health() const {
    evaluateState();
    ServiceHealth h;
    h.router = router_.health();
    h.state = state_.load(std::memory_order_acquire);
    const auto merged = latency_.merged();
    h.p50LatencySeconds = merged.quantile(0.50);
    h.p99LatencySeconds = merged.quantile(0.99);
    h.stalenessSeconds = stalenessSecondsNow();
    h.stalenessEvents = stalenessEventsNow();
    h.lastMisrouteFraction = lastMisroute_.load(std::memory_order_relaxed);
    h.ingestQueueDepth = queueDepth_.load(std::memory_order_relaxed);
    h.ingestQueueBound = config_.slo.ingestQueueBound;
    h.appliedEvents = appliedEvents_.load(std::memory_order_relaxed);
    h.servedBatches = servedBatches_.load(std::memory_order_relaxed);
    h.shedQueries = shedQueries_.load(std::memory_order_relaxed);
    h.backpressureWaits = backpressureWaits_.load(std::memory_order_relaxed);
    h.publishedEpochs = publishedEpochs_.load(std::memory_order_relaxed);
    h.repartitionAttempts = repartitionAttempts_.load(std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(statusMutex_);
        h.transitions.assign(transitions_.begin(), transitions_.end());
    }
    return h;
}

template class PartitionService<2>;
template class PartitionService<3>;

}  // namespace geo::serve
