// Suite for the SLO-governed serving service (serve/service.hpp).
//
// Dual-purpose binary like test_fault: with no --worker flag it is a normal
// gtest binary; `--worker=wedge` re-runs the bounded-staleness scenario in a
// child process whose environment carries GEO_FAULT=delay:op=repart — the
// fault spec is parsed once per process, so wedging the repartition worker
// through the REAL injection path needs a fresh process, not a setenv.
//
// What the suite proves, mapped to the serving contract:
//   * epoch consistency — every route() ticket names a published epoch and
//     its blocks are bitwise what that epoch's snapshot answers,
//   * bounded staleness — a wedged repartition worker (hook- and
//     GEO_FAULT-wedged) drives the controller to Shedding once the applied
//     churn outruns maxStalenessEvents: Low-priority queries bounce with
//     Overloaded, High-priority queries are still answered,
//   * backpressure — producers block before the ingest queue ever exceeds
//     its event bound, and the state machine reports it,
//   * degradation — a publish-failure storm leaves every route answering
//     from the last good epoch with zero failed queries, and the service
//     recovers on the first successful publish,
//   * poison — the only path to the Poisoned state, surfaced as a typed
//     ticket, never an exception,
//   * the latency histogram survives concurrent recording (the TSan job
//     runs this binary).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "repart/scenarios.hpp"
#include "serve/service.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"

namespace {

using namespace geo;
using serve::PartitionService;
using serve::QueryPriority;
using serve::RouteStatus;
using serve::ServiceConfig;
using serve::ServiceState;

/// Manual-reset gate for wedging service hooks from the test body.
class Gate {
public:
    void open() {
        {
            const std::lock_guard<std::mutex> lock(m_);
            open_ = true;
        }
        cv_.notify_all();
    }
    void wait() {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [this] { return open_; });
    }
    /// True once at least one waiter arrived (the hook is wedged).
    [[nodiscard]] bool engaged() const {
        const std::lock_guard<std::mutex> lock(m_);
        return engaged_;
    }
    void markEngaged() {
        {
            const std::lock_guard<std::mutex> lock(m_);
            engaged_ = true;
        }
        cv_.notify_all();
    }

private:
    mutable std::mutex m_;
    std::condition_variable cv_;
    bool open_ = false;
    bool engaged_ = false;
};

repart::WorkloadStep<2> makeStep(std::int64_t n, std::uint64_t seed = 7) {
    Xoshiro256 rng(seed);
    repart::WorkloadStep<2> step;
    step.ids.resize(static_cast<std::size_t>(n));
    step.points.resize(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        step.ids[static_cast<std::size_t>(i)] = i;
        for (int d = 0; d < 2; ++d)
            step.points[static_cast<std::size_t>(i)][d] = rng.uniform();
    }
    return step;
}

/// `count` Move events over the first ids of `step`, fresh uniform targets.
std::vector<repart::ChurnEvent<2>> moveEvents(const repart::WorkloadStep<2>& step,
                                              std::size_t count,
                                              std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<repart::ChurnEvent<2>> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        repart::ChurnEvent<2> e;
        e.kind = repart::ChurnEvent<2>::Kind::Move;
        e.id = step.ids[i % step.ids.size()];
        for (int d = 0; d < 2; ++d) e.point[d] = rng.uniform();
        events.push_back(e);
    }
    return events;
}

// ------------------------------------------------------------- churn diff

TEST(ChurnDiff, RoundTripsScenarioSteps) {
    repart::ScenarioConfig cfg;
    cfg.kind = repart::ScenarioKind::Churn;
    cfg.basePoints = 500;
    cfg.churnFraction = 0.2;
    cfg.seed = 11;
    repart::Scenario<2> scenario(cfg);
    auto prev = scenario.current();
    for (int step = 0; step < 3; ++step) {
        scenario.advance();
        const auto& next = scenario.current();
        const auto events = repart::diffSteps(prev, next);

        // Apply the events to prev; the result must equal next as an
        // id → point map.
        std::map<std::int64_t, Point2> state;
        for (std::size_t i = 0; i < prev.ids.size(); ++i)
            state[prev.ids[i]] = prev.points[i];
        for (const auto& e : events) {
            switch (e.kind) {
                case repart::ChurnEvent<2>::Kind::Remove:
                    ASSERT_EQ(state.erase(e.id), 1u);
                    break;
                case repart::ChurnEvent<2>::Kind::Insert:
                    ASSERT_FALSE(state.count(e.id));
                    state[e.id] = e.point;
                    break;
                case repart::ChurnEvent<2>::Kind::Move:
                    ASSERT_TRUE(state.count(e.id));
                    state[e.id] = e.point;
                    break;
            }
        }
        ASSERT_EQ(state.size(), next.ids.size());
        for (std::size_t i = 0; i < next.ids.size(); ++i) {
            const auto it = state.find(next.ids[i]);
            ASSERT_NE(it, state.end());
            EXPECT_EQ(it->second, next.points[i]);
        }
        prev = next;
    }
}

TEST(ChurnDiff, IdenticalStepsDiffEmpty) {
    const auto step = makeStep(100);
    EXPECT_TRUE(repart::diffSteps(step, step).empty());
}

// ------------------------------------------------------------ service core

TEST(Service, ServableImmediatelyWithEpochOne) {
    ServiceConfig<2> cfg;
    cfg.blocks = 4;
    PartitionService<2> service(cfg, makeStep(400));
    std::vector<Point2> q{{0.1, 0.2}, {0.9, 0.8}};
    std::vector<std::int32_t> out(q.size(), -1);
    const auto ticket = service.route(q, out);
    EXPECT_EQ(ticket.status, RouteStatus::Ok);
    EXPECT_EQ(ticket.epoch, 1u);
    for (const auto b : out) {
        EXPECT_GE(b, 0);
        EXPECT_LT(b, 4);
    }
    const auto health = service.health();
    EXPECT_EQ(health.state, ServiceState::Healthy);
    EXPECT_EQ(health.publishedEpochs, 1u);
    EXPECT_EQ(health.servedBatches, 1u);
    EXPECT_GT(health.p99LatencySeconds, 0.0);
    EXPECT_TRUE(health.router.servable());
}

TEST(Service, RoutesAreConsistentWithSomePublishedEpoch) {
    ServiceConfig<2> cfg;
    cfg.blocks = 8;
    cfg.repartitionIntervalSeconds = 0.005;

    // Record every published snapshot by epoch; the frontier cross-checks
    // each ticket against the recorded snapshot it claims answered.
    std::mutex snapMutex;
    std::map<std::uint64_t, std::shared_ptr<const serve::PartitionSnapshot<2>>> byEpoch;
    cfg.onPublish = [&](std::uint64_t epoch, auto snap) {
        const std::lock_guard<std::mutex> lock(snapMutex);
        byEpoch[epoch] = std::move(snap);
    };

    const auto initial = makeStep(2000);
    PartitionService<2> service(cfg, initial);

    std::atomic<bool> running{true};
    std::thread producer([&] {
        std::uint64_t seed = 100;
        while (running.load(std::memory_order_acquire)) {
            service.submit(moveEvents(initial, 400, seed++));
            service.requestRepartition();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    std::vector<std::thread> frontier;
    std::atomic<int> failures{0};
    std::atomic<int> checked{0};
    for (int t = 0; t < 4; ++t) {
        frontier.emplace_back([&, t] {
            Xoshiro256 rng(500 + static_cast<std::uint64_t>(t));
            std::vector<Point2> query(128);
            for (auto& p : query)
                for (int d = 0; d < 2; ++d) p[d] = rng.uniform();
            std::vector<std::int32_t> got(query.size());
            std::vector<std::int32_t> expected(query.size());
            while (running.load(std::memory_order_acquire)) {
                const auto ticket = service.route(query, got);
                if (ticket.status != RouteStatus::Ok) continue;
                // The route can land between the epoch swap and the
                // recording onPublish callback; give the recorder a moment
                // before declaring the epoch unaccounted for.
                std::shared_ptr<const serve::PartitionSnapshot<2>> snap;
                for (int spin = 0; spin < 2000 && !snap; ++spin) {
                    {
                        const std::lock_guard<std::mutex> lock(snapMutex);
                        const auto it = byEpoch.find(ticket.epoch);
                        if (it != byEpoch.end()) snap = it->second;
                    }
                    if (!snap)
                        std::this_thread::sleep_for(std::chrono::microseconds(50));
                }
                if (!snap) {  // a ticket for an unrecorded epoch is a failure
                    failures.fetch_add(1);
                    continue;
                }
                snap->blockOf(std::span<const Point2>(query),
                              std::span<std::int32_t>(expected));
                if (got != expected) failures.fetch_add(1);
                checked.fetch_add(1);
            }
        });
    }
    // Keep the frontier live across several real republishes, so routes are
    // checked while publishes are actually landing mid-stream.
    EXPECT_TRUE(service.waitForEpoch(4, 60.0));
    running.store(false);
    for (auto& t : frontier) t.join();
    producer.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(checked.load(), 0);
    // The churn stream forced actual republishing while the frontier ran.
    EXPECT_GT(service.health().publishedEpochs, 1u);
}

// --------------------------------------------------------------- staleness

TEST(Service, WedgedWorkerShedsLowPriorityOnceEventBoundExceeded) {
    Gate wedge;
    ServiceConfig<2> cfg;
    cfg.blocks = 4;
    cfg.slo.maxStalenessEvents = 300;
    cfg.repartitionIntervalSeconds = 0.002;
    cfg.repartHook = [&](std::uint64_t) {
        wedge.markEngaged();
        wedge.wait();
    };
    const auto initial = makeStep(1500);
    PartitionService<2> service(cfg, initial);

    ASSERT_TRUE(service.submit(moveEvents(initial, 1000, 1)));
    ASSERT_TRUE(service.waitForIngestDrain(10.0));

    const auto health = service.health();
    EXPECT_EQ(health.state, ServiceState::Shedding);
    EXPECT_GT(health.stalenessEvents, cfg.slo.maxStalenessEvents);

    std::vector<Point2> q{{0.5, 0.5}};
    std::vector<std::int32_t> out(1, -1);
    const auto low = service.route(q, out, QueryPriority::Low);
    EXPECT_EQ(low.status, RouteStatus::Overloaded);
    const auto high = service.route(q, out, QueryPriority::High);
    EXPECT_EQ(high.status, RouteStatus::Ok);
    EXPECT_EQ(high.epoch, 1u);  // still the pre-wedge epoch, never garbage
    EXPECT_GE(service.health().shedQueries, 1u);

    // The transition log must show the Healthy → Shedding edge with the
    // event-staleness reason.
    bool sawEdge = false;
    for (const auto& t : service.health().transitions)
        sawEdge = sawEdge || (t.from == ServiceState::Healthy &&
                              t.to == ServiceState::Shedding &&
                              t.reason.find("events") != std::string::npos);
    EXPECT_TRUE(sawEdge);

    wedge.open();
    // Unwedged, the worker publishes a fresh epoch and the service heals.
    EXPECT_TRUE(service.waitForEpoch(2, 30.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto healed = service.route(q, out, QueryPriority::Low);
    EXPECT_EQ(healed.status, RouteStatus::Ok);
    EXPECT_GE(healed.epoch, 2u);
}

// ------------------------------------------------------------ backpressure

TEST(Service, BackpressureBlocksProducersBeforeQueueExceedsBound) {
    Gate drainGate;
    ServiceConfig<2> cfg;
    cfg.blocks = 4;
    cfg.slo.ingestQueueBound = 100;
    cfg.ingestHook = [&](std::uint64_t) {
        drainGate.markEngaged();
        drainGate.wait();
    };
    const auto initial = makeStep(800);
    PartitionService<2> service(cfg, initial);

    // The first batch is popped immediately and wedges in the hook; the
    // following ones pile up in the queue until the bound blocks submit().
    std::atomic<int> submitted{0};
    std::thread producer([&] {
        for (int i = 0; i < 10; ++i) {
            if (!service.submit(moveEvents(initial, 40, 10 + i))) return;
            submitted.fetch_add(1);
        }
    });

    // Wait until the producer is actually blocked (observable state).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.health().state != ServiceState::Backpressure &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    auto health = service.health();
    EXPECT_EQ(health.state, ServiceState::Backpressure);
    EXPECT_GE(health.backpressureWaits, 1u);
    EXPECT_LE(health.ingestQueueDepth, cfg.slo.ingestQueueBound);
    EXPECT_LT(submitted.load(), 10);  // the producer did NOT run ahead

    // Queries still flow under backpressure.
    std::vector<Point2> q{{0.3, 0.7}};
    std::vector<std::int32_t> out(1, -1);
    EXPECT_EQ(service.route(q, out, QueryPriority::Low).status, RouteStatus::Ok);

    drainGate.open();
    producer.join();
    EXPECT_EQ(submitted.load(), 10);
    EXPECT_TRUE(service.waitForIngestDrain(10.0));
    EXPECT_EQ(service.health().ingestQueueDepth, 0u);
    EXPECT_EQ(service.health().appliedEvents, 400u);
}

// -------------------------------------------------------------- degradation

TEST(Service, PublishFailureStormDegradesToLastGoodEpochWithZeroFailedRoutes) {
    std::atomic<bool> storm{true};
    ServiceConfig<2> cfg;
    cfg.blocks = 4;
    cfg.repartitionIntervalSeconds = 0.002;
    cfg.publishHook = [&](std::uint64_t) {
        if (storm.load(std::memory_order_acquire))
            throw std::runtime_error("injected publish failure");
    };
    const auto initial = makeStep(1200);
    PartitionService<2> service(cfg, initial);

    // Drive repartition attempts through the storm while routing.
    std::vector<Point2> q{{0.2, 0.4}, {0.6, 0.6}};
    std::vector<std::int32_t> out(q.size(), -1);
    std::uint64_t seed = 50;
    for (int i = 0; i < 20; ++i) {
        service.submit(moveEvents(initial, 50, seed++));
        service.requestRepartition();
        const auto ticket = service.route(q, out, QueryPriority::High);
        ASSERT_EQ(ticket.status, RouteStatus::Ok);  // zero failed routes
        ASSERT_EQ(ticket.epoch, 1u);                // always the last good epoch
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto degraded = service.health();
    EXPECT_GT(degraded.router.failedPublishes, 0u);
    EXPECT_GT(degraded.router.consecutiveFailures, 0u);
    EXPECT_FALSE(degraded.router.lastPublishError.empty());
    EXPECT_EQ(degraded.publishedEpochs, 1u);
    EXPECT_TRUE(degraded.router.servable());

    // Storm over: the next successful publish clears the failure streak.
    storm.store(false, std::memory_order_release);
    service.submit(moveEvents(initial, 50, seed++));
    service.requestRepartition();
    ASSERT_TRUE(service.waitForEpoch(2, 30.0));
    const auto healed = service.health();
    EXPECT_EQ(healed.router.consecutiveFailures, 0u);
    EXPECT_GE(service.route(q, out).epoch, 2u);
}

TEST(Service, PoisonSurfacesAsTypedTicketAndState) {
    ServiceConfig<2> cfg;
    cfg.blocks = 4;
    PartitionService<2> service(cfg, makeStep(400));
    service.router().poison("operator drill");
    std::vector<Point2> q{{0.5, 0.5}};
    std::vector<std::int32_t> out(1, -1);
    EXPECT_EQ(service.route(q, out, QueryPriority::High).status,
              RouteStatus::Poisoned);
    const auto health = service.health();
    EXPECT_EQ(health.state, ServiceState::Poisoned);
    EXPECT_EQ(health.router.poisonReason, "operator drill");
    bool sawEdge = false;
    for (const auto& t : health.transitions)
        sawEdge = sawEdge || t.to == ServiceState::Poisoned;
    EXPECT_TRUE(sawEdge);
}

TEST(Service, NonFiniteQueryPointThrows) {
    ServiceConfig<2> cfg;
    cfg.blocks = 4;
    PartitionService<2> service(cfg, makeStep(400));
    std::vector<Point2> q{{0.5, 0.5}, {std::numeric_limits<double>::quiet_NaN(), 0.95}};
    std::vector<std::int32_t> out(q.size(), -1);
    EXPECT_THROW((void)service.route(q, out), std::invalid_argument);
    q[1] = Point2{{0.95, 0.95}};
    EXPECT_EQ(service.route(q, out).status, RouteStatus::Ok);
}

TEST(Service, SubmitRejectsNonFiniteBatchesBeforeEnqueuing) {
    // One NaN applied to the live set would fail every later repartition's
    // input check, freezing the served epoch while staleness grows.
    ServiceConfig<2> cfg;
    cfg.blocks = 4;
    cfg.repartitionIntervalSeconds = 0.005;
    const auto step = makeStep(400);
    PartitionService<2> service(cfg, step);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    auto badPoint = moveEvents(step, 8, 41);
    badPoint[5].point[1] = nan;
    auto badWeight = moveEvents(step, 8, 42);
    badWeight[2].kind = repart::ChurnEvent<2>::Kind::Insert;
    badWeight[2].id = 1'000'000;
    badWeight[2].weight = inf;
    EXPECT_THROW((void)service.submit(badPoint), std::invalid_argument);
    EXPECT_THROW((void)service.submit(badWeight), std::invalid_argument);
    ASSERT_TRUE(service.waitForIngestDrain(5.0));
    auto health = service.health();
    EXPECT_EQ(health.appliedEvents, 0u);
    EXPECT_EQ(health.ingestQueueDepth, 0u);

    // A valid batch afterwards is applied and published in a new epoch.
    ASSERT_TRUE(service.submit(moveEvents(step, 64, 43)));
    ASSERT_TRUE(service.waitForIngestDrain(5.0));
    EXPECT_EQ(service.health().appliedEvents, 64u);
    service.requestRepartition();
    EXPECT_TRUE(service.waitForEpoch(2, 10.0));
    health = service.health();
    EXPECT_GE(health.publishedEpochs, 2u);
    EXPECT_EQ(health.router.failedPublishes, 0u);
}

// ---------------------------------------------------- histogram under TSan

TEST(Service, HistogramSurvivesConcurrentRecordingAndMerging) {
    support::LatencyHistogram hist(4);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100000;
    std::atomic<bool> stopReader{false};
    std::thread reader([&] {
        while (!stopReader.load(std::memory_order_acquire)) {
            const auto view = hist.merged();  // momentary view, must not race
            (void)view.quantile(0.99);
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            Xoshiro256 rng(static_cast<std::uint64_t>(t));
            for (int i = 0; i < kPerThread; ++i)
                hist.record(rng.uniform() * 1e-3, t);
        });
    }
    for (auto& w : writers) w.join();
    stopReader.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(hist.merged().count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ----------------------------------------------- GEO_FAULT wedge (re-exec)

std::string selfExe() {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) return {};
    buf[n] = '\0';
    return std::string(buf);
}

/// Child body: GEO_FAULT=delay:ms=...:op=repart is already in the
/// environment, so faultPoint("repart", seq) wedges the worker through the
/// real injection path. Exit 0 iff the bounded-staleness contract held.
int wedgeWorkerMain() {
    ServiceConfig<2> cfg;
    cfg.blocks = 4;
    cfg.slo.maxStalenessEvents = 300;
    cfg.repartitionIntervalSeconds = 0.002;
    const auto initial = makeStep(1500);
    PartitionService<2> service(cfg, initial);

    if (!service.submit(moveEvents(initial, 1000, 1))) return 10;
    if (!service.waitForIngestDrain(10.0)) return 11;
    // Wait until the worker actually reached the fault point (the attempt
    // counter bumps right before it), so the assertions below run against a
    // genuinely wedged worker, not one that was never scheduled.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (service.health().repartitionAttempts == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (service.health().repartitionAttempts == 0) return 18;

    const auto health = service.health();
    if (health.state != ServiceState::Shedding) return 12;
    if (health.stalenessEvents <= cfg.slo.maxStalenessEvents) return 13;
    if (health.publishedEpochs != 1) return 14;  // the wedge held: no publish

    std::vector<Point2> q{{0.5, 0.5}};
    std::vector<std::int32_t> out(1, -1);
    if (service.route(q, out, QueryPriority::Low).status !=
        RouteStatus::Overloaded)
        return 15;
    const auto high = service.route(q, out, QueryPriority::High);
    if (high.status != RouteStatus::Ok || high.epoch != 1) return 16;
    if (service.health().shedQueries == 0) return 17;
    // Exit without waiting out the delay: stop() joins the worker, which is
    // mid-sleep inside faultPoint — bounded by the delay (4 s).
    return 0;
}

TEST(ServiceChaos, GeoFaultDelayWedgesWorkerAndStalenessBoundHolds) {
    const std::string exe = selfExe();
    ASSERT_FALSE(exe.empty());
    const std::string cmd =
        "GEO_FAULT=delay:ms=4000:op=repart GEO_THREADS=2 '" + exe +
        "' --worker=wedge";
    const int rc = std::system(cmd.c_str());
    ASSERT_NE(rc, -1);
    EXPECT_EQ(WIFEXITED(rc) ? WEXITSTATUS(rc) : 255, 0);
}

}  // namespace

int main(int argc, char** argv) {
    // Worker dispatch before gtest: the chaos leg re-execs this binary.
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--worker=wedge") == 0) return wedgeWorkerMain();

    // The gtest legs must run unwedged even when the environment carries a
    // stray fault spec (e.g. a CI job exporting GEO_FAULT for the bench).
    unsetenv("GEO_FAULT");

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
