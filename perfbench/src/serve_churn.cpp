// serve-churn: reads beside writes. A PartitionService<2> over a Churn
// scenario (200k points, 2% replaced per step), k = 64, one rank, one
// thread, one ingest worker, 50 ms repartition cadence.
//
// During the window one producer thread submits the scenario's diffSteps
// events in 1000-event chunks paced to 20k events/s, cutting each step's
// events when it reaches them, and two closed-loop client threads route
// fixed 1024-point batches at High priority. The main thread samples
// health().stalenessSeconds every 10 ms. Every published snapshot is kept
// (onPublish); afterwards a fixed sample of client batches is re-routed
// through the snapshot of its ticket's epoch, and any difference fails the
// run. The background worker must publish at least once per second of the
// window.
//
// Set-up is the service construction (cold partition + epoch-1 publish),
// done for seven scenarios of the seed; the last one is served. Route
// latencies go into fixed-size histograms, one per one-second slice of the
// window (the program's own support::LatencyHistogram, 32 buckets per
// octave), and the route figures are medians over the slices. The traced run
// records spans around route and submit calls (every other route call, so
// traced and untraced latency compare), brackets background repartitions
// with repartHook/publishHook/onPublish, and replays the service's cold
// set-up call to split set-up by layer.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "par/comm.hpp"
#include "repart/scenarios.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using geo::Point2;
using geo::par::detail::threadCpuSeconds;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kPoints = 200000;
constexpr double kChurnFraction = 0.02;
constexpr std::int32_t kBlocks = 64;
constexpr double kEventsPerSecond = 20000.0;
constexpr std::size_t kChunkEvents = 1000;
constexpr std::size_t kQueryBatch = 1024;
constexpr std::size_t kQueryBatches = 32;
constexpr int kClients = 2;
constexpr std::uint64_t kVerifyEvery = 64;  ///< re-route every n-th call of a client...
constexpr std::size_t kMaxVerified = 512;    ///< ...keeping at most this many per client
constexpr auto kStalenessTick = std::chrono::milliseconds(10);
/// Constructions, one scenario each: a construction's CPU seconds vary by
/// about ±15% from run to run and between scenarios, so the median takes seven.
constexpr int kSetupRuns = 7;
constexpr double kSlice = 1.0;     ///< seconds per route-statistics slice

geo::serve::ServiceConfig<2> baseConfig() {
    geo::serve::ServiceConfig<2> config;
    config.blocks = kBlocks;
    config.ranks = 1;
    config.settings.threads = 1;
    config.settings.ranks = 1;
    config.ingestWorkers = 1;
    config.repartitionIntervalSeconds = 0.05;
    return config;
}

geo::repart::ScenarioConfig churnConfig(std::uint64_t seed) {
    geo::repart::ScenarioConfig config;
    config.kind = geo::repart::ScenarioKind::Churn;
    config.basePoints = kPoints;
    config.churnFraction = kChurnFraction;
    config.seed = seed;
    return config;
}

double since(Clock::time_point t0, Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
}

/// A route answer kept for re-checking against its epoch's snapshot.
struct Sampled {
    std::size_t batch = 0;
    std::uint64_t epoch = 0;
    std::vector<std::int32_t> blocks;
};

/// One client's record of the window beside the shared histograms; its
/// size does not grow with the number of calls.
struct ClientLog {
    std::uint64_t calls = 0;
    std::uint64_t notOk = 0;
    double busy = 0.0;  ///< seconds inside route()
    double tracedSum = 0.0, untracedSum = 0.0;
    std::uint64_t tracedCalls = 0, untracedCalls = 0;
    std::vector<Sampled> samples;
};

}  // namespace

void runServeChurn(const Options& options, Report& report) {
    geo::Timer genTimer;
    // Fixed query batches, uniform over the unit square the scenario fills.
    geo::Xoshiro256 rng(options.seed ^ 0x5eedc0ffee);
    std::vector<std::vector<Point2>> queries(kQueryBatches, std::vector<Point2>(kQueryBatch));
    for (auto& batch : queries)
        for (auto& p : batch) p = Point2{{rng.uniform(), rng.uniform()}};
    double genSeconds = genTimer.seconds();

    Trace trace;
    Lane& mainLane = trace.lane("main");
    std::vector<Lane*> clientLanes;
    for (int c = 0; c < kClients; ++c)
        clientLanes.push_back(&trace.lane("client " + std::to_string(c)));
    Lane& producerLane = trace.lane("producer");
    Lane& workerLane = trace.lane("repartition worker");

    std::mutex snapshotsMutex;
    std::map<std::uint64_t, std::shared_ptr<const geo::serve::PartitionSnapshot<2>>> snapshots;
    std::atomic<bool> inWindow{false};
    double hookStart = -1.0, hookCpu = 0.0, publishStart = -1.0;
    std::vector<double> repartitionSeconds, repartitionCpu, publishSeconds;

    auto config = baseConfig();
    config.onPublish = [&](std::uint64_t epoch,
                           std::shared_ptr<const geo::serve::PartitionSnapshot<2>> snap) {
        {
            const std::lock_guard<std::mutex> lock(snapshotsMutex);
            snapshots[epoch] = std::move(snap);
        }
        // Epoch 1 is published by the constructor, outside the worker.
        if (epoch == 1 || hookStart < 0.0 || !inWindow.load()) return;
        const double end = workerLane.now();
        repartitionSeconds.push_back(end - hookStart);
        repartitionCpu.push_back(threadCpuSeconds() - hookCpu);
        publishSeconds.push_back(end - publishStart);
        if (options.traced) {
            const int span = workerLane.add("serve.repartition", hookStart, end);
            workerLane.add("serve.publish", publishStart, end, span);
        }
        hookStart = -1.0;
    };
    config.repartHook = [&](std::uint64_t) {
        hookStart = workerLane.now();
        hookCpu = threadCpuSeconds();
    };
    config.publishHook = [&](std::uint64_t) { publishStart = workerLane.now(); };

    // Set-up: service construction, one scenario each; the last one serves
    // and its scenario supplies the churn.
    std::optional<geo::repart::Scenario<2>> scenario;
    std::vector<Sample> setup;
    std::unique_ptr<geo::serve::PartitionService<2>> service;
    for (int i = 0; i < kSetupRuns; ++i) {
        geo::Timer g;
        scenario.emplace(churnConfig(options.seed * kSetupRuns + static_cast<std::uint64_t>(i)));
        auto step = scenario->current();
        genSeconds += g.seconds();
        if (i == 0) reportHarnessRss(report);
        const bool last = i + 1 == kSetupRuns;
        geo::Timer t;
        const double cpu = processCpuSeconds();
        auto built = std::make_unique<geo::serve::PartitionService<2>>(
            last ? config : baseConfig(), std::move(step));
        setup.push_back(Sample{t.seconds(), processCpuSeconds() - cpu});
        if (last) service = std::move(built);
    }
    reportSetup(report, setup,
                "a PartitionService construction (cold partition + epoch-1 publish), one "
                "scenario each");
    {
        const auto first = service->router().snapshot();
        const std::lock_guard<std::mutex> lock(snapshotsMutex);
        report.check(first && first->version() == 1 && snapshots[1] == first,
                     "epoch 1 is not the constructor's snapshot");
    }

    // Traced run: the service's own cold set-up call, replayed outside it;
    // epoch 1 must route the initial points to exactly that partition.
    geo::repart::RepartResult<2> setupReplay;
    if (options.traced) {
        const auto& initial = scenario->current();
        const std::vector<double> unit(initial.points.size(), 1.0);
        geo::repart::RepartState<2> state;
        const int span = mainLane.open("serve.setup");
        setupReplay = geo::repart::repartitionGeographer<2>(initial.points, unit, kBlocks, 1,
                                                            baseConfig().settings, state);
        mainLane.close(span);
        recordReportedPhases(mainLane, span, setupReplay.result);
        std::vector<std::int32_t> routed(initial.points.size());
        service->router().snapshot()->blockOf(initial.points, routed);
        report.check(routed == setupReplay.result.partition,
                     "epoch 1 does not route the initial points to the set-up partition");
    }

    const auto before = service->health();
    std::atomic<bool> stop{false};
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto tEnd = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(options.seconds));
    const auto slices =
        std::max<std::size_t>(1, static_cast<std::size_t>(options.seconds / kSlice));
    // Route call latency per slice of the window and client thread CPU per
    // call, one histogram shard per client.
    std::vector<geo::support::LatencyHistogram> sliceLatency;
    for (std::size_t s = 0; s < slices; ++s) sliceLatency.emplace_back(kClients);
    geo::support::LatencyHistogram routeCpu(kClients);
    inWindow = true;

    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientLog& log = logs[static_cast<std::size_t>(c)];
            Lane& lane = *clientLanes[static_cast<std::size_t>(c)];
            std::vector<std::int32_t> blocks(kQueryBatch);
            std::uint64_t stride = kVerifyEvery;
            std::this_thread::sleep_until(t0);
            for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
                const std::size_t batch =
                    (static_cast<std::size_t>(c) + kClients * i) % kQueryBatches;
                const bool traceCall = options.traced && i % 2 == 0;
                const double begin = traceCall ? lane.now() : 0.0;
                const auto start = Clock::now();
                const double cpu = threadCpuSeconds();
                const auto ticket = service->route(queries[batch], blocks,
                                                   geo::serve::QueryPriority::High);
                routeCpu.record(threadCpuSeconds() - cpu, c);
                const auto end = Clock::now();
                const double seconds = since(start, end);
                const auto slice = static_cast<std::size_t>(since(t0, end) / kSlice);
                sliceLatency[std::min(slices - 1, slice)].record(seconds, c);
                ++log.calls;
                log.busy += seconds;
                if (options.traced) {
                    (traceCall ? log.tracedSum : log.untracedSum) += seconds;
                    ++(traceCall ? log.tracedCalls : log.untracedCalls);
                    if (traceCall) lane.add("serve.route", begin, lane.now());
                }
                if (ticket.status != geo::serve::RouteStatus::Ok) {
                    ++log.notOk;
                } else if (i % stride == 0) {
                    if (log.samples.size() == kMaxVerified) {
                        // Full: keep every other sample and halve the rate,
                        // so the kept calls still span the whole window.
                        for (std::size_t k = 1; k < kMaxVerified / 2; ++k)
                            log.samples[k] = std::move(log.samples[2 * k]);
                        log.samples.resize(kMaxVerified / 2);
                        stride *= 2;
                    }
                    if (i % stride == 0) log.samples.push_back(Sampled{batch, ticket.epoch, blocks});
                }
            }
        });
    }

    // The producer cuts the next scenario step's events when it reaches
    // them, so only one step's churn is held at a time.
    std::uint64_t submits = 0, rejectedSubmits = 0;
    double submitWait = 0.0, lagSum = 0.0, producerGen = 0.0;
    threads.emplace_back([&] {
        const auto interval = std::chrono::duration<double>(
            static_cast<double>(kChunkEvents) / kEventsPerSecond);
        std::vector<geo::repart::ChurnEvent<2>> diff;
        std::size_t next = 0;
        for (std::size_t j = 0;; ++j) {
            const auto due = t0 + std::chrono::duration_cast<Clock::duration>(interval * j);
            if (due >= tEnd) break;
            if (next == diff.size()) {
                geo::Timer g;
                const auto prev = scenario->current();
                scenario->advance();
                diff = geo::repart::diffSteps<2>(prev, scenario->current());
                next = 0;
                producerGen += g.seconds();
            }
            const std::size_t end = std::min(diff.size(), next + kChunkEvents);
            std::vector<geo::repart::ChurnEvent<2>> chunk(
                diff.begin() + static_cast<std::ptrdiff_t>(next),
                diff.begin() + static_cast<std::ptrdiff_t>(end));
            next = end;
            std::this_thread::sleep_until(due);
            const double begin = producerLane.now();
            const auto start = Clock::now();
            lagSum += since(due, start);
            const bool ok = service->submit(std::move(chunk));
            submitWait += since(start, Clock::now());
            if (options.traced) producerLane.add("serve.submit", begin, producerLane.now());
            ++submits;
            rejectedSubmits += ok ? 0 : 1;
        }
    });

    std::vector<double> staleness, misroute;
    const auto ticksPerSlice = static_cast<std::size_t>(
        std::lround(kSlice / std::chrono::duration<double>(kStalenessTick).count()));
    std::size_t ticks = 0;
    for (auto tick = t0; tick < tEnd; tick += kStalenessTick, ++ticks) {
        std::this_thread::sleep_until(tick);
        // The resident set's peak is taken per slice of the window.
        if (ticks % ticksPerSlice == 0) {
            if (ticks > 0) report.recordPeak();
            report.restartPeak();
        }
        const auto h = service->health();
        staleness.push_back(h.stalenessSeconds);
        if (h.lastMisrouteFraction >= 0.0) misroute.push_back(h.lastMisrouteFraction);
    }
    std::this_thread::sleep_until(tEnd);
    stop = true;
    for (auto& t : threads) t.join();
    report.recordPeak();
    const auto after = service->health();
    inWindow = false;
    service->stop();
    genSeconds += producerGen;

    // Every route call and every submit is one operation.
    std::uint64_t calls = 0, notOk = 0;
    for (const auto& log : logs) {
        calls += log.calls;
        notOk += log.notOk;
    }
    report.tally(calls, notOk, "route ticket not Ok");
    report.tally(submits, rejectedSubmits, "submit rejected by a running service");

    // A background worker that stops publishing would leave the gated
    // figure empty; at least one repartition per second of the window must
    // publish.
    const std::uint64_t published = after.publishedEpochs - before.publishedEpochs;
    const auto wantPublished = static_cast<std::uint64_t>(std::max(1.0, options.seconds));
    report.check(published >= wantPublished && repartitionCpu.size() >= wantPublished,
                 std::to_string(published) + " background repartitions published (" +
                     std::to_string(repartitionCpu.size()) + " timed) in the window; want >= " +
                     std::to_string(wantPublished));

    // Re-route the sampled batches through the snapshot of their epoch; a
    // difference fails that route call.
    std::size_t verified = 0, wrong = 0;
    for (const auto& log : logs) {
        for (const auto& s : log.samples) {
            const auto it = snapshots.find(s.epoch);
            std::vector<std::int32_t> expected(kQueryBatch, -1);
            if (it != snapshots.end()) it->second->blockOf(queries[s.batch], expected);
            ++verified;
            wrong += it == snapshots.end() || expected != s.blocks ? 1 : 0;
        }
    }
    report.tally(0, wrong, "route answer differs from the snapshot of its epoch");
    report.fact("verified_batches", std::to_string(verified));
    report.fact("published_snapshots", std::to_string(snapshots.size()));

    // Route figures per one-second slice of the window, then the median
    // slice: a burst of host steal spoils a few slices, not the figure.
    std::vector<double> sliceRate, sliceP50, sliceP99;
    geo::support::HistogramCounts all;
    for (std::size_t s = 0; s < slices; ++s) {
        const auto slice = sliceLatency[s].merged();
        all.merge(slice);
        sliceRate.push_back(static_cast<double>(slice.count() * kQueryBatch) / kSlice / 1e6);
        sliceP50.push_back(quantile(slice, 0.5));
        sliceP99.push_back(quantile(slice, 0.99));
    }
    const auto cpu = routeCpu.merged();
    const auto tail = resolvedTail(all);
    const std::string sliced = "median over " + std::to_string(slices) +
                               " one-second slices; samples = calls";
    report.metric("serve.route_mpts_s", median(sliceRate), "Mpts/s", calls,
                  "routed points per second, both clients; " + sliced);
    report.metric("serve.route_p50_us", median(sliceP50) * 1e6, "us", calls,
                  "client-side route call p50; " + sliced);
    report.metric("serve.route_p99_us", median(sliceP99) * 1e6, "us", calls,
                  "client-side route call p99; " + sliced);
    report.metric("serve.staleness_s", median(staleness), "s", staleness.size(),
                  "median health().stalenessSeconds, sampled every 10 ms");
    report.metric("partition_s", median(repartitionSeconds), "s", repartitionSeconds.size(),
                  "wall seconds of a background repartition, repartHook -> onPublish, median");
    report.metric("partition_cpu_s", median(repartitionCpu), "s", repartitionCpu.size(),
                  "worker thread CPU seconds of the same, median");
    report.metric("serve.route_cpu_us", quantile(cpu, 0.5) * 1e6, "us", cpu.count(),
                  "client thread CPU of a route call, median");
    std::string tailNote = "too few samples";
    if (tail) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "p%g; samples = those beyond it", tail->percentile);
        tailNote = buf;
    }
    report.metric("serve.route_tail_us", tail ? tail->value * 1e6 : 0.0, "us",
                  tail ? tail->beyond : 0, tailNote);

    if (!options.traced) {
        report.metric("host.gen_s", genSeconds, "s", 1,
                      "scenarios, queries, and the producer's Scenario::advance + diffSteps");
        return;
    }

    const auto& r = setupReplay.result;
    auto phase = [&](const char* name) { return phaseSeconds(r, name); };
    const auto& c = r.counters;
    report.metric("sfc.key_s", phase("hilbert"), "s", 1, "replayed cold set-up call");
    report.metric("sfc.keyed_points", static_cast<double>(c.keyedPoints), "count", 1,
                  "replayed cold set-up call");
    report.metric("par.sort_s", phase("redistribute"), "s", 1, "replayed cold set-up call");
    report.metric("par.sorted_records", static_cast<double>(c.sortedRecords), "count", 1,
                  "replayed cold set-up call");
    report.metric("par.rank_wait_s", r.runStats.maxCpuSeconds > 0.0
                                         ? phase("hilbert") + phase("redistribute") +
                                               phase("kmeans") - r.runStats.maxCpuSeconds
                                         : 0.0,
                  "s", 1, "replayed set-up: phases - RunStats.maxCpuSeconds");
    report.metric("core.kmeans_s", phase("kmeans"), "s", 1, "replayed cold set-up call");
    report.metric("core.assign_s", phase("assign"), "s", 1, "replayed cold set-up call");
    report.metric("core.update_s", phase("update"), "s", 1, "replayed cold set-up call");
    reportKMeansWork(report, std::span(&c, 1), 2, phase("assign"), 1);

    double busy = 0.0, tracedSum = 0.0, untracedSum = 0.0;
    std::uint64_t tracedCalls = 0, untracedCalls = 0;
    for (const auto& log : logs) {
        busy += log.busy;
        tracedSum += log.tracedSum;
        untracedSum += log.untracedSum;
        tracedCalls += log.tracedCalls;
        untracedCalls += log.untracedCalls;
    }
    report.metric("serve.route_s", busy, "s", calls,
                  "client time inside route(), both clients, over the window");
    report.metric("serve.snapshot_build_s", median(publishSeconds), "s", publishSeconds.size(),
                  "publishHook -> onPublish: misroute scan + snapshot build + swap");
    report.metric("serve.repartition_s", median(repartitionSeconds), "s",
                  repartitionSeconds.size(), "repartHook -> onPublish (= partition_s)");
    report.metric("serve.published_epochs", static_cast<double>(published), "count", 1,
                  "during the window");
    report.metric("serve.repartition_attempts",
                  static_cast<double>(after.repartitionAttempts - before.repartitionAttempts),
                  "count", 1, "during the window");
    report.metric("serve.misroute_fraction", median(misroute), "ratio", misroute.size(),
                  "median health().lastMisrouteFraction");
    report.metric("serve.applied_events",
                  static_cast<double>(after.appliedEvents - before.appliedEvents), "count", 1,
                  "during the window");
    report.metric("serve.backpressure_waits",
                  static_cast<double>(after.backpressureWaits - before.backpressureWaits),
                  "count", 1, "during the window");
    report.metric("serve.submit_wait_s", submitWait, "s", submits, "producer time inside submit()");
    report.metric("serve.producer_lag_s", submits ? lagSum / static_cast<double>(submits) : 0.0,
                  "s", submits, "mean lateness of a submit against its schedule");
    report.metric("trace.overhead_s",
                  (tracedCalls ? tracedSum / static_cast<double>(tracedCalls) : 0.0) -
                      (untracedCalls ? untracedSum / static_cast<double>(untracedCalls) : 0.0),
                  "s", tracedCalls, "mean traced - mean untraced route call");
    report.metric("host.gen_s", genSeconds, "s", 1,
                  "scenarios, queries, and the producer's Scenario::advance + diffSteps");
    reportSelfSeconds(report, trace, {"sfc", "par", "core", "serve"}, 1.0, 1,
                      "layer self time over the window (serve) or set-up");

    const std::string path = options.traceDir + "/serve-churn-seed" +
                             std::to_string(options.seed) + ".json";
    report.check(trace.writeChrome(path, 5000, report.runJson()), "trace write failed: " + path);
    report.fact("trace_file", path);
}

}  // namespace perfbench
