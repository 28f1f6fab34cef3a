// warm-hotspot3d: the adaptive-simulation use. A 3D Hotspot scenario — a
// moving, weighted refinement region with inserts and removes over a
// 250k-point background (about 350k live points) — repartitioned with
// repartitionGeographer<3> on 2 simulated ranks × 1 thread, k = 64, under
// a 1 MiB PointStore budget.
//
// A run builds twelve scenarios from its seed. Set-up is a scenario
// build plus its cold step 0 (median over the twelve). The timed pass then
// rebuilds each scenario from its seed and runs its fixed sequence of two
// warm steps from the saved step-0 state; more passes run when the requested
// time allows, and a replay of the first steps closes the run. Only the
// step-0 state and partition of each scenario are kept between uses.
// Every repetition must reproduce the first exactly (counters and
// migration). The traced run records one span per repartitionGeographer
// call with the phases and RunStats it reports as children; the untraced
// replay gives the tracing overhead.
#include <algorithm>
#include <cmath>

#include "repart/migration.hpp"
#include "repart/repartition.hpp"
#include "repart/scenarios.hpp"
#include "stats.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using geo::Point3;

constexpr std::int64_t kBasePoints = 250000;
constexpr std::int32_t kBlocks = 64;
constexpr int kRanks = 2;
constexpr int kThreads = 1;
constexpr std::uint64_t kBudgetBytes = 1u << 20;
/// Scenarios per run: k-means work per warm step varies by about ±25%
/// between point clouds (the cold step 0 by about 2x), so one run's figure
/// spans twelve. Over 53 runs, the distance calcs of the median step spread
/// between seeds by 6% (interquartile range over median) when the 24 steps
/// came from six scenarios of four, and by 3% resampled as twelve of two.
constexpr std::size_t kScenarios = 12;
constexpr int kWarmSteps = 2;   ///< fixed warm sequence per scenario
constexpr int kCheckSteps = 2;  ///< steps replayed to check determinism

geo::repart::ScenarioConfig scenarioConfig(std::uint64_t seed) {
    geo::repart::ScenarioConfig config;
    config.kind = geo::repart::ScenarioKind::Hotspot;
    config.basePoints = kBasePoints;
    config.seed = seed;
    return config;
}

geo::core::Settings settings() {
    geo::core::Settings s;
    s.threads = kThreads;
    s.ranks = kRanks;
    s.memoryBudgetBytes = kBudgetBytes;
    return s;
}

/// One warm step's exact outcome (compared across passes) and timings.
struct Step {
    Fingerprint fingerprint;
    double migratedFraction = 0.0;
    bool warm = false;
    double wall = 0.0;
    double cpu = 0.0;
    double probe = 0.0, kmeans = 0.0, assign = 0.0, update = 0.0;
    double rankWait = 0.0;
    double modeledComm = 0.0;
    double coverage = 1.0;
    geo::core::KMeansCounters counters;
};

/// What a scenario's cold step 0 left: the warm-start state and the
/// partition the first warm step migrates from.
struct Start {
    std::uint64_t seed = 0;
    geo::repart::RepartState<3> state;
    std::vector<std::int32_t> partition;
    Fingerprint fingerprint;
    geo::core::KMeansCounters counters;
};

}  // namespace

void runWarmHotspot3d(const Options& options, Report& report) {
    const auto s = settings();
    Trace trace;
    Lane& lane = trace.lane("main");

    // Set-up, per scenario: build + cold step 0.
    geo::Timer clock;
    std::vector<Start> starts;
    std::vector<Sample> setup;
    std::vector<double> keySeconds, sortSeconds;
    for (std::size_t j = 0; j < kScenarios; ++j) {
        const std::uint64_t seed = options.seed * kScenarios + j;
        geo::Timer t;
        const double cpu = processCpuSeconds();
        geo::repart::Scenario<3> scenario(scenarioConfig(seed));
        geo::repart::RepartState<3> state;
        const auto& cur = scenario.current();
        if (j == 0) reportHarnessRss(report);
        auto r = geo::repart::repartitionGeographer<3>(cur.points, cur.weights, kBlocks, kRanks,
                                                       s, state);
        setup.push_back(Sample{t.seconds(), processCpuSeconds() - cpu});
        checkPartition(report, "step 0 of scenario " + std::to_string(j), r.result.partition,
                       cur.points.size(), kBlocks, cur.weights, s.epsilon);
        keySeconds.push_back(phaseSeconds(r.result, "hilbert"));
        sortSeconds.push_back(phaseSeconds(r.result, "redistribute"));
        const auto fingerprint = Fingerprint::of(r.result);
        starts.push_back(Start{seed, std::move(state), std::move(r.result.partition), fingerprint,
                               r.result.counters});
    }
    reportSetup(report, setup, "a scenario build + cold step 0, one scenario each");

    // The warm sequence of scenario j from its step-0 state.
    double genSeconds = 0.0;
    auto runSequence = [&](std::size_t j, int count, bool tracing) {
        geo::Timer g;
        geo::repart::Scenario<3> scenario(scenarioConfig(starts[j].seed));
        genSeconds += g.seconds();
        auto state = starts[j].state;
        std::vector<std::int64_t> prevIds = scenario.current().ids;
        std::vector<std::int32_t> prevBlocks = starts[j].partition;
        std::vector<Step> steps;
        for (int k = 1; k <= count; ++k) {
            geo::Timer g;
            scenario.advance();
            genSeconds += g.seconds();
            const auto& cur = scenario.current();
            report.restartPeak();
            const int span = tracing ? lane.open("repart.step") : -1;
            geo::Timer t;
            const double cpu0 = processCpuSeconds();
            auto r = geo::repart::repartitionGeographer<3>(cur.points, cur.weights, kBlocks,
                                                           kRanks, s, state);
            Step step;
            step.wall = t.seconds();
            step.cpu = processCpuSeconds() - cpu0;
            report.recordPeak();
            if (tracing) {
                lane.close(span);
                step.coverage = recordReportedPhases(lane, span, r.result);
            }
            checkPartition(report,
                           "scenario " + std::to_string(j) + " warm step " + std::to_string(k),
                           r.result.partition, cur.points.size(), kBlocks, cur.weights,
                           s.epsilon);
            step.migratedFraction =
                geo::repart::migrationStats(prevIds, prevBlocks, cur.ids, r.result.partition,
                                            cur.weights, kBlocks, kRanks,
                                            geo::repart::migrationBytesPerPoint(3))
                    .migratedFraction;
            step.fingerprint = Fingerprint::of(r.result);
            step.warm = r.warmStarted;
            step.probe = phaseSeconds(r.result, "probe");
            step.kmeans = phaseSeconds(r.result, "kmeans");
            step.assign = phaseSeconds(r.result, "assign");
            step.update = phaseSeconds(r.result, "update");
            step.rankWait = step.wall - r.result.runStats.maxCpuSeconds;
            step.modeledComm = r.result.runStats.maxModeledCommSeconds;
            step.counters = r.result.counters;
            prevIds = cur.ids;
            prevBlocks = std::move(r.result.partition);
            steps.push_back(std::move(step));
        }
        return steps;
    };
    auto same = [&](const Step& a, const Step& b, const std::string& what) {
        report.check(a.fingerprint == b.fingerprint && a.migratedFraction == b.migratedFraction &&
                         a.warm == b.warm,
                     what + " differs from the first pass (" + a.fingerprint.str() + ")");
    };

    // Timed passes over every scenario's sequence, as many as fit the
    // requested time; each must reproduce the first exactly.
    std::vector<std::vector<Step>> passes;
    std::vector<double> stepWalls, stepCpus;
    for (std::size_t planned = 1, p = 0; p < planned; ++p) {
        std::vector<Step> pass;
        for (std::size_t j = 0; j < starts.size(); ++j)
            for (auto& st : runSequence(j, kWarmSteps, options.traced)) pass.push_back(std::move(st));
        for (const auto& st : pass) {
            stepWalls.push_back(st.wall);
            stepCpus.push_back(st.cpu);
        }
        if (p > 0)
            for (std::size_t k = 0; k < pass.size(); ++k)
                same(pass[k], passes.front()[k], "pass " + std::to_string(p) + " step " +
                                                     std::to_string(k));
        passes.push_back(std::move(pass));
        if (p == 0)
            planned = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::lround(options.seconds / clock.seconds())));
    }
    // Replay the start of scenario 0 untraced: it must match exactly, and
    // against the traced pass it gives the tracing overhead.
    const auto replay = runSequence(0, kCheckSteps, false);
    double replayWall = 0.0, passWall = 0.0;
    for (std::size_t k = 0; k < replay.size(); ++k) {
        same(replay[k], passes.front()[k], "replayed step " + std::to_string(k));
        replayWall += replay[k].wall / kCheckSteps;
        passWall += passes.front()[k].wall / kCheckSteps;
    }

    const auto& first = passes.front();
    const double seq = static_cast<double>(first.size());
    double migrated = 0.0;
    std::string fingerprint;
    for (std::size_t j = 0; j < starts.size(); ++j)
        fingerprint += (j ? " | scenario" : "scenario") + std::to_string(j) +
                       " step0: " + starts[j].fingerprint.str();
    for (std::size_t k = 0; k < first.size(); ++k) {
        migrated += first[k].migratedFraction / seq;
        fingerprint += " | step" + std::to_string(k) + ": " + first[k].fingerprint.str() +
                       " migrated=" + std::to_string(first[k].migratedFraction) +
                       (first[k].warm ? " warm" : " cold");
    }
    report.fact("fingerprint", fingerprint);
    report.metric("repart.migrated_fraction", migrated, "ratio", first.size(),
                  "mean migrationStats.migratedFraction per warm step; exact for the seed");

    if (!options.traced) {
        // The median step: k-means needs 8 to 50 outer iterations for a
        // step, and the median is far steadier across seeds than the mean.
        const double op = median(stepWalls);
        const std::size_t n = stepWalls.size();
        report.metric("repart_step_s", op, "s", n, "wall seconds of a warm step, median");
        report.metric("partition_s", op, "s", n, "= repart_step_s");
        report.metric("partition_cpu_s", median(stepCpus), "s", n,
                      "process CPU seconds (both ranks) of a warm step, median");
        report.fact("step_cpu_samples", stepCpus);
        report.metric("host.gen_s", genSeconds, "s", passes.size(),
                      "scenario rebuilds + Scenario::advance");
        return;
    }

    // Per-layer metrics from the traced passes, per warm step.
    std::vector<const Step*> traced;
    for (const auto& pass : passes)
        for (const auto& st : pass) traced.push_back(&st);
    auto mean = [&](double Step::*member) {
        double sum = 0.0;
        for (const Step* st : traced) sum += st->*member;
        return sum / static_cast<double>(traced.size());
    };
    std::uint64_t collectives = 0, bytes = 0, warmSteps = 0;
    for (const auto& st : first) {
        collectives += st.fingerprint.collectives;
        bytes += st.fingerprint.commBytes;
        warmSteps += st.warm ? 1 : 0;
    }
    // Coverage is required of the steps together: a burst of host steal in
    // the uncovered rank start-up and result gather of one ~1 s step would
    // otherwise fail a run whose phases account for its time.
    double minCoverage = 1.0, covered = 0.0, total = 0.0;
    for (const Step* st : traced) {
        minCoverage = std::min(minCoverage, st->coverage);
        covered += st->coverage * st->wall;
        total += st->wall;
    }
    report.check(covered >= 0.95 * total, "step child spans cover only " +
                                              std::to_string(covered / total) + " of the steps");
    geo::core::KMeansCounters step0;
    for (const auto& start : starts) step0.merge(start.counters);
    const std::size_t n = traced.size();
    auto perStep = [&](std::uint64_t v) { return static_cast<double>(v) / seq; };
    const std::string exact = "per warm step; exact for the seed";
    const double scenarios = static_cast<double>(starts.size());
    report.metric("sfc.key_s", median(keySeconds), "s", keySeconds.size(),
                  "cold step 0 'hilbert' phase (set-up only)");
    report.metric("sfc.keyed_points", static_cast<double>(step0.keyedPoints) / scenarios,
                  "count", starts.size(), "cold step 0, mean over the scenarios");
    report.metric("par.sort_s", median(sortSeconds), "s", sortSeconds.size(),
                  "cold step 0 'redistribute' phase (set-up only)");
    report.metric("par.sorted_records", static_cast<double>(step0.sortedRecords) / scenarios,
                  "count", starts.size(), "cold step 0, mean over the scenarios");
    report.metric("par.collectives", perStep(collectives), "count", n, exact);
    report.metric("par.comm_bytes", perStep(bytes), "bytes", n, "RunStats.totalBytes; " + exact);
    report.metric("par.comm_modeled_s", mean(&Step::modeledComm), "s", n,
                  "RunStats.maxModeledCommSeconds per warm step (alpha-beta model)");
    report.metric("par.rank_wait_s", mean(&Step::rankWait), "s", n,
                  "step wall - RunStats.maxCpuSeconds");
    report.metric("core.kmeans_s", mean(&Step::kmeans), "s", n, "'kmeans' phase per warm step");
    report.metric("core.assign_s", mean(&Step::assign), "s", n, "'assign' phase per warm step");
    report.metric("core.update_s", mean(&Step::update), "s", n, "'update' phase per warm step");
    std::vector<geo::core::KMeansCounters> perStepCounters;
    for (const auto& st : first) perStepCounters.push_back(st.counters);
    reportKMeansWork(report, perStepCounters, 3, mean(&Step::assign), n);
    report.metric("repart.probe_s", mean(&Step::probe), "s", n, "'probe' phase per warm step");
    report.metric("repart.warm_steps", static_cast<double>(warmSteps), "count", first.size(),
                  "warm-started steps of the sequence");
    report.metric("repart.cold_fallbacks", seq - static_cast<double>(warmSteps), "count",
                  first.size(), "steps the drift probe sent down the cold path");
    report.metric("trace.overhead_s", passWall - replayWall, "s", kCheckSteps,
                  "traced - untraced replay of the first warm steps of scenario 0");
    report.metric("trace.min_coverage", minCoverage, "ratio", n,
                  "least share of a step span covered by its reported phases");
    report.metric("host.gen_s", genSeconds, "s", passes.size(),
                  "scenario rebuilds + Scenario::advance");
    reportSelfSeconds(report, trace, {"sfc", "par", "core", "repart"}, static_cast<double>(n), n,
                      "layer self time per traced warm step");

    const std::string path = options.traceDir + "/warm-hotspot3d-seed" +
                             std::to_string(options.seed) + ".json";
    report.check(trace.writeChrome(path, 1000, report.runJson()), "trace write failed: " + path);
    report.fact("trace_file", path);
}

}  // namespace perfbench
