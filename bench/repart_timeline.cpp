// Dynamic repartitioning timeline: warm-started balanced k-means vs. cold
// re-partitioning vs. re-run RCB over the time-stepped workloads of
// src/repart/scenarios.hpp — now closed into an end-to-end
// compute→serve→recompute loop through src/serve.
//
// For every scenario and step, each strategy partitions the evolved point
// cloud; we report partitioning time, edge cut (on a per-step Delaunay
// triangulation of the cloud), imbalance, k-means outer iterations, and the
// migration volume against the strategy's own previous partition. The warm
// strategy additionally *serves*: each step publishes an immutable snapshot
// into a serve::Router, and the NEXT step's points are first routed through
// that (now stale) snapshot before repartitioning — the misroute column is
// the fraction of queries the stale diagram sends to a different block than
// the fresh partition, and staleness is the wall-clock window the snapshot
// served alone. The summary quantifies the repartitioning claim: warm
// starts converge in fewer outer iterations, move far less data, and leave
// the serving layer only briefly inconsistent.
//
//   ./bench_repart_timeline [points] [steps] [blocks] [ranks]
//                           [--mem-budget BYTES] [--json PATH]
//                           [--checkpoint PATH] [--checkpoint-every K]
//                           [--resume PATH]
//
// `--mem-budget BYTES` (k/m/g suffixes accepted) caps the assignment
// engine's point mirror via Settings::memoryBudgetBytes; partitions are
// bitwise unchanged (mirrored-vs-read-through contract), only the memory
// counters and wall clock move.
//
// `--checkpoint PATH` saves the warm strategy's state (centers, influence)
// plus the deterministic cursor (scenario index, step) every K completed
// steps (--checkpoint-every, default 1); `--resume PATH` fast-forwards to
// the checkpointed cursor — scenarios regenerate deterministically from
// their seed, so every partition computed after the resume point is bitwise
// identical to the uninterrupted run (only the per-step bookkeeping that
// compares against pre-crash history — migration, misroute — restarts).
// Each step also runs the fault point faultPoint("step", scenario*T + t),
// so GEO_FAULT can kill a rank at an exact step for the chaos suite.
//
// Under `geo_launch -n N -- bench_repart_timeline ...` the run spans N real
// processes: the ranks argument is overridden by the worker count, every
// process executes the loop in lockstep, and only rank 0 prints tables or
// writes the JSON. Its "transport" field names the backend the SPMD runs
// used (par::RunStats::transport).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/rcb.hpp"
#include "core/checkpoint.hpp"
#include "gen/delaunay2d.hpp"
#include "graph/metrics.hpp"
#include "repart/migration.hpp"
#include "repart/repartition.hpp"
#include "repart/scenarios.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "common.hpp"
#include "support/fault.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace geo;

struct StepRecord {
    double seconds = 0.0;         ///< host wall time around the call
    double modeledSeconds = 0.0;  ///< modeled SPMD pipeline time (0 for RCB)
    int outerIterations = 0;   ///< 0 for RCB (no iterative phase)
    bool warm = false;
    std::int64_t cut = 0;
    double imbalance = 0.0;
    double migratedFraction = 0.0;
    std::uint64_t migratedBytes = 0;
    double misrouteFraction = -1.0;  ///< stale-snapshot misroutes; -1 = no snapshot yet
    /// Recompute window the stale snapshot bridges: wall time from routing
    /// this step's queries through the previous snapshot until the fresh
    /// one is published (repartition + snapshot build + publish).
    double stalenessSeconds = -1.0;
};

struct StrategyHistory {
    std::vector<std::int64_t> prevIds;
    graph::Partition prevPartition;
    std::vector<StepRecord> records;
    core::KMeansCounters counters;  ///< engine counters summed over all steps
};

void recordMigration(StrategyHistory& h, const repart::WorkloadStep<2>& step,
                     const graph::Partition& partition, std::int32_t k, int ranks,
                     StepRecord& rec) {
    if (!h.prevIds.empty()) {
        const auto m = repart::migrationStats(
            h.prevIds, h.prevPartition, step.ids, partition, step.weights, k, ranks,
            repart::migrationBytesPerPoint(2));
        rec.migratedFraction = m.migratedFraction;
        rec.migratedBytes = m.totalBytes;
    }
    h.prevIds = step.ids;
    h.prevPartition = partition;
}

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) /
                                 static_cast<double>(v.size());
}

core::CheckpointState toCheckpoint(const repart::RepartState<2>& state,
                                   std::uint64_t phase, std::uint64_t step) {
    core::CheckpointState ck;
    ck.dims = 2;
    ck.phase = phase;
    ck.step = step;
    ck.influence = state.influence;
    ck.centerCoords.reserve(state.centers.size() * 2);
    for (const auto& c : state.centers)
        for (int d = 0; d < 2; ++d) ck.centerCoords.push_back(c[d]);
    return ck;
}

repart::RepartState<2> fromCheckpoint(const core::CheckpointState& ck) {
    if (ck.dims != 2)
        throw std::invalid_argument("resume checkpoint has dims=" +
                                    std::to_string(ck.dims) + ", this bench is 2-D");
    repart::RepartState<2> state;
    state.centers = core::unflattenCenters<2>(ck.centerCoords);
    state.influence = ck.influence;
    return state;
}

struct Summary {
    std::string scenario;
    double warmIters = 0.0, coldIters = 0.0;
    double warmMig = 0.0, coldMig = 0.0, rcbMig = 0.0;
    double misroute = 0.0;
    int warmSteps = 0;
};

struct ScenarioTrace {
    std::string name;
    StrategyHistory warm, cold, rcb;
    Summary summary;
};

void writeStepJson(std::ostream& out, const char* name, const StepRecord& rec,
                   bool last) {
    out << "        \"" << name << "\": {\"seconds\": " << rec.seconds
        << ", \"modeled_s\": " << rec.modeledSeconds
        << ", \"iters\": " << rec.outerIterations
        << ", \"warm\": " << (rec.warm ? "true" : "false")
        << ", \"cut\": " << rec.cut << ", \"imbalance\": " << rec.imbalance
        << ", \"migrated\": " << rec.migratedFraction
        << ", \"migratedBytes\": " << rec.migratedBytes;
    if (rec.misrouteFraction >= 0.0)
        out << ", \"misroute\": " << rec.misrouteFraction
            << ", \"staleness_s\": " << rec.stalenessSeconds;
    out << "}" << (last ? "" : ",") << "\n";
}

/// BENCH_repart.json: the repartitioning bench trajectory, mirroring
/// components_breakdown's BENCH_pipeline.json.
void writeJson(const std::string& path, std::int64_t n, int steps, std::int32_t k,
               int ranks, const char* transport, std::uint64_t memBudget,
               const std::vector<ScenarioTrace>& traces) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    out << "{\n  \"bench\": \"repart_timeline\",\n  \"n\": " << n
        << ",\n  \"steps\": " << steps << ",\n  \"k\": " << k
        << ",\n  \"ranks\": " << ranks << ",\n  \"transport\": \"" << transport
        << "\",\n  \"processes\": "
        << geo::bench::workerProcesses() << ",\n  \"mem_budget_bytes\": " << memBudget
        << ",\n";
    geo::bench::writePeakRssField(out);
    out << "  \"scenarios\": [\n";
    for (std::size_t s = 0; s < traces.size(); ++s) {
        const auto& trace = traces[s];
        out << "    {\"scenario\": \"" << trace.name << "\",\n     \"steps\": [\n";
        for (std::size_t t = 0; t < trace.warm.records.size(); ++t) {
            out << "      {\"step\": " << t << ",\n";
            writeStepJson(out, "repart", trace.warm.records[t], false);
            writeStepJson(out, "scratch", trace.cold.records[t], false);
            writeStepJson(out, "rcb", trace.rcb.records[t], true);
            out << "      }" << (t + 1 < trace.warm.records.size() ? "," : "") << "\n";
        }
        const auto& sum = trace.summary;
        out << "     ],\n     \"summary\": {\"warmSteps\": " << sum.warmSteps
            << ", \"itersWarm\": " << sum.warmIters << ", \"itersCold\": " << sum.coldIters
            << ", \"migWarm\": " << sum.warmMig << ", \"migCold\": " << sum.coldMig
            << ", \"migRcb\": " << sum.rcbMig << ", \"misrouteMean\": " << sum.misroute
            << "}}" << (s + 1 < traces.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    std::int64_t n = 10000;
    int steps = 6;
    std::int32_t k = 8;
    int ranks = 4;
    std::string jsonPath;
    std::uint64_t memBudget = 0;
    std::string checkpointPath, resumePath;
    int checkpointEvery = 1;
    const char* usage =
        " [points] [steps] [blocks] [ranks] [--mem-budget BYTES] [--json PATH]"
        " [--checkpoint PATH] [--checkpoint-every K] [--resume PATH]\n";
    int positional = 0;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--json") {
            if (a + 1 >= argc) {
                std::cerr << "--json requires a path\nusage: " << argv[0] << usage;
                return 1;
            }
            jsonPath = argv[++a];
        } else if (arg == "--checkpoint") {
            if (a + 1 >= argc) {
                std::cerr << "--checkpoint requires a path\nusage: " << argv[0] << usage;
                return 1;
            }
            checkpointPath = argv[++a];
        } else if (arg == "--checkpoint-every") {
            if (a + 1 >= argc) {
                std::cerr << "--checkpoint-every requires a count\nusage: " << argv[0]
                          << usage;
                return 1;
            }
            checkpointEvery = std::max(1, std::atoi(argv[++a]));
        } else if (arg == "--resume") {
            if (a + 1 >= argc) {
                std::cerr << "--resume requires a path\nusage: " << argv[0] << usage;
                return 1;
            }
            resumePath = argv[++a];
        } else if (arg == "--mem-budget") {
            if (a + 1 >= argc) {
                std::cerr << "--mem-budget requires a byte count\nusage: " << argv[0]
                          << usage;
                return 1;
            }
            try {
                memBudget = support::parseMemBytes(argv[++a]);
            } catch (const std::exception& e) {
                std::cerr << "--mem-budget: " << e.what() << "\nusage: " << argv[0]
                          << usage;
                return 1;
            }
        } else if (!arg.empty() &&
                   arg.find_first_not_of("0123456789") == std::string::npos &&
                   positional < 4) {
            switch (positional++) {
                case 0: n = std::atoll(arg.c_str()); break;
                case 1: steps = std::atoi(arg.c_str()); break;
                case 2: k = std::atoi(arg.c_str()); break;
                case 3: ranks = std::atoi(arg.c_str()); break;
            }
        } else {
            std::cerr << "unrecognized argument: " << arg << "\nusage: " << argv[0]
                      << usage;
            return 1;
        }
    }

    // Under geo_launch the SPMD width IS the worker count; non-root ranks
    // run the same loop through the socket collectives but stay silent.
    if (par::workerRank() >= 0) ranks = bench::workerProcesses();
    const bench::MuteNonRoot mute;

    core::Settings settings;
    settings.epsilon = 0.03;
    settings.memoryBudgetBytes = memBudget;
    const char* transport = "sim";  // backend of the latest warm run

    std::cout << "Dynamic repartitioning timeline: n=" << n << ", T=" << steps
              << ", k=" << k << ", ranks=" << ranks << "\n\n";

    // Every rank loads the same checkpoint, so the replicated warm state and
    // the cursor agree across the mesh exactly as they would mid-run.
    core::CheckpointState resumeCursor;
    bool resuming = false;
    if (!resumePath.empty()) {
        try {
            resumeCursor = core::loadCheckpoint(resumePath);
            resuming = true;
            std::cout << "resuming from " << resumePath << ": scenario "
                      << resumeCursor.phase << ", step " << resumeCursor.step
                      << "\n";
        } catch (const std::exception& e) {
            std::cerr << "cannot resume: " << e.what() << "\n";
            return 1;
        }
    }

    const repart::ScenarioKind kinds[] = {
        repart::ScenarioKind::Advection, repart::ScenarioKind::Rotation,
        repart::ScenarioKind::Hotspot, repart::ScenarioKind::Churn};
    const std::size_t kindCount = std::size(kinds);

    std::vector<ScenarioTrace> traces;

    for (std::size_t si = 0; si < kindCount; ++si) {
        const auto kind = kinds[si];
        // Scenarios before the checkpointed cursor already ran to
        // completion in the interrupted run.
        if (resuming && si < resumeCursor.phase) continue;

        repart::ScenarioConfig cfg;
        cfg.kind = kind;
        cfg.basePoints = n;
        cfg.seed = 42;
        repart::Scenario<2> scenario(cfg);

        ScenarioTrace trace;
        trace.name = toString(kind);
        repart::RepartState<2> warmState, coldState;
        StrategyHistory& warmHist = trace.warm;
        StrategyHistory& coldHist = trace.cold;
        StrategyHistory& rcbHist = trace.rcb;
        repart::RepartOptions coldOptions;
        coldOptions.forceCold = true;

        // Serving layer of the warm strategy: every step publishes an
        // immutable snapshot; the next step's queries are routed through it
        // BEFORE the repartition finishes, then compared against the fresh
        // partition (misroute) — the first end-to-end
        // compute→serve→recompute loop.
        serve::Router<2> router(1);

        // `seconds` is host wall time (thread machine incl. spawn/join for
        // the geographer strategies, serial for RCB); `modeled` is the
        // simulated-SPMD pipeline estimate incl. the drift probe — the
        // apples-to-apples warm-vs-scratch number.
        Table table({"step", "strategy", "seconds", "modeled", "iters", "cut",
                     "imbalance", "migrated", "migKB", "misroute"});
        int startStep = 0;
        if (resuming && si == resumeCursor.phase) {
            startStep = std::min(static_cast<int>(resumeCursor.step), steps);
            // startStep == 0 means the cursor sits on a scenario boundary:
            // the uninterrupted run starts this scenario cold, so the
            // checkpointed warm state (from the PREVIOUS scenario) must not
            // leak in.
            if (startStep > 0) warmState = fromCheckpoint(resumeCursor);
            // Scenarios regenerate deterministically: advancing from the
            // seed replays the exact point clouds of the interrupted run.
            for (int t = 0; t < startStep; ++t) scenario.advance();
            resuming = false;
        }
        for (int t = startStep; t < steps; ++t) {
            support::faultPoint("step", si * static_cast<std::uint64_t>(steps) +
                                            static_cast<std::uint64_t>(t));
            const auto& step = scenario.current();
            const auto graph = gen::delaunayTriangulate2d(step.points);

            // Warm-capable repartitioning (cold only on step 0 / high drift).
            {
                // Route this step's queries with the previous step's (now
                // stale) snapshot, exactly as a serving process would while
                // the "recompute" below still runs; the staleness timer
                // spans that recompute window up to the fresh publish.
                std::vector<std::int32_t> staleRouted;
                if (router.hasSnapshot()) {
                    staleRouted.assign(step.points.size(), -1);
                    router.route(step.points, std::span<std::int32_t>(staleRouted));
                }

                Timer timer;
                const auto res = repart::repartitionGeographer<2>(
                    step.points, step.weights, k, ranks, settings, warmState);
                StepRecord rec;
                rec.seconds = timer.seconds();
                transport = res.result.runStats.transport;
                router.publish(serve::PartitionSnapshot<2>::fromResult(
                    res.result, static_cast<std::uint64_t>(t + 1), ranks));
                if (!staleRouted.empty()) {
                    rec.stalenessSeconds = timer.seconds();  // route → fresh publish
                    rec.misrouteFraction =
                        serve::misrouteStats(staleRouted, res.result.partition).fraction();
                }
                rec.modeledSeconds = res.result.modeledSeconds;
                rec.outerIterations = res.result.counters.outerIterations;
                rec.warm = res.warmStarted;
                rec.cut = graph::edgeCut(graph, res.result.partition);
                rec.imbalance = res.result.imbalance;
                recordMigration(warmHist, step, res.result.partition, k, ranks, rec);
                warmHist.counters.merge(res.result.counters);
                warmHist.records.push_back(rec);
            }
            // Cold re-partitioning from scratch every step.
            {
                Timer timer;
                const auto res = repart::repartitionGeographer<2>(
                    step.points, step.weights, k, ranks, settings, coldState, coldOptions);
                StepRecord rec;
                rec.seconds = timer.seconds();
                rec.modeledSeconds = res.result.modeledSeconds;
                rec.outerIterations = res.result.counters.outerIterations;
                rec.cut = graph::edgeCut(graph, res.result.partition);
                rec.imbalance = res.result.imbalance;
                recordMigration(coldHist, step, res.result.partition, k, ranks, rec);
                coldHist.counters.merge(res.result.counters);
                coldHist.records.push_back(rec);
            }
            // Re-run RCB from scratch every step.
            {
                Timer timer;
                const auto part = baseline::rcb<2>(step.points, step.weights, k);
                StepRecord rec;
                rec.seconds = timer.seconds();
                rec.cut = graph::edgeCut(graph, part);
                rec.imbalance = graph::imbalance(part, k, step.weights);
                recordMigration(rcbHist, step, part, k, ranks, rec);
                rcbHist.records.push_back(rec);
            }

            const auto addRow = [&](const char* name, const StepRecord& rec,
                                    bool showWarm) {
                table.addRow({std::to_string(t),
                              showWarm ? (std::string(name) + (rec.warm ? "(warm)" : "(cold)"))
                                       : std::string(name),
                              Table::num(rec.seconds, 4),
                              rec.modeledSeconds > 0.0 ? Table::num(rec.modeledSeconds, 4)
                                                       : std::string("-"),
                              rec.outerIterations > 0 ? std::to_string(rec.outerIterations)
                                                      : std::string("-"),
                              std::to_string(rec.cut), Table::num(rec.imbalance, 4),
                              Table::num(rec.migratedFraction, 4),
                              Table::num(static_cast<double>(rec.migratedBytes) / 1024.0, 1),
                              rec.misrouteFraction >= 0.0
                                  ? Table::num(rec.misrouteFraction, 4)
                                  : std::string("-")});
            };
            addRow("repart", warmHist.records.back(), true);
            addRow("scratch", coldHist.records.back(), false);
            addRow("rcb", rcbHist.records.back(), false);

            scenario.advance();

            // The cursor names the NEXT unit of work: mid-scenario that is
            // (si, t+1); on the last step it rolls to (si+1, 0) so a resume
            // starts the next scenario cold, exactly like the uninterrupted
            // run. Root writes; the state is replicated on every rank.
            if (!checkpointPath.empty() && bench::isRootProcess() &&
                ((t + 1) % checkpointEvery == 0 || t + 1 == steps)) {
                const bool scenarioDone = t + 1 == steps;
                core::saveCheckpoint(
                    checkpointPath,
                    toCheckpoint(warmState, scenarioDone ? si + 1 : si,
                                 scenarioDone ? 0
                                              : static_cast<std::uint64_t>(t + 1)));
            }
        }

        std::cout << "=== scenario: " << toString(kind) << " ===\n";
        table.print(std::cout);

        // Assignment-engine counters summed over all steps: the warm path
        // inherits the fast engine's savings (lazy epoch bounds applied on
        // touch, batched squared-distance kernels, Hamerly skips).
        const auto printCounters = [](const char* name,
                                      const core::KMeansCounters& c) {
            std::cout << name << ": distCalcs=" << c.distanceCalcs
                      << " batched=" << c.batchedDistanceCalcs
                      << " epochApps=" << c.epochBoundApplications << " skip%="
                      << Table::num(100.0 * c.skipFraction(), 3)
                      << " peakTileKB=" << c.peakTileBytes / 1024 << '\n';
        };
        printCounters("engine counters repart ", warmHist.counters);
        printCounters("engine counters scratch", coldHist.counters);

        // Steps 1..T-1 (step 0 has no previous partition to migrate from).
        Summary& sum = trace.summary;
        sum.scenario = toString(kind);
        std::vector<double> wIters, cIters, wMig, cMig, rMig, misroutes;
        for (std::size_t i = 1; i < warmHist.records.size(); ++i) {
            wIters.push_back(warmHist.records[i].outerIterations);
            cIters.push_back(coldHist.records[i].outerIterations);
            wMig.push_back(warmHist.records[i].migratedFraction);
            cMig.push_back(coldHist.records[i].migratedFraction);
            rMig.push_back(rcbHist.records[i].migratedFraction);
            if (warmHist.records[i].misrouteFraction >= 0.0)
                misroutes.push_back(warmHist.records[i].misrouteFraction);
            sum.warmSteps += warmHist.records[i].warm;
        }
        sum.warmIters = mean(wIters);
        sum.coldIters = mean(cIters);
        sum.warmMig = mean(wMig);
        sum.coldMig = mean(cMig);
        sum.rcbMig = mean(rMig);
        sum.misroute = mean(misroutes);
        traces.push_back(std::move(trace));
        std::cout << '\n';
    }

    std::cout << "=== summary over steps 1.." << steps - 1
              << " (means; lower is better) ===\n";
    Table table({"scenario", "warmSteps", "itersWarm", "itersCold", "migWarm", "migCold",
                 "migRcb", "misroute"});
    for (const auto& trace : traces) {
        const auto& s = trace.summary;
        table.addRow({s.scenario, std::to_string(s.warmSteps), Table::num(s.warmIters, 2),
                      Table::num(s.coldIters, 2), Table::num(s.warmMig, 4),
                      Table::num(s.coldMig, 4), Table::num(s.rcbMig, 4),
                      Table::num(s.misroute, 4)});
    }
    table.print(std::cout);
    std::cout << "\nwarmSteps = steps the drift probe accepted the warm path.\n"
                 "itersWarm < itersCold and migWarm < migCold demonstrate the\n"
                 "repartitioning claim (advection/hotspot acceptance criteria).\n"
                 "misroute = fraction of this step's queries the PREVIOUS step's\n"
                 "snapshot routes to a different block than the fresh partition —\n"
                 "the serving-layer cost of repartitioning lag.\n";

    std::cout << "\nprocess peak RSS: "
              << Table::num(static_cast<double>(support::peakRssBytes()) /
                                (1024.0 * 1024.0), 1)
              << " MB (mem budget: "
              << (memBudget == 0 ? std::string("unlimited")
                                 : std::to_string(memBudget) + " bytes")
              << ")\n";

    if (!jsonPath.empty() && bench::isRootProcess())
        writeJson(jsonPath, n, steps, k, ranks, transport, memBudget, traces);
    return 0;
}
