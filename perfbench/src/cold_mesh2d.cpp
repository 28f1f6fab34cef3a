// cold-mesh2d: the paper's one-shot use. partitionGeographer<2> on a
// 125k-vertex Delaunay mesh, k = 64, one rank, two threads, no memory
// budget. A run generates eight meshes from its seed and calls the
// partitioner on each in turn, in whole rounds, for as many rounds as fit
// the requested time; the figure is the median over all those calls.
//
// Set-up is the process's first call (here on mesh 0 and in four forked
// children on meshes 1 to 4; median reported); every later call on a mesh
// must reproduce that mesh's first call bitwise, across processes too. A
// mesh's vertices are regenerated from its seed for each call, and only
// digests of the first call are kept, so the benchmark holds one mesh at a
// time beside the program.
//
// Traced run, on three meshes: alternates an untraced call with a replay
// of the pipeline through each layer's public functions — sfc keying, par
// sort, curve seeding, core k-means, then graph metrics — inside a
// one-rank par::Machine, and fails unless the replay equals
// partitionGeographer bitwise. A threads = 1 call then gives the
// thread-pool baseline.
#include <algorithm>
#include <array>

#include "core/balanced_kmeans.hpp"
#include "gen/delaunay2d.hpp"
#include "graph/metrics.hpp"
#include "par/parallel_for.hpp"
#include "par/sort.hpp"
#include "sfc/hilbert.hpp"
#include "stats.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using geo::Point2;

/// Small enough for a run to hold many calls: on a 4-vCPU KVM guest (Intel
/// Xeon) whose host is shared, a call takes 0.6-1.2 s of wall time, a 30 s
/// run holds 32-48 calls, and their median does not follow the few that the
/// host slows. At 500k vertices a call takes 2.8 s, and the mean of the
/// eight calls a run could hold spread by 22-30% of its median between runs.
constexpr std::int64_t kPoints = 125000;
constexpr std::int32_t kBlocks = 64;
constexpr int kThreads = 2;
constexpr std::size_t kSetupRuns = 5;  ///< first calls: this process plus forked children
/// Meshes per run: k-means work varies by up to ±15% between meshes, so one
/// run's calls span eight of them.
constexpr std::size_t kMeshes = 8;
constexpr std::size_t kTracedMeshes = 3;
static_assert(kSetupRuns <= kMeshes, "every set-up call needs a mesh of its own");
constexpr int kOversampling = 16;  ///< partitionGeographer's sample-sort setting

geo::core::Settings settingsWith(int threads) {
    geo::core::Settings settings;
    settings.threads = threads;
    settings.ranks = 1;
    return settings;
}

geo::core::GeographerResult partition(std::span<const Point2> points,
                                      const geo::core::Settings& settings) {
    return geo::core::partitionGeographer<2>(points, {}, kBlocks, 1, settings);
}

bool sameKMeansWork(const geo::core::KMeansCounters& a, const geo::core::KMeansCounters& b) {
    return a.pointEvaluations == b.pointEvaluations && a.boundSkips == b.boundSkips &&
           a.distanceCalcs == b.distanceCalcs && a.bboxBreaks == b.bboxBreaks &&
           a.balanceIterations == b.balanceIterations &&
           a.epochBoundApplications == b.epochBoundApplications &&
           a.batchedDistanceCalcs == b.batchedDistanceCalcs &&
           a.spilledTiles == b.spilledTiles && a.outerIterations == b.outerIterations;
}

/// One replayed partition: its output, its counters and where its time went.
struct Replay {
    std::vector<std::int32_t> partition;
    geo::core::KMeansCounters counters;
    double wall = 0.0;
    double key = 0.0, sort = 0.0, seed = 0.0, kmeans = 0.0, assign = 0.0, update = 0.0;
    double coverage = 0.0;
};

/// partitionGeographer's pipeline, rebuilt from the layers' public
/// functions: record = (curve key, (input position, point, weight)), sorted
/// under the same total order, seeded at the same curve positions.
Replay replayPipeline(Lane& lane, std::span<const Point2> points,
                      const geo::core::Settings& settings) {
    struct Record {
        std::int64_t gid;
        Point2 pt;
        double weight;
    };
    using Keyed = geo::par::KeyedRecord<std::uint64_t, Record>;
    const int threads = settings.resolvedThreads();
    const auto n = static_cast<std::int64_t>(points.size());

    Replay out;
    const int top = lane.open("core.partition");
    int key = -1, sort = -1, seed = -1, kmeans = -1;
    geo::par::Machine machine(1);
    machine.run([&](geo::par::Comm& comm) {
        key = lane.open("sfc.key", top);
        const geo::Box<2> local = geo::sfc::boundsOf<2>(points, threads);
        std::array<double, 4> lohi{local.lo[0], local.lo[1], -local.hi[0], -local.hi[1]};
        comm.allreduceMin(std::span<double>(lohi));
        geo::Box<2> box;
        box.lo = Point2{{lohi[0], lohi[1]}};
        box.hi = Point2{{-lohi[2], -lohi[3]}};
        const auto keys = geo::sfc::hilbertIndices<2>(points, box, threads);
        std::vector<Keyed> records(points.size());
        geo::par::parallelFor(threads, records.size(), [&](std::size_t i0, std::size_t i1, int) {
            for (std::size_t i = i0; i < i1; ++i)
                records[i] = Keyed{keys[i], Record{static_cast<std::int64_t>(i), points[i], 1.0}};
        });
        out.counters.keyedPoints = keys.size();
        lane.close(key);

        sort = lane.open("par.sort", top);
        records = geo::par::sampleSort(comm, std::move(records), kOversampling, threads);
        records = geo::par::rebalanceSorted(comm, std::move(records));
        out.counters.sortedRecords = records.size();
        lane.close(sort);

        // Centers at sorted positions c·n/k + n/(2k) (Algorithm 2, line 7).
        seed = lane.open("core.seed", top);
        const auto localCount = static_cast<std::int64_t>(records.size());
        const std::int64_t before = comm.exscanSum(localCount);
        struct Seed {
            std::int32_t index;
            Point2 pt;
        };
        std::vector<Seed> mine;
        for (std::int32_t c = 0; c < kBlocks; ++c) {
            const std::int64_t pos = std::min(n - 1, (n * c) / kBlocks + n / (2 * kBlocks));
            if (pos >= before && pos < before + localCount)
                mine.push_back(Seed{c, records[static_cast<std::size_t>(pos - before)].value.pt});
        }
        std::vector<Point2> centers(static_cast<std::size_t>(kBlocks));
        for (const auto& s : comm.allgatherv(std::span<const Seed>(mine)))
            centers[static_cast<std::size_t>(s.index)] = s.pt;
        std::vector<Point2> sortedPoints;
        std::vector<double> weights;
        std::vector<std::int64_t> gids;
        sortedPoints.reserve(records.size());
        weights.reserve(records.size());
        gids.reserve(records.size());
        for (const auto& r : records) {
            sortedPoints.push_back(r.value.pt);
            weights.push_back(r.value.weight);
            gids.push_back(r.value.gid);
        }
        records = {};
        lane.close(seed);

        kmeans = lane.open("core.kmeans", top);
        auto outcome = geo::core::balancedKMeans<2>(comm, sortedPoints, weights,
                                                    std::move(centers), settings);
        lane.close(kmeans);
        lane.addReported(kmeans, {{"core.assign", outcome.assignSeconds},
                                  {"core.update", outcome.updateSeconds}});
        out.assign = outcome.assignSeconds;
        out.update = outcome.updateSeconds;
        const auto keyed = out.counters.keyedPoints;
        const auto sorted = out.counters.sortedRecords;
        out.counters = outcome.counters;
        out.counters.keyedPoints = keyed;
        out.counters.sortedRecords = sorted;

        const int gather = lane.open("par.gather", top);
        out.partition.assign(points.size(), -1);
        for (std::size_t i = 0; i < gids.size(); ++i)
            out.partition[static_cast<std::size_t>(gids[i])] = outcome.assignment[i];
        lane.close(gather);
    });
    lane.close(top);

    auto length = [&](int span) { return lane.span(span).end - lane.span(span).begin; };
    out.wall = length(top);
    out.key = length(key);
    out.sort = length(sort);
    out.seed = length(seed);
    out.kmeans = length(kmeans);
    out.coverage = lane.coverage(top);
    return out;
}

/// One input mesh of the run, with digests of its first call as the
/// reference.
struct Mesh {
    std::uint64_t seed = 0;
    geo::graph::CsrGraph graph;  ///< traced runs only: the quality metrics need it
    bool called = false;
    std::uint64_t digest = 0;           ///< digestOf the first call's result
    std::uint64_t partitionDigest = 0;  ///< digestOf its partition alone
    Fingerprint fingerprint;
    geo::core::KMeansCounters counters;
    geo::graph::PartitionMetrics quality;
    std::vector<double> calls;  ///< wall seconds of each timed call
};

template <typename T>
std::vector<double> field(const std::vector<Replay>& replays, T Replay::*member) {
    std::vector<double> values;
    for (const auto& r : replays) values.push_back(static_cast<double>(r.*member));
    return values;
}

/// The vertices gen::delaunay2d(n, seed) triangulates: n uniform points of
/// the unit square from Xoshiro256(seed). Untraced runs partition these
/// without paying for the triangulation; traced runs build the real mesh and
/// check that its vertices are exactly these.
std::vector<Point2> meshVertices(std::int64_t n, std::uint64_t seed) {
    geo::Xoshiro256 rng(seed);
    std::vector<Point2> points(static_cast<std::size_t>(n));
    for (auto& p : points) p = Point2{{rng.uniform(), rng.uniform()}};
    return points;
}

}  // namespace

void runColdMesh2d(const Options& options, Report& report) {
    const auto settings = settingsWith(kThreads);
    geo::Timer genTimer;
    // A traced run replays the pipeline on a few meshes: its figures are
    // per call, and each replay needs the triangulation for the metrics.
    std::vector<Mesh> meshes(options.traced ? kTracedMeshes : kMeshes);
    for (std::size_t j = 0; j < meshes.size(); ++j) {
        meshes[j].seed = options.seed * kMeshes + j;
        if (!options.traced) continue;
        auto mesh = geo::gen::delaunay2d(kPoints, meshes[j].seed);
        report.check(mesh.points == meshVertices(kPoints, meshes[j].seed),
                     "gen::delaunay2d vertices differ from the untraced inputs");
        meshes[j].graph = std::move(mesh.graph);
    }
    double genSeconds = genTimer.seconds();
    auto verticesOf = [&](std::size_t j) {
        geo::Timer t;
        auto points = meshVertices(kPoints, meshes[j].seed);
        genSeconds += t.seconds();
        return points;
    };

    // Every call on a mesh must reproduce that mesh's first call exactly.
    auto record = [&](std::size_t j, const geo::core::GeographerResult& r,
                      const std::string& what) {
        Mesh& m = meshes[j];
        checkPartition(report, what, r.partition, kPoints, kBlocks, {}, settings.epsilon);
        if (!m.called) {
            if (options.traced)
                m.quality = geo::graph::evaluatePartition(m.graph, r.partition, kBlocks, {},
                                                          /*computeDiameter=*/false, {}, kThreads);
            m.called = true;
            m.digest = digestOf(r);
            m.partitionDigest = digestOf(r.partition);
            m.fingerprint = Fingerprint::of(r);
            m.counters = r.counters;
            return;
        }
        report.check(digestOf(r) == m.digest,
                     what + ": partition or counters differ from the first call on mesh " +
                         std::to_string(j) + " (" + Fingerprint::of(r).str() + ")");
    };

    // Set-up: the process's first partitionGeographer call, on meshes
    // 1..kSetupRuns-1 in forked children (those a traced run has) and on
    // mesh 0 here. The timed calls on those meshes must reproduce the
    // children's results.
    std::vector<Sample> setup;
    std::vector<std::pair<std::size_t, std::uint64_t>> forkedDigests;
    for (std::size_t j = 1; j < std::min(kSetupRuns, meshes.size()); ++j) {
        const auto points = verticesOf(j);
        const auto child = timeInForkedChild(
            [&] { return digestOf(partition(points, settings)); }, report);
        if (!child) continue;
        setup.push_back(*child);
        forkedDigests.emplace_back(j, child->digest);
    }
    {
        const auto points = verticesOf(0);
        reportHarnessRss(report);
        geo::Timer firstCall;
        const double firstCpu = processCpuSeconds();
        const auto first = partition(points, settings);
        setup.push_back(
            Sample{firstCall.seconds(), processCpuSeconds() - firstCpu, digestOf(first)});
        record(0, first, "first call");
    }
    reportSetup(report, setup,
                "a fresh process's first partitionGeographer call, one mesh each");

    Trace trace;
    Lane& lane = trace.lane("main");
    std::vector<Replay> replays;
    std::vector<double> graphSeconds, rankWait;
    geo::par::RunStats stats;
    std::vector<double> allCalls, allCpu;
    // Whole rounds over the meshes, as long as another round of the mean
    // length so far still ends within the requested time.
    geo::Timer window;
    for (long round = 0;; ++round) {
        if (round > 0 && window.seconds() / static_cast<double>(round) *
                                 static_cast<double>(round + 1) > options.seconds)
            break;
        for (std::size_t j = 0; j < meshes.size(); ++j) {
            const std::string what = "call " + std::to_string(round) + " on mesh " +
                                     std::to_string(j);
            const auto points = verticesOf(j);
            report.restartPeak();
            geo::Timer t;
            const double cpu0 = processCpuSeconds();
            const auto r = partition(points, settings);
            meshes[j].calls.push_back(t.seconds());
            allCalls.push_back(meshes[j].calls.back());
            allCpu.push_back(processCpuSeconds() - cpu0);
            report.recordPeak();
            rankWait.push_back(meshes[j].calls.back() - r.runStats.maxCpuSeconds);
            stats = r.runStats;
            record(j, r, what);
            if (!options.traced) continue;

            auto replay = replayPipeline(lane, points, settings);
            report.check(digestOf(replay.partition) == meshes[j].partitionDigest &&
                             sameKMeansWork(replay.counters, meshes[j].counters),
                         "replay differs from partitionGeographer on mesh " + std::to_string(j));
            report.check(replay.coverage >= 0.95, "replay child spans cover only " +
                                                      std::to_string(replay.coverage) +
                                                      " of the partition span");
            const int g = lane.open("graph.evaluate");
            const auto q = geo::graph::evaluatePartition(meshes[j].graph, replay.partition,
                                                         kBlocks, {}, false, {}, kThreads);
            lane.close(g);
            graphSeconds.push_back(lane.span(g).end - lane.span(g).begin);
            report.check(q.edgeCut == meshes[j].quality.edgeCut &&
                             q.totalCommVolume == meshes[j].quality.totalCommVolume,
                         "graph metrics of the replay differ on mesh " + std::to_string(j));
            replays.push_back(std::move(replay));
        }
    }

    for (const auto& [j, digest] : forkedDigests)
        report.check(digest == meshes[j].digest,
                     "the forked first call on mesh " + std::to_string(j) +
                         " differs from this process's calls");

    // Exact per seed: counters and quality, summed over the meshes.
    std::string fingerprint;
    double edgeCut = 0.0, totalVolume = 0.0, maxVolume = 0.0;
    for (std::size_t j = 0; j < meshes.size(); ++j) {
        const auto& m = meshes[j];
        fingerprint += (j ? " | mesh" : "mesh") + std::to_string(j) + ": " +
                       m.fingerprint.str();
        if (options.traced)
            fingerprint += " edge_cut=" + std::to_string(m.quality.edgeCut) +
                           " total_comm_volume=" + std::to_string(m.quality.totalCommVolume) +
                           " max_comm_volume=" + std::to_string(m.quality.maxCommVolume);
        edgeCut += static_cast<double>(m.quality.edgeCut);
        totalVolume += static_cast<double>(m.quality.totalCommVolume);
        maxVolume += static_cast<double>(m.quality.maxCommVolume);
    }
    report.fact("fingerprint", fingerprint);

    // The median over every timed call, whole rounds over the meshes: one
    // run's figure spans how much k-means work the meshes need.
    const std::size_t calls = allCalls.size();
    if (!options.traced) {
        const std::string each = " of a partitionGeographer call; median over " +
                                 std::to_string(calls / meshes.size()) + " rounds of " +
                                 std::to_string(meshes.size()) + " meshes";
        report.metric("partition_s", median(allCalls), "s", calls, "wall seconds" + each);
        report.metric("partition_cpu_s", median(allCpu), "s", calls, "process CPU seconds" + each);
        report.fact("call_cpu_samples", allCpu);
        report.metric("host.gen_s", genSeconds, "s", calls + setup.size(),
                      "mesh vertices, regenerated for each call");
        return;
    }

    // The thread-pool baseline: the same call on one thread.
    const auto points0 = verticesOf(0);
    geo::Timer serialTimer;
    const auto serial = partition(points0, settingsWith(1));
    const double serialSeconds = serialTimer.seconds();
    report.check(digestOf(serial) == meshes[0].digest &&
                     sameKMeansWork(serial.counters, meshes[0].counters),
                 "threads = 1 baseline differs from threads = 2");

    const std::size_t n = replays.size();
    const double assign = median(field(replays, &Replay::assign));
    const auto& replayed = replays.front().counters;
    report.metric("sfc.key_s", median(field(replays, &Replay::key)), "s", n,
                  "boundsOf + hilbertIndices + record build");
    report.metric("sfc.keyed_points", static_cast<double>(replayed.keyedPoints), "count", n,
                  "records keyed by a replay");
    report.metric("par.sort_s", median(field(replays, &Replay::sort)), "s", n,
                  "sampleSort + rebalanceSorted");
    report.metric("par.sorted_records", static_cast<double>(replayed.sortedRecords), "count", n,
                  "records owned after a replay's sort");
    report.metric("par.collectives", static_cast<double>(stats.collectives), "count", 1,
                  "RunStats of a call (one rank: none)");
    report.metric("par.comm_bytes", static_cast<double>(stats.totalBytes), "bytes", 1);
    report.metric("par.comm_modeled_s", stats.maxModeledCommSeconds, "s", 1, "alpha-beta model");
    report.metric("par.rank_wait_s", median(rankWait), "s", rankWait.size(),
                  "call wall - RunStats.maxCpuSeconds");
    report.metric("par.pool_speedup", serialSeconds / median(meshes[0].calls), "x",
                  meshes[0].calls.size(), "threads=1 call / median threads=2 call, mesh 0");
    report.metric("core.seed_s", median(field(replays, &Replay::seed)), "s", n,
                  "curve seeding + k-means input strip");
    report.metric("core.kmeans_s", median(field(replays, &Replay::kmeans)), "s", n,
                  "balancedKMeans");
    report.metric("core.assign_s", assign, "s", n, "KMeansOutcome::assignSeconds");
    report.metric("core.update_s", median(field(replays, &Replay::update)), "s", n,
                  "KMeansOutcome::updateSeconds");
    std::vector<geo::core::KMeansCounters> perMesh;
    for (const auto& m : meshes) perMesh.push_back(m.counters);
    reportKMeansWork(report, perMesh, 2, assign, n);
    report.metric("graph.metrics_s", median(graphSeconds), "s", graphSeconds.size(),
                  "evaluatePartition without diameters");
    report.metric("graph.edge_cut", edgeCut, "count", meshes.size(),
                  "graph::evaluatePartition, summed over the meshes; exact for the seed");
    report.metric("graph.total_comm_volume", totalVolume, "count", meshes.size(),
                  "summed over the meshes; exact for the seed");
    report.metric("graph.max_comm_volume", maxVolume, "count", meshes.size(),
                  "summed over the meshes; exact for the seed");
    std::vector<double> untraced;
    for (const auto& m : meshes) untraced.insert(untraced.end(), m.calls.begin(), m.calls.end());
    report.metric("trace.overhead_s", median(field(replays, &Replay::wall)) - median(untraced),
                  "s", n, "median traced replay - median untraced call");
    const auto coverage = field(replays, &Replay::coverage);
    report.metric("trace.min_coverage", *std::min_element(coverage.begin(), coverage.end()),
                  "ratio", n, "least share of a partition span covered by its children");
    report.metric("host.gen_s", genSeconds, "s", meshes.size(),
                  "gen::delaunay2d + vertex regeneration");
    reportSelfSeconds(report, trace, {"sfc", "par", "core", "graph"}, static_cast<double>(n), n,
                      "layer self time per replayed partition");

    const std::string path = options.traceDir + "/cold-mesh2d-seed" +
                             std::to_string(options.seed) + ".json";
    report.check(trace.writeChrome(path, 1000, report.runJson()), "trace write failed: " + path);
    report.fact("trace_file", path);
}

}  // namespace perfbench
