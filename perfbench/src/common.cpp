#include <sys/wait.h>
#include <unistd.h>

#include <map>
#include <sstream>

#include "graph/metrics.hpp"
#include "stats.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

Fingerprint Fingerprint::of(const geo::core::GeographerResult& result) {
    const auto& c = result.counters;
    return Fingerprint{c.keyedPoints,         c.sortedRecords,
                       c.distanceCalcs,       c.boundSkips,
                       c.balanceIterations,   c.outerIterations,
                       result.runStats.collectives, result.runStats.totalBytes,
                       c.spilledTiles};
}

std::string Fingerprint::str() const {
    std::ostringstream out;
    out << "keyed=" << keyedPoints << " sorted=" << sortedRecords
        << " distance_calcs=" << distanceCalcs << " bound_skips=" << boundSkips
        << " balance_iters=" << balanceIterations << " outer_iters=" << outerIterations
        << " collectives=" << collectives << " comm_bytes=" << commBytes
        << " spilled_tiles=" << spilledTiles;
    return out.str();
}

namespace {

/// FNV-1a over the bytes of 64-bit words.
struct Fnv {
    std::uint64_t h = 1469598103934665603ull;
    void mix(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

}  // namespace

std::uint64_t digestOf(std::span<const std::int32_t> partition) {
    Fnv fnv;
    for (const auto block : partition) fnv.mix(static_cast<std::uint32_t>(block));
    return fnv.h;
}

std::uint64_t digestOf(const geo::core::GeographerResult& result) {
    Fnv fnv;
    fnv.mix(digestOf(result.partition));
    const auto f = Fingerprint::of(result);
    for (const std::uint64_t v :
         {f.keyedPoints, f.sortedRecords, f.distanceCalcs, f.boundSkips, f.balanceIterations,
          static_cast<std::uint64_t>(f.outerIterations), f.collectives, f.commBytes,
          f.spilledTiles})
        fnv.mix(v);
    return fnv.h;
}

double phaseSeconds(const geo::core::GeographerResult& result, const char* name) {
    const auto it = result.phaseSeconds.find(name);
    return it == result.phaseSeconds.end() ? 0.0 : it->second;
}

double recordReportedPhases(Lane& lane, int span, const geo::core::GeographerResult& result) {
    double t = lane.span(span).begin;
    const std::pair<const char*, const char*> before[] = {
        {"probe", "repart.probe"}, {"hilbert", "sfc.key"}, {"redistribute", "par.sort"}};
    for (const auto& [phase, name] : before) {
        if (result.phaseSeconds.count(phase) == 0) continue;
        const double seconds = phaseSeconds(result, phase);
        lane.add(name, t, t + seconds, span, /*reported=*/true);
        t += seconds;
    }
    const int kmeans =
        lane.add("core.kmeans", t, t + phaseSeconds(result, "kmeans"), span, true);
    lane.addReported(kmeans, {{"core.assign", phaseSeconds(result, "assign")},
                              {"core.update", phaseSeconds(result, "update")}});
    return lane.coverage(span);
}

void reportKMeansWork(Report& report, std::span<const geo::core::KMeansCounters> calls, int dim,
                      double assignSeconds, std::size_t samples) {
    geo::core::KMeansCounters sum;
    double outer = 0.0;
    for (const auto& c : calls) {
        sum.merge(c);  // sums the work counters; keeps the largest store
        outer += c.outerIterations;
    }
    const double n = static_cast<double>(calls.size());
    auto perCall = [&](std::uint64_t v) { return static_cast<double>(v) / n; };
    const std::string exact = "mean per call; exact for the seed";
    report.metric("core.distance_calcs", perCall(sum.distanceCalcs), "count", samples, exact);
    report.metric("core.batched_distance_calcs", perCall(sum.batchedDistanceCalcs), "count",
                  samples, exact);
    report.metric("core.point_evaluations", perCall(sum.pointEvaluations), "count", samples, exact);
    report.metric("core.skip_fraction", sum.skipFraction(), "ratio", samples,
                  "bound skips / point evaluations");
    report.metric("core.bbox_breaks", perCall(sum.bboxBreaks), "count", samples, exact);
    report.metric("core.epoch_applications", perCall(sum.epochBoundApplications), "count",
                  samples, exact);
    report.metric("core.balance_iterations", perCall(sum.balanceIterations), "count", samples,
                  exact);
    report.metric("core.outer_iterations", outer / n, "count", samples, exact);
    report.metric("core.distance_rate",
                  assignSeconds > 0.0 ? perCall(sum.distanceCalcs) / assignSeconds : 0.0, "1/s",
                  samples, "distance calcs / core.assign_s");
    report.metric("core.spilled_tiles", perCall(sum.spilledTiles), "count", samples, exact);
    report.metric("core.peak_tile_bytes", static_cast<double>(sum.peakTileBytes), "bytes",
                  samples, "largest rank store of any call");
    report.metric("core.gather_bytes", perCall(sum.spilledTiles) * 1024.0 * (dim + 1) * 8.0,
                  "bytes", samples, "computed: spilled tiles x 1024 x (D+1) x 8, per call");
}

void reportSelfSeconds(Report& report, const Trace& trace,
                       std::initializer_list<const char*> layers, double per, std::size_t samples,
                       const std::string& note) {
    std::map<std::string, double> self;
    for (const char* layer : layers) self[layer] = 0.0;
    for (const auto& [layer, seconds] : trace.layerSelfSeconds()) self[layer] = seconds;
    for (const auto& [layer, seconds] : self)
        report.metric("self." + layer + "_s", seconds / per, "s", samples, note);
}

void reportSetup(Report& report, const std::vector<Sample>& setup, const std::string& what) {
    std::vector<double> cpu, wall;
    for (const auto& s : setup) {
        cpu.push_back(s.cpu);
        wall.push_back(s.wall);
    }
    report.metric("setup_s", median(cpu), "s", setup.size(),
                  "median process CPU seconds of " + what);
    report.metric("setup_wall_s", median(wall), "s", setup.size(),
                  "median wall seconds of the same");
    report.fact("setup_cpu_samples", cpu);
    report.endSetup();
}

void checkPartition(Report& report, const std::string& what,
                    const std::vector<std::int32_t>& partition, std::size_t points,
                    std::int32_t k, std::span<const double> weights, double epsilon) {
    if (partition.size() != points) {
        report.check(false, what + ": partition has " + std::to_string(partition.size()) +
                                " entries for " + std::to_string(points) + " points");
        return;
    }
    for (const auto b : partition) {
        if (b < 0 || b >= k) {
            report.check(false, what + ": point left unassigned (block " +
                                    std::to_string(b) + ")");
            return;
        }
    }
    const double imbalance = geo::graph::imbalance(partition, k, weights, {}, 1);
    report.check(imbalance <= epsilon,
                 what + ": imbalance " + std::to_string(imbalance) + " > epsilon " +
                     std::to_string(epsilon));
}

std::optional<Sample> timeInForkedChild(const std::function<std::uint64_t()>& body,
                                        Report& report) {
    if (liveThreads() != 1) {
        report.check(false, "set-up: threads already running before a forked first call");
        return std::nullopt;
    }
    int fds[2];
    if (pipe(fds) != 0) {
        report.check(false, "set-up: pipe() failed");
        return std::nullopt;
    }
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        Sample sample{-1.0, -1.0, 0};
        try {
            geo::Timer timer;
            const double cpu = processCpuSeconds();
            sample.digest = body();
            sample.wall = timer.seconds();
            sample.cpu = processCpuSeconds() - cpu;
        } catch (...) {
            _exit(1);
        }
        const bool sent = write(fds[1], &sample, sizeof(sample)) == sizeof(sample);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    Sample sample{-1.0, -1.0, 0};
    const bool received = pid > 0 && read(fds[0], &sample, sizeof(sample)) == sizeof(sample);
    close(fds[0]);
    int status = 0;
    const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0;
    const bool ok = received && exited && sample.wall >= 0.0;
    report.check(ok, "set-up: a forked first call failed");
    if (!ok) return std::nullopt;
    return sample;
}

}  // namespace perfbench
