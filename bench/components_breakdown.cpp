// §5.3.2 "Components": share of total Geographer time spent in the three
// phases (Hilbert indexing, redistribution, balanced k-means) as the rank
// count grows. Paper observation on Delaunay2B: at p=1024 redistribution
// takes 32% and k-means 47%; at p=16384 redistribution 46%, k-means 42% —
// the redistribution share grows with p.
//
// Extended with the intra-rank thread-scaling breakdown: one rank, the
// whole pipeline, per-phase wall time at threads = 1, 2, 4, 8 (keying,
// sort/redistribute, assignment sweeps, center updates, metrics). Optional
// `--json PATH` writes the rows as BENCH_pipeline.json for the CI bench
// trajectory; optional first positional argument overrides the scaling
// instance size (default 1M points — the acceptance configuration).
//
// Memory budgeting: `--mem-budget BYTES` (suffixes k/m/g accepted) caps the
// k-means point mirror via Settings::memoryBudgetBytes; an active set that
// does not fit is read through the active order, bitwise identical to the
// mirrored path.
// `--assert-rss BYTES` makes the binary exit non-zero if the process peak
// RSS ends above the cap (the CI bench-smoke guard). After the scaling rows
// the final run's diagram is frozen into a PartitionSnapshot and every
// input point routed back through the serving layer, so a budgeted run
// covers the whole partition+serve pipeline under one RSS cap.
//
// Checkpoint/restart: `--checkpoint PATH` records which thread-scaling row
// completed last (the rows are this bench's long pole); `--resume PATH`
// skips the preamble tables and every completed row. Each row is an
// independent full-pipeline run, so a resumed row is bitwise identical to
// the interrupted run's. When every row already completed, the last row is
// re-run — the serve stage needs its result.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/checkpoint.hpp"
#include "core/geographer.hpp"
#include "gen/delaunay2d.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"

namespace {

struct ScalingRow {
    int threads = 1;
    double keying = 0.0;   ///< phase "hilbert": bounds pass + batch keying
    double sort = 0.0;     ///< phase "redistribute": sample sort + rebalance
    double assign = 0.0;   ///< k-means assignment sweeps
    double update = 0.0;   ///< k-means center-update reductions
    double kmeans = 0.0;   ///< whole k-means phase (assign + update + rest)
    double metrics = 0.0;  ///< evaluatePartition (no diameter BFS)
    double total = 0.0;    ///< pipeline + metrics wall time
    std::uint64_t keyedPoints = 0;
    std::uint64_t sortedRecords = 0;
    std::uint64_t peakTileBytes = 0;  ///< engine point-store mirror high-water mark
    std::uint64_t residentBytes = 0;  ///< mirror bytes held at the end (0: read-through)
    std::uint64_t spilledTiles = 0;   ///< always 0: nothing is refilled
};

void writeJson(const std::string& path, std::int64_t n, std::int32_t k,
               const char* transport, std::uint64_t memBudget,
               double serveSeconds, std::int64_t servedPoints,
               const std::vector<ScalingRow>& rows) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    out << "{\n  \"bench\": \"components_breakdown\",\n"
        << "  \"instance\": \"delaunay2d\",\n"
        << "  \"n\": " << n << ",\n  \"k\": " << k << ",\n  \"ranks\": 1,\n"
        << "  \"transport\": \"" << transport
        << "\",\n  \"processes\": " << geo::bench::workerProcesses() << ",\n"
        << "  \"mem_budget_bytes\": " << memBudget << ",\n"
        << "  \"serve_s\": " << serveSeconds << ",\n"
        << "  \"served_points\": " << servedPoints << ",\n";
    geo::bench::writePeakRssField(out);
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        out << "    {\"threads\": " << r.threads << ", \"keying_s\": " << r.keying
            << ", \"sort_s\": " << r.sort << ", \"assign_s\": " << r.assign
            << ", \"update_s\": " << r.update << ", \"kmeans_s\": " << r.kmeans
            << ", \"metrics_s\": " << r.metrics << ", \"total_s\": " << r.total
            << ", \"keyedPoints\": " << r.keyedPoints
            << ", \"sortedRecords\": " << r.sortedRecords
            << ", \"peakTileBytes\": " << r.peakTileBytes
            << ", \"residentBytes\": " << r.residentBytes
            << ", \"spilledTiles\": " << r.spilledTiles << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace geo;
    std::int64_t scalingN = 1'000'000;
    std::string jsonPath;
    std::uint64_t memBudget = 0;
    std::uint64_t assertRss = 0;
    std::string checkpointPath, resumePath;
    const char* usage = " [scaling-n] [--mem-budget BYTES] [--assert-rss BYTES] [--json PATH]"
                        " [--checkpoint PATH] [--resume PATH]\n";
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
        } else if (arg == "--resume") {
            if (a + 1 >= argc) {
                std::cerr << "--resume requires a path\nusage: " << argv[0] << usage;
                return 1;
            }
            resumePath = argv[++a];
        } else if (arg == "--mem-budget" || arg == "--assert-rss") {
            if (a + 1 >= argc) {
                std::cerr << arg << " requires a byte count\nusage: " << argv[0] << usage;
                return 1;
            }
            try {
                (arg == "--mem-budget" ? memBudget : assertRss) =
                    support::parseMemBytes(argv[++a]);
            } catch (const std::exception& e) {
                std::cerr << arg << ": " << e.what() << "\nusage: " << argv[0] << usage;
                return 1;
            }
        } else if (!arg.empty() && arg.find_first_not_of("0123456789") == std::string::npos) {
            scalingN = std::atoll(arg.c_str());
        } else {
            std::cerr << "unrecognized argument: " << arg << "\nusage: " << argv[0]
                      << usage;
            return 1;
        }
    }

    // Under geo_launch every worker runs this whole binary; non-root ranks
    // still participate in the socket collectives but stay silent.
    const bench::MuteNonRoot mute;
    if (scalingN < 1000) {
        std::cerr << "scaling-n must be >= 1000 (got " << scalingN << ")\n";
        return 1;
    }

    // The cursor counts completed thread-scaling rows; a cursor > 0 also
    // implies the preamble tables already ran, so a resume skips them.
    std::size_t resumeRow = 0;
    if (!resumePath.empty()) {
        try {
            resumeRow = static_cast<std::size_t>(core::loadCheckpoint(resumePath).phase);
            std::cout << "resuming from " << resumePath << ": " << resumeRow
                      << " scaling row(s) already complete\n";
        } catch (const std::exception& e) {
            std::cerr << "cannot resume: " << e.what() << "\n";
            return 1;
        }
    }

    const std::int64_t n = 65536;
    const std::int32_t k = 32;
    std::cout << "=== Components breakdown (delaunay2d n=" << n << ", k=" << k
              << ") ===\n\n";
    const auto mesh = gen::delaunay2d(n, 9);

    if (resumeRow == 0) {
    Table table({"ranks", "hilbert[s]", "redistribute[s]", "kmeans[s]", "hilbert%",
                 "redistribute%", "kmeans%"});
    // Assignment-engine counters of the same runs: distance calculations
    // (all through the SoA batch kernel), lazy epoch bound applications,
    // and the share of points the bounds skipped.
    Table engineTable({"ranks", "kmeans[s]", "distCalcs", "batched", "epochApps", "skip%"});
    for (const int ranks : {1, 2, 4, 8, 16, 32}) {
        core::Settings settings;
        settings.memoryBudgetBytes = memBudget;
        const auto res = core::partitionGeographer<2>(mesh.points, {}, k, ranks, settings);
        const double h = res.phaseSeconds.at("hilbert");
        const double r = res.phaseSeconds.at("redistribute");
        const double m = res.phaseSeconds.at("kmeans");
        const double total = h + r + m;
        table.addRow({std::to_string(ranks), Table::num(h, 3), Table::num(r, 3),
                      Table::num(m, 3), Table::num(100.0 * h / total, 3),
                      Table::num(100.0 * r / total, 3), Table::num(100.0 * m / total, 3)});
        engineTable.addRow({std::to_string(ranks), Table::num(m, 3),
                            std::to_string(res.counters.distanceCalcs),
                            std::to_string(res.counters.batchedDistanceCalcs),
                            std::to_string(res.counters.epochBoundApplications),
                            Table::num(100.0 * res.counters.skipFraction(), 3)});
    }
    table.print(std::cout);
    std::cout << "\nPaper shape: k-means dominates at small p; the redistribution share\n"
                 "grows with the number of processes.\n\n";
    std::cout << "=== assignment engine (kmeans phase) ===\n";
    engineTable.print(std::cout);
    std::cout << "\n";
    }  // resumeRow == 0 preamble

    // Per-phase intra-rank thread scaling: the whole pipeline on ONE rank so
    // Amdahl shows up per phase, not per rank. Partitions, centers,
    // influence and metrics are bitwise identical across rows (enforced by
    // tests/test_threads.cpp); only the wall clock may differ.
    std::cout << "=== per-phase thread scaling (delaunay2d n=" << scalingN
              << ", k=" << k << ", ranks=1) ===\n";
    const auto big = scalingN == n ? mesh : gen::delaunay2d(scalingN, 9);
    std::vector<ScalingRow> rows;
    core::GeographerResult lastRes;
    Table scalingTable({"threads", "keying[s]", "sort[s]", "assign[s]", "update[s]",
                        "metrics[s]", "total[s]", "peakTileMB", "residentMB"});
    const int threadCounts[] = {1, 2, 4, 8};
    const std::size_t rowCount = std::size(threadCounts);
    // Resume skips completed rows; when all are complete, re-run the last
    // one — the serve stage below consumes its result.
    const std::size_t firstRow = std::min(resumeRow, rowCount - 1);
    for (std::size_t rowIdx = firstRow; rowIdx < rowCount; ++rowIdx) {
        const int threads = threadCounts[rowIdx];
        core::Settings settings;
        settings.memoryBudgetBytes = memBudget;
        settings.threads = threads;
        Timer whole;
        const auto res =
            core::partitionGeographer<2>(big.points, {}, k, /*ranks=*/1, settings);
        Timer metricsTimer;
        const auto m = graph::evaluatePartition(big.graph, res.partition, k, {},
                                                /*computeDiameter=*/false, {}, threads);
        ScalingRow row;
        row.threads = threads;
        row.keying = res.phaseSeconds.at("hilbert");
        row.sort = res.phaseSeconds.at("redistribute");
        row.assign = res.phaseSeconds.at("assign");
        row.update = res.phaseSeconds.at("update");
        row.kmeans = res.phaseSeconds.at("kmeans");
        row.metrics = metricsTimer.seconds();
        row.total = whole.seconds();
        row.keyedPoints = res.counters.keyedPoints;
        row.sortedRecords = res.counters.sortedRecords;
        row.peakTileBytes = res.counters.peakTileBytes;
        row.residentBytes = res.counters.residentBytes;
        row.spilledTiles = res.counters.spilledTiles;
        rows.push_back(row);
        if (threads == 8) lastRes = res;
        scalingTable.addRow(
            {std::to_string(row.threads), Table::num(row.keying, 3),
             Table::num(row.sort, 3), Table::num(row.assign, 3),
             Table::num(row.update, 3), Table::num(row.metrics, 3),
             Table::num(row.total, 3),
             Table::num(static_cast<double>(row.peakTileBytes) / (1024.0 * 1024.0), 2),
             Table::num(static_cast<double>(row.residentBytes) / (1024.0 * 1024.0), 2)});
        (void)m;
        if (!checkpointPath.empty() && bench::isRootProcess()) {
            core::CheckpointState ck;
            ck.dims = 2;
            ck.phase = rowIdx + 1;  // rows completed
            core::saveCheckpoint(checkpointPath, ck);
        }
    }
    scalingTable.print(std::cout);
    const auto& t1 = rows.front();
    const auto& t8 = rows.back();
    const double keySortSpeedup = (t1.keying + t1.sort) / (t8.keying + t8.sort);
    const double wholeReduction = 100.0 * (1.0 - t8.total / t1.total);
    std::cout << "\nkeying+sort speedup (1 -> 8 threads): x"
              << Table::num(keySortSpeedup, 2)
              << "\nwhole-run wall-time reduction (1 -> 8 threads): "
              << Table::num(wholeReduction, 1)
              << "%\n(results bitwise identical across rows; targets: >= 2x and >= 30% "
                 "on >= 8 hardware threads)\n";

    // Serve stage: freeze the final run's weighted-Voronoi diagram and route
    // every input point back through the online serving layer — the snapshot
    // must reproduce the producing partition exactly, and the routing pass
    // shares the process RSS budget with the pipeline above.
    std::cout << "\n=== serve (route all " << scalingN << " points) ===\n";
    serve::Router<2> router(1);
    router.publish(serve::PartitionSnapshot<2>::fromResult(lastRes, /*version=*/1));
    std::vector<std::int32_t> routed(big.points.size(), -1);
    Timer serveTimer;
    constexpr std::int64_t kServeBatch = 16384;
    for (std::int64_t lo = 0; lo < static_cast<std::int64_t>(big.points.size());
         lo += kServeBatch) {
        const auto len = std::min<std::int64_t>(kServeBatch,
                                                static_cast<std::int64_t>(big.points.size()) - lo);
        router.route(std::span<const Point2>(big.points.data() + lo, len),
                     std::span<std::int32_t>(routed.data() + lo, len));
    }
    const double serveSeconds = serveTimer.seconds();
    for (std::size_t i = 0; i < routed.size(); ++i) {
        if (routed[i] != lastRes.partition[i]) {
            std::cerr << "FAIL: serve route diverges from partition at point " << i << "\n";
            return 1;
        }
    }
    std::cout << "routed " << routed.size() << " points in " << Table::num(serveSeconds, 3)
              << " s (" << Table::num(static_cast<double>(routed.size()) / serveSeconds / 1e6, 2)
              << " Mqps), all blocks verified against the producing run\n";

    const std::uint64_t peakRss = support::peakRssBytes();
    std::cout << "\nmem budget: "
              << (memBudget == 0 ? std::string("unlimited")
                                 : std::to_string(memBudget) + " bytes")
              << " | engine peak tile bytes: " << rows.back().peakTileBytes
              << " | resident bytes: " << rows.back().residentBytes
              << " | process peak RSS: "
              << Table::num(static_cast<double>(peakRss) / (1024.0 * 1024.0), 1)
              << " MB\n";

    if (!jsonPath.empty() && bench::isRootProcess())
        writeJson(jsonPath, scalingN, k, lastRes.runStats.transport, memBudget,
                  serveSeconds, static_cast<std::int64_t>(routed.size()), rows);
    if (assertRss > 0 && peakRss > assertRss) {
        std::cerr << "FAIL: peak RSS " << peakRss << " bytes exceeds --assert-rss "
                  << assertRss << "\n";
        return 1;
    }
    return 0;
}
