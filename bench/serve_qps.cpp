// Online routing throughput: queries per second of the serving subsystem
// (src/serve) as a function of batch size × thread count × block count.
//
// For each k, the bench partitions a uniform point cloud once, freezes the
// resulting weighted-Voronoi diagram into a PartitionSnapshot, and measures
//   * naive    — the seed-style per-point scan: one sqrt + one divide per
//                candidate center, in the effective-distance domain,
//   * single   — Router::route(point): the low-latency path (one atomic
//                shared_ptr load + one descent per query),
//   * batched  — Router::route(span): the cache-blocked squared-domain
//                kernel, fanned over the router's worker threads.
// Every batched/single result is verified against the engine's partition
// before timing (the serving exactness contract).
//
// Acceptance (ISSUE 5): batched routing >= 3x the naive scan at n=1M,
// k=64, single-thread. `--json PATH` writes BENCH_serve.json for the CI
// bench trajectory.
//
//   ./bench_serve_qps [n] [--json PATH]
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/geographer.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "support/mem.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace geo;

struct Row {
    std::int32_t k = 0;
    std::string mode;  ///< "naive", "single", "batched"
    int threads = 1;
    std::int64_t batch = 0;  ///< 0 for naive/single
    bool kdTree = false;
    double seconds = 0.0;
    double qps = 0.0;
};

/// The reference cost model: the seed implementation's per-candidate loop,
/// sqrt domain, no blocking, no SoA — what a service would do without the
/// snapshot structure.
std::int64_t naiveScan(std::span<const Point2> points, std::span<const Point2> centers,
                       std::span<const double> influence,
                       std::span<std::int32_t> out) {
    std::int64_t checksum = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        double best = std::numeric_limits<double>::infinity();
        std::int32_t bestC = -1;
        for (std::size_t c = 0; c < centers.size(); ++c) {
            const double eDist = distance(points[i], centers[c]) / influence[c];
            if (eDist < best) {
                best = eDist;
                bestC = static_cast<std::int32_t>(c);
            }
        }
        out[i] = bestC;
        checksum += bestC;
    }
    return checksum;
}

void writeJson(const std::string& path, std::int64_t n, const std::vector<Row>& rows,
               double speedup) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    out << "{\n  \"bench\": \"serve_qps\",\n  \"instance\": \"uniform2d\",\n"
        << "  \"n\": " << n << ",\n"
        << "  \"peak_rss_bytes\": " << geo::support::peakRssBytes() << ",\n"
        << "  \"batched_vs_naive_speedup_k64_t1\": " << speedup << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        out << "    {\"k\": " << r.k << ", \"mode\": \"" << r.mode
            << "\", \"threads\": " << r.threads << ", \"batch\": " << r.batch
            << ", \"kdTree\": " << (r.kdTree ? "true" : "false")
            << ", \"seconds\": " << r.seconds << ", \"qps\": " << r.qps << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    std::int64_t n = 1'000'000;
    std::string jsonPath;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--json") {
            if (a + 1 >= argc) {
                std::cerr << "--json requires a path\nusage: " << argv[0]
                          << " [n] [--json PATH]\n";
                return 1;
            }
            jsonPath = argv[++a];
        } else if (!arg.empty() && arg.find_first_not_of("0123456789") == std::string::npos) {
            n = std::atoll(arg.c_str());
        } else {
            std::cerr << "unrecognized argument: " << arg << "\nusage: " << argv[0]
                      << " [n] [--json PATH]\n";
            return 1;
        }
    }
    if (n < 1000) {
        std::cerr << "n must be >= 1000 (got " << n << ")\n";
        return 1;
    }

    std::cout << "=== Online routing QPS (uniform2d n=" << n << ") ===\n\n";
    Xoshiro256 rng(1234);
    std::vector<Point2> points(static_cast<std::size_t>(n));
    for (auto& p : points) {
        p[0] = rng.uniform();
        p[1] = rng.uniform();
    }

    std::vector<Row> rows;
    double naiveSecondsK64 = 0.0, batchedSecondsK64 = 0.0;

    Table table({"k", "mode", "threads", "batch", "kdTree", "seconds", "Mqps"});
    for (const std::int32_t k : {16, 64, 256}) {
        core::Settings settings;
        const auto res = core::partitionGeographer<2>(points, {}, k, /*ranks=*/1, settings);
        const auto snap = serve::PartitionSnapshot<2>::fromResult(res, 1);
        const auto centers = core::unflattenCenters<2>(res.centerCoords);
        const auto& influence = res.assignmentInfluence.empty()
                                    ? res.influence
                                    : res.assignmentInfluence;

        std::vector<std::int32_t> routed(points.size(), -1);

        const auto addRow = [&](const std::string& mode, int threads,
                                std::int64_t batch, double seconds) {
            Row row;
            row.k = k;
            row.mode = mode;
            row.threads = threads;
            row.batch = batch;
            row.kdTree = snap.usesKdTree();
            row.seconds = seconds;
            row.qps = static_cast<double>(n) / seconds;
            rows.push_back(row);
            table.addRow({std::to_string(k), mode, std::to_string(threads),
                          batch > 0 ? std::to_string(batch) : std::string("-"),
                          snap.usesKdTree() ? "yes" : "no", Table::num(seconds, 4),
                          Table::num(row.qps / 1e6, 3)});
        };

        // Naive per-point sqrt-domain scan (single thread).
        {
            Timer timer;
            const auto checksum = naiveScan(points, centers, influence, routed);
            const double seconds = timer.seconds();
            addRow("naive", 1, 0, seconds);
            if (k == 64) naiveSecondsK64 = seconds;
            if (checksum < 0) std::cerr << "impossible checksum\n";
        }

        // Low-latency single-point path (router, one query per call).
        {
            serve::Router<2> router(1);
            router.publish(snap);
            Timer timer;
            for (std::size_t i = 0; i < points.size(); ++i)
                routed[i] = router.route(points[i]);
            addRow("single", 1, 0, timer.seconds());
            if (routed != res.partition) {
                std::cerr << "FAIL: single-point routing diverged from the partition\n";
                return 1;
            }
        }

        // Batched path: batch size x thread count.
        for (const int threads : {1, 2, 4, 8}) {
            serve::Router<2> router(threads);
            router.publish(snap);
            for (const std::int64_t batch : {16384LL, 262144LL,
                                             static_cast<long long>(n)}) {
                std::fill(routed.begin(), routed.end(), -1);
                Timer timer;
                for (std::int64_t lo = 0; lo < n; lo += batch) {
                    const auto len = static_cast<std::size_t>(std::min(batch, n - lo));
                    router.route(
                        std::span<const Point2>(points.data() + lo, len),
                        std::span<std::int32_t>(routed.data() + lo, len));
                }
                const double seconds = timer.seconds();
                addRow("batched", threads, batch, seconds);
                if (routed != res.partition) {
                    std::cerr << "FAIL: batched routing diverged from the partition\n";
                    return 1;
                }
                if (k == 64 && threads == 1 && batch == 16384)
                    batchedSecondsK64 = seconds;
            }
        }
    }
    table.print(std::cout);

    const double speedup =
        batchedSecondsK64 > 0.0 ? naiveSecondsK64 / batchedSecondsK64 : 0.0;
    std::cout << "\nbatched (t=1, batch=16384) vs naive sqrt-domain scan at k=64: x"
              << Table::num(speedup, 2)
              << "\n(acceptance: >= 3x at n=1M, k=64, single thread; every batched\n"
                 "and single-point result was verified bitwise against the engine's\n"
                 "partition before timing)\n";

    if (!jsonPath.empty()) writeJson(jsonPath, n, rows, speedup);
    return 0;
}
