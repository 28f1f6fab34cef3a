// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures.
#pragma once

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "baseline/tools.hpp"
#include "gen/mesh.hpp"
#include "graph/metrics.hpp"
#include "par/transport/transport.hpp"
#include "spmv/spmv.hpp"
#include "support/mem.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace geo::bench {

/// Multi-process awareness: under `geo_launch -n N -- bench_...` the whole
/// binary executes once per worker process, so tables and BENCH_*.json must
/// come from rank 0 only. Outside a worker every process is "root".
[[nodiscard]] inline bool isRootProcess() { return par::workerRank() <= 0; }

/// Real worker-process count this binary runs across (1 outside geo_launch).
[[nodiscard]] inline int workerProcesses() {
    return par::workerRank() < 0 ? 1 : par::defaultRanks();
}

/// Display name of the transport a Settings-carried kind will resolve to —
/// what the BENCH_*.json "transport" field records.
[[nodiscard]] inline const char* resolvedTransportName(par::TransportKind kind) {
    return par::transportKindName(kind == par::TransportKind::Auto
                                      ? par::envTransportKind()
                                      : kind);
}

/// Emit the peak-RSS field every BENCH_*.json carries, so the bench
/// trajectory tracks memory alongside time. Callers place it right after
/// the opening lines of the object (note the trailing comma + newline).
inline void writePeakRssField(std::ostream& out) {
    out << "  \"peak_rss_bytes\": " << support::peakRssBytes() << ",\n";
}

/// Silences std::cout on non-root worker ranks for the lifetime of the
/// object. Restores the original stream buffer on destruction — std::cout
/// is flushed again during static teardown, after any main-local filebuf
/// is gone.
class MuteNonRoot {
public:
    MuteNonRoot() {
        if (isRootProcess()) return;
        devnull_.open("/dev/null");
        saved_ = std::cout.rdbuf(devnull_.rdbuf());
    }
    ~MuteNonRoot() {
        if (saved_ != nullptr) std::cout.rdbuf(saved_);
    }
    MuteNonRoot(const MuteNonRoot&) = delete;
    MuteNonRoot& operator=(const MuteNonRoot&) = delete;

private:
    std::ofstream devnull_;
    std::streambuf* saved_ = nullptr;
};

/// Quality + timing of one tool on one instance (one row of Tables 1/2).
struct ToolRow {
    std::string tool;
    double seconds = 0.0;
    std::int64_t cut = 0;
    std::int64_t maxCommVol = 0;
    std::int64_t totCommVol = 0;
    double harmDiam = 0.0;
    double imbalance = 0.0;
    double spmvCommSeconds = 0.0;
};

/// Run every registered tool on a mesh and collect the §2 metrics.
/// `spmvIterations` = 0 skips the SpMV benchmark (faster sweeps).
/// `ranks` only affects Geographer (the baselines run serially); pairing it
/// with GEO_TRANSPORT=socket under geo_launch puts its SPMD phase on the
/// real multi-process backend.
template <int D>
std::vector<ToolRow> runAllTools(const gen::Mesh<D>& mesh, std::int32_t k, double eps,
                                 std::uint64_t seed, int spmvIterations = 20,
                                 bool computeDiameter = true, int ranks = 1) {
    const auto& tools = [] {
        if constexpr (D == 2) return baseline::tools2();
        else return baseline::tools3();
    }();
    std::vector<ToolRow> rows;
    for (const auto& tool : tools) {
        const auto res = tool.run(mesh.points, mesh.weights, k, eps, ranks, seed);
        const auto m =
            graph::evaluatePartition(mesh.graph, res.partition, k, mesh.weights,
                                     computeDiameter);
        ToolRow row;
        row.tool = tool.name;
        row.seconds = res.seconds;
        row.cut = m.edgeCut;
        row.maxCommVol = m.maxCommVolume;
        row.totCommVol = m.totalCommVolume;
        row.harmDiam = m.harmonicMeanDiameter;
        row.imbalance = m.imbalance;
        if (spmvIterations > 0) {
            row.spmvCommSeconds =
                spmv::runSpmv(mesh.graph, res.partition, k, spmvIterations)
                    .modeledCommSecondsPerIteration;
        }
        rows.push_back(row);
    }
    return rows;
}

/// Geometric mean (the aggregation of Fig. 2; the paper uses the harmonic
/// mean only for diameters, which our evaluatePartition already applies
/// within an instance).
inline double geometricMean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double logSum = 0.0;
    for (const double v : values) logSum += std::log(std::max(v, 1e-300));
    return std::exp(logSum / static_cast<double>(values.size()));
}

/// Accumulates tool/metric ratios relative to the baseline tool (Fig. 2).
class RatioAggregator {
public:
    void add(const std::vector<ToolRow>& rows) {
        const auto& base = rows.front();  // geoKmeans is first
        for (const auto& row : rows) {
            auto push = [&](const char* metric, double value, double baseValue) {
                if (baseValue > 0.0)
                    ratios_[row.tool][metric].push_back(value / baseValue);
            };
            push("edgeCut", static_cast<double>(row.cut), static_cast<double>(base.cut));
            push("maxCommVol", static_cast<double>(row.maxCommVol),
                 static_cast<double>(base.maxCommVol));
            push("totCommVol", static_cast<double>(row.totCommVol),
                 static_cast<double>(base.totCommVol));
            push("harmDiam", row.harmDiam, base.harmDiam);
            push("timeComm", row.spmvCommSeconds, base.spmvCommSeconds);
        }
    }

    /// Print one row per tool with the geometric-mean ratio per metric.
    void print(std::ostream& os, const std::string& title) const {
        os << title << " (ratios vs geoKmeans, geometric mean; >1 means worse)\n";
        Table table({"tool", "edgeCut", "maxCommVol", "totCommVol", "harmDiam", "timeComm"});
        for (const auto& [tool, metrics] : ratios_) {
            auto get = [&](const char* name) {
                const auto it = metrics.find(name);
                return it == metrics.end() ? 0.0 : geometricMean(it->second);
            };
            table.addRow({tool, Table::num(get("edgeCut"), 3), Table::num(get("maxCommVol"), 3),
                          Table::num(get("totCommVol"), 3), Table::num(get("harmDiam"), 3),
                          Table::num(get("timeComm"), 3)});
        }
        table.print(os);
        os << '\n';
    }

private:
    std::map<std::string, std::map<std::string, std::vector<double>>> ratios_;
};

}  // namespace geo::bench
