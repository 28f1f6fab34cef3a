// Figure 3: weak and strong scaling on the DelaunayX series.
//
// (a) Weak scaling: p = k doubles from 2 to 64 with a fixed number of
//     points per process (paper: 32 -> 8192 procs at 250k points/proc; we
//     scale to 4096 points/proc on one machine).
// (b) Strong scaling: fixed mesh, k = p swept (paper: Delaunay2B with
//     k = 1024 -> 16384).
//
// Geographer runs genuinely SPMD on the simulated runtime: reported time is
// max-rank CPU time + modeled communication from the counted collectives.
// The serial baselines are projected with the per-algorithm comm model
// (DESIGN.md §2). The shape to reproduce: Geographer/MJ/HSFC scale nearly
// flat (weak) and downward (strong); RCB/RIB degrade visibly.
//
//   ./bench_fig3_scaling [--ranks N]
//
// `--ranks N` replaces the p sweep with the single width N — the mode for
// `geo_launch -n N -- bench_fig3_scaling --ranks N`, where only a run whose
// SPMD width matches the launched process mesh engages the real socket
// backend (any other width runs on the simulator, which would mislabel the
// rows).
#include <cstdlib>
#include <iostream>
#include <string>

#include "baseline/rcb_dist.hpp"
#include "baseline/tools.hpp"
#include "common.hpp"
#include "core/geographer.hpp"
#include "gen/delaunay2d.hpp"

namespace {

using namespace geo;

double geographerModeledSeconds(const gen::Mesh2& mesh, std::int32_t k, int ranks) {
    core::Settings settings;
    settings.epsilon = 0.03;
    const auto res = core::partitionGeographer<2>(mesh.points, {}, k, ranks, settings);
    return res.modeledSeconds;
}

/// Measured SPMD RCB: the slowest rank's CPU + modeled comm, like
/// Geographer. Each rank snapshots its score before the closing max.
double rcbSpmdModeledSeconds(const gen::Mesh2& mesh, std::int32_t k, int ranks) {
    double slowest = 0.0;
    par::runSpmd(ranks, [&](par::Comm& comm) {
        const auto n = static_cast<std::int64_t>(mesh.points.size());
        const std::int64_t lo = n * comm.rank() / ranks;
        const std::int64_t hi = n * (comm.rank() + 1) / ranks;
        std::vector<Point2> local(mesh.points.begin() + lo, mesh.points.begin() + hi);
        const double cpu0 = comm.cpuSeconds();
        (void)baseline::rcbDistributed<2>(comm, local, {}, k);
        const double score = comm.allreduceMax((comm.cpuSeconds() - cpu0) +
                                               comm.stats().modeledCommSeconds);
        if (par::ownsResult(comm)) slowest = score;
    });
    return slowest;
}

/// Serial baseline seconds for the given mesh/k (measured once per size).
double serialSeconds(const baseline::Tool<2>& tool, const gen::Mesh2& mesh, std::int32_t k) {
    return tool.run(mesh.points, {}, k, 0.03, 1, 1).seconds;
}

}  // namespace

int main(int argc, char** argv) {
    int ranksArg = 0;
    const char* usage = " [--ranks N]\n";
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--ranks") {
            if (a + 1 >= argc) {
                std::cerr << "--ranks requires a count\nusage: " << argv[0] << usage;
                return 1;
            }
            ranksArg = std::atoi(argv[++a]);
            if (ranksArg < 2) {
                std::cerr << "--ranks must be >= 2 (got " << ranksArg << ")\n";
                return 1;
            }
        } else {
            std::cerr << "unrecognized argument: " << arg << "\nusage: " << argv[0]
                      << usage;
            return 1;
        }
    }

    // Under geo_launch every worker runs the whole binary; non-root ranks
    // join the socket collectives of the matching-width runs but stay quiet.
    const bench::MuteNonRoot mute;

    const par::CostModel model;
    std::vector<int> procs{2, 4, 8, 16, 32, 64};
    if (ranksArg > 0) procs = {ranksArg};

    std::cout << "=== Fig. 3a: weak scaling, DelaunayX series (4096 points/proc) ===\n"
              << "(geoKmeans and Rcb-spmd are measured SPMD runs; the other columns are\n"
              << " serial measurements projected with the per-algorithm comm model)\n";
    Table weak({"p=k", "n", "geoKmeans[s]", "Rcb-spmd[s]", "MJ[s]", "Rcb[s]", "Rib[s]",
                "Hsfc[s]"});
    for (const int p : procs) {
        const std::int64_t n = 4096LL * p;
        const auto mesh = gen::delaunay2d(n, 100 + static_cast<std::uint64_t>(p));
        std::vector<std::string> row{std::to_string(p), std::to_string(n)};
        row.push_back(Table::num(geographerModeledSeconds(mesh, p, p), 4));
        row.push_back(Table::num(rcbSpmdModeledSeconds(mesh, p, p), 4));
        for (std::size_t t = 1; t < baseline::tools2().size(); ++t) {
            const auto& tool = baseline::tools2()[t];
            const double serial = serialSeconds(tool, mesh, p);
            row.push_back(Table::num(
                baseline::modeledScaling(tool.kind, n, p, p, 2, serial, model).total(), 4));
        }
        weak.addRow(row);
    }
    weak.print(std::cout);

    std::cout << "\n=== Fig. 3b: strong scaling, fixed Delaunay mesh (n=262144) ===\n";
    const auto big = gen::delaunay2d(262144, 77);
    Table strong({"p=k", "geoKmeans[s]", "MJ[s]", "Rcb[s]", "Rib[s]", "Hsfc[s]"});
    for (const int p : procs) {
        std::vector<std::string> row{std::to_string(p)};
        row.push_back(Table::num(geographerModeledSeconds(big, p, p), 4));
        for (std::size_t t = 1; t < baseline::tools2().size(); ++t) {
            const auto& tool = baseline::tools2()[t];
            const double serial = serialSeconds(tool, big, p);
            row.push_back(Table::num(
                baseline::modeledScaling(tool.kind, 262144, p, p, 2, serial, model).total(),
                4));
        }
        strong.addRow(row);
    }
    strong.print(std::cout);
    std::cout << "\nPaper shape: near-flat weak scaling for geoKmeans/MJ/Hsfc up to large p;\n"
                 "Rcb/Rib running time grows with every doubling.\n";
    return 0;
}
