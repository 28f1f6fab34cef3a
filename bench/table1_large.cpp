// Table 1: detailed per-instance results for the *large* graphs with
// k = p = 1024 in the paper (alyaTestCaseB, delaunay250M/2B, fesom-jigsaw,
// refinedtrace-00006/7). Scaled to one machine: the largest generated
// analogs at k = 32. Columns: time, cut, maxCommVol, ΣcommVol, diameter,
// timeSpMVComm — best value per instance/metric marked with '*'.
//
//   ./bench_table1_large [--transport sim|socket|tcp] [--ranks N]
//
// `--ranks N` runs Geographer's SPMD phase at width N (baselines stay
// serial). The tool registry builds its own Settings, so `--transport`
// flows through the GEO_TRANSPORT environment fallback; under
// `geo_launch -n N -- bench_table1_large --transport socket --ranks N`
// the Geographer rows run on the real multi-process backend.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "gen/alya.hpp"
#include "gen/climate.hpp"
#include "gen/delaunay2d.hpp"
#include "gen/delaunay3d.hpp"
#include "gen/meshes2d.hpp"

namespace {

using namespace geo;

void printInstance(const std::string& name, std::int64_t n,
                   const std::vector<bench::ToolRow>& rows) {
    // Mark the best value per column.
    auto best = rows.front();
    for (const auto& r : rows) {
        best.seconds = std::min(best.seconds, r.seconds);
        best.cut = std::min(best.cut, r.cut);
        best.maxCommVol = std::min(best.maxCommVol, r.maxCommVol);
        best.totCommVol = std::min(best.totCommVol, r.totCommVol);
        best.harmDiam = std::min(best.harmDiam, r.harmDiam);
        best.spmvCommSeconds = std::min(best.spmvCommSeconds, r.spmvCommSeconds);
    }
    Table table({"graph", "tool", "time", "cut", "maxCommVol", "S commVol", "diameter",
                 "timeSpMVComm"});
    auto mark = [](bool isBest, std::string s) { return isBest ? "*" + s : s; };
    bool first = true;
    for (const auto& r : rows) {
        table.addRow({first ? name + " n=" + std::to_string(n) : "", r.tool,
                      mark(r.seconds == best.seconds, Table::num(r.seconds, 3)),
                      mark(r.cut == best.cut, std::to_string(r.cut)),
                      mark(r.maxCommVol == best.maxCommVol, std::to_string(r.maxCommVol)),
                      mark(r.totCommVol == best.totCommVol, std::to_string(r.totCommVol)),
                      mark(r.harmDiam == best.harmDiam, Table::num(r.harmDiam, 4)),
                      mark(r.spmvCommSeconds == best.spmvCommSeconds,
                           Table::num(r.spmvCommSeconds, 4))});
        first = false;
    }
    table.print(std::cout);
    std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    int ranks = 1;
    const char* usage = " [--transport sim|socket|tcp] [--ranks N]\n";
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--transport") {
            if (a + 1 >= argc) {
                std::cerr << "--transport requires a backend\nusage: " << argv[0] << usage;
                return 1;
            }
            // Validate, then hand the choice to the tools through the
            // GEO_TRANSPORT fallback of Settings::resolvedTransport.
            const auto kind = par::parseTransportKind(argv[++a]);
            setenv("GEO_TRANSPORT", par::transportKindName(kind), 1);
        } else if (arg == "--ranks") {
            if (a + 1 >= argc) {
                std::cerr << "--ranks requires a count\nusage: " << argv[0] << usage;
                return 1;
            }
            ranks = std::atoi(argv[++a]);
            if (ranks < 1) {
                std::cerr << "--ranks must be >= 1 (got " << ranks << ")\n";
                return 1;
            }
        } else {
            std::cerr << "unrecognized argument: " << arg << "\nusage: " << argv[0]
                      << usage;
            return 1;
        }
    }

    // Under geo_launch the whole binary runs once per worker; only rank 0
    // prints (the workers join Geographer's socket collectives).
    const bench::MuteNonRoot mute;
    if (par::workerRank() >= 0) ranks = bench::workerProcesses();

    const std::int32_t k = 32;
    const double eps = 0.03;
    std::cout << "=== Table 1: large graphs, k=" << k << " (paper: k=p=1024) ===\n"
              << "('*' marks the best value per column; geoKmeans SPMD width: "
              << ranks << ")\n\n";

    struct Case2 {
        std::string name;
        gen::Mesh2 mesh;
    };
    // Large-analog instances, one per paper family.
    std::vector<Case2> cases2;
    cases2.push_back({"delaunay-large", gen::delaunay2d(200000, 1)});
    cases2.push_back({"refinedtrace-analog", gen::refinedTriMesh(150000, 1, 2)});
    cases2.push_back({"fesom-jigsaw-analog", gen::climate25d(120000, 40, 3)});

    for (auto& c : cases2)
        printInstance(c.name, c.mesh.numVertices(),
                      bench::runAllTools<2>(c.mesh, k, eps, 1, 20,
                                            /*computeDiameter=*/true, ranks));

    const auto alya = gen::alya3d(100000, 7, 4);
    printInstance("alyaTestCaseB-analog", alya.numVertices(),
                  bench::runAllTools<3>(alya, k, eps, 1, 20,
                                        /*computeDiameter=*/true, ranks));
    const auto del3 = gen::delaunay3d(60000, 5);
    printInstance("delaunay3d-large", del3.numVertices(),
                  bench::runAllTools<3>(del3, k, eps, 1, 20,
                                        /*computeDiameter=*/true, ranks));

    std::cout << "Paper shape: geoKmeans leads S commVol and timeSpMVComm on most rows;\n"
                 "MJ is the strongest competitor; Hsfc has the fastest partitioning time.\n";
    return 0;
}
