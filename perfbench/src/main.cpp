// perfbench: one workload run per process.
//
//   perfbench --workload <cold-mesh2d|warm-hotspot3d|serve-churn> --seed N
//             --seconds S --trace <0|1> [--trace-dir DIR]
//   perfbench --self-test
//
// Prints the measured metrics as text, then the whole report as one JSON
// line (run.py turns it into the benchmark's result line). Exits 1 when an
// output check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {
int runSelfTest();
}

namespace {

int usage(const char* message) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR] | --self-test\n",
                 message);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    // The program resolves unset settings from GEO_* variables; the
    // benchmark fixes every setting explicitly, so none may leak in.
    for (const char* var : {"GEO_THREADS", "GEO_RANKS", "GEO_MEM_BUDGET", "GEO_TRANSPORT",
                            "GEO_FAULT", "GEO_COMM_TIMEOUT_MS", "GEO_RANK", "GEO_TRACE"})
        unsetenv(var);

    perfbench::Options options;
    options.traceDir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") return perfbench::runSelfTest();
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                options.traced = std::stoi(value) != 0;
            } else if (arg == "--trace-dir") {
                options.traceDir = value;
            } else {
                return usage(("unknown option " + arg).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

    perfbench::Report report(options.workload, options.seed, options.traced);
    try {
        if (options.workload == "cold-mesh2d") {
            perfbench::runColdMesh2d(options, report);
        } else if (options.workload == "warm-hotspot3d") {
            perfbench::runWarmHotspot3d(options, report);
        } else if (options.workload == "serve-churn") {
            perfbench::runServeChurn(options, report);
        } else {
            return usage(("unknown workload '" + options.workload + "'").c_str());
        }
    } catch (const std::exception& e) {
        report.check(false, std::string("exception: ") + e.what());
    }
    report.finish();
    return report.failed() == 0 ? 0 : 1;
}
