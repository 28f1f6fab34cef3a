// The benchmark's workloads. Each generates its inputs from the seed, calls
// only the program's public entry points, checks every output, and fills a
// Report. With `traced` set it instead records spans around each call into
// a layer and reports the per-layer metrics (perfbench/README.md).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/geographer.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string traceDir;  ///< where a traced run writes its Chrome trace
};

void runColdMesh2d(const Options& options, Report& report);
void runWarmHotspot3d(const Options& options, Report& report);
void runServeChurn(const Options& options, Report& report);

/// The deterministic work of one partitioning call. Two calls on the same
/// input must agree exactly; the runs fail when they do not.
struct Fingerprint {
    std::uint64_t keyedPoints = 0;
    std::uint64_t sortedRecords = 0;
    std::uint64_t distanceCalcs = 0;
    std::uint64_t boundSkips = 0;
    std::uint64_t balanceIterations = 0;
    std::int64_t outerIterations = 0;
    std::uint64_t collectives = 0;
    std::uint64_t commBytes = 0;
    std::uint64_t spilledTiles = 0;

    static Fingerprint of(const geo::core::GeographerResult& result);
    bool operator==(const Fingerprint&) const = default;
    [[nodiscard]] std::string str() const;
};

/// Checks every block id is in [0, k) and the partition's weighted
/// imbalance (recomputed, not taken from the result) is within epsilon.
/// Records one attempted operation in `report`.
void checkPartition(Report& report, const std::string& what,
                    const std::vector<std::int32_t>& partition, std::size_t points,
                    std::int32_t k, std::span<const double> weights, double epsilon);

/// A phase of result.phaseSeconds, 0 when the call did not run it.
double phaseSeconds(const geo::core::GeographerResult& result, const char* name);

/// Record the phases `result` reports about itself (probe, hilbert,
/// redistribute, kmeans with its assign/update) as reported children of
/// `span`, laid end to end from its start. Returns the share of the span
/// they cover.
double recordReportedPhases(Lane& lane, int span, const geo::core::GeographerResult& result);

/// Report the k-means work counters as means per call over `calls`
/// (exact for a seed): core.distance_calcs, core.skip_fraction, ...,
/// core.spilled_tiles, core.gather_bytes (computed for dimension `dim`) and
/// core.distance_rate (distance calcs per `assignSeconds`).
void reportKMeansWork(Report& report, std::span<const geo::core::KMeansCounters> calls, int dim,
                      double assignSeconds, std::size_t samples);

/// Report self.<layer>_s for every layer the trace recorded and for each of
/// `layers` (0 when the trace holds none of its spans), divided by `per`.
void reportSelfSeconds(Report& report, const Trace& trace,
                       std::initializer_list<const char*> layers, double per, std::size_t samples,
                       const std::string& note);

/// Record the process's peak resident set before its first program call:
/// what the benchmark itself holds, to set against peak_rss_mb.
inline void reportHarnessRss(Report& report) {
    report.metric("harness_rss_mb", peakRssMb(), "MB", 1,
                  "peak resident set before the first program call (MiB)");
}

/// Wall and process CPU seconds of one measured operation, and a digest
/// of its output.
struct Sample {
    double wall = 0.0;
    double cpu = 0.0;
    std::uint64_t digest = 0;
};

/// FNV-1a digest of a partition, and of a result's partition and counter
/// fingerprint: what a repetition is compared by, without keeping results.
std::uint64_t digestOf(std::span<const std::int32_t> partition);
std::uint64_t digestOf(const geo::core::GeographerResult& result);

/// Report the set-up samples — setup_s (median process CPU seconds of
/// `what`), setup_wall_s and each sample's CPU seconds as a fact — and end
/// set-up in `report`.
void reportSetup(Report& report, const std::vector<Sample>& setup, const std::string& what);

/// Time `body` as the first call of a fresh child process forked from this
/// one; the sample carries the digest `body` returned. The process must not
/// have started any thread yet (a fork would copy none of them). A failed
/// child is counted in `report` and gives no sample.
std::optional<Sample> timeInForkedChild(const std::function<std::uint64_t()>& body,
                                        Report& report);

}  // namespace perfbench
