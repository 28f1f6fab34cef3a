// A workload run's result: every metric it measured, the operations it
// attempted and failed, and the host facts needed to rerun or discount it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< measurements behind `value`
    std::string note;         ///< how it was measured or derived
};

/// Host CPU steal time so far, in seconds (from /proc/stat; 0 if absent).
double hostStealSeconds();
/// CPU time of this process so far, in seconds (all threads). The kernel
/// does not charge hypervisor steal to a task, so unlike wall time it stays
/// steady on a host that steals CPU. A thread's own CPU time is
/// geo::par::detail::threadCpuSeconds().
double processCpuSeconds();
/// Peak resident set of this process since it started or since the last
/// restartPeakRss(), in MiB: VmHWM of /proc/self/status (getrusage's
/// ru_maxrss cannot be restarted). 0 where /proc is unavailable.
double peakRssMb();
/// Restart the peak at the current resident set (/proc/self/clear_refs).
/// False when the kernel does not allow it.
bool restartPeakRss();
/// Threads alive in this process (from /proc/self/task).
int liveThreads();

class Report {
public:
    Report(std::string workload, std::uint64_t seed, bool traced);

    void metric(const std::string& name, double value, std::string unit,
                std::size_t samples, std::string note = {});
    /// Count one attempted operation; a false `ok` also counts it as failed
    /// and records `what` (the first few are kept for the report).
    void check(bool ok, const std::string& what);
    /// Count `attempted` operations of which `failed` failed, as `what`.
    void tally(std::uint64_t attempted, std::uint64_t failed, const std::string& what);
    /// Free-form facts about the run (strings).
    void fact(const std::string& key, std::string value) { facts_[key] = std::move(value); }
    /// A fact listing every sample of a figure, in the order taken.
    void fact(const std::string& key, const std::vector<double>& samples);

    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

    /// End of set-up: record setup_rss_mb, the peak resident set so far.
    void endSetup();
    /// Restart the resident-set high-water mark before one measured
    /// operation; recordPeak() after it keeps that operation's peak, and
    /// finish() reports the median of the kept peaks as peak_rss_mb.
    void restartPeak();
    void recordPeak() { peaks_.push_back(peakRssMb()); }
    /// Add the whole-run host metrics (peak_rss_mb, host.steal_s), then
    /// print human-readable lines and the whole report as one JSON line.
    void finish();
    /// The run description embedded in trace files.
    [[nodiscard]] std::string runJson() const;

private:
    std::string workload_;
    std::uint64_t seed_;
    bool traced_;
    double stealAtStart_;
    bool setupEnded_ = false;
    bool restartRefused_ = false;
    std::vector<double> peaks_;
    std::map<std::string, Metric> metrics_;
    std::map<std::string, std::string> facts_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

}  // namespace perfbench
