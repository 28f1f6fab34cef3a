#include "report.hpp"

#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "json.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kKeptFailures = 20;

std::string cpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

}  // namespace

double hostStealSeconds() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    double fields[8] = {};
    if (!(in >> cpu) || cpu != "cpu") return 0.0;
    for (double& f : fields)
        if (!(in >> f)) return 0.0;
    // user nice system idle iowait irq softirq steal, in USER_HZ ticks.
    return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double processCpuSeconds() {
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double peakRssMb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
}

bool restartPeakRss() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.close();
    return static_cast<bool>(out);
}

int liveThreads() {
    int count = 0;
    std::error_code ec;
    for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
         !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
        ++count;
    return count;
}

Report::Report(std::string workload, std::uint64_t seed, bool traced)
    : workload_(std::move(workload)), seed_(seed), traced_(traced),
      stealAtStart_(hostStealSeconds()) {}

void Report::metric(const std::string& name, double value, std::string unit,
                    std::size_t samples, std::string note) {
    metrics_[name] = Metric{value, std::move(unit), samples, std::move(note)};
}

void Report::check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < kKeptFailures) failures_.push_back(what);
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < kKeptFailures)
        failures_.push_back(std::to_string(failed) + " x " + what);
}

std::string Report::runJson() const {
    JsonObject meta;
    meta.add("workload", workload_)
        .add("seed", seed_)
        .add("traced", traced_)
        .add("nproc", static_cast<int>(std::thread::hardware_concurrency()))
        .add("cpu_model", cpuModel())
        .add("compiler", std::string(PERFBENCH_COMPILER))
        .add("flags", std::string(PERFBENCH_FLAGS));
    for (const auto& [key, value] : facts_) meta.add(key, value);
    return meta.str();
}

void Report::fact(const std::string& key, const std::vector<double>& samples) {
    std::string joined;
    for (const double s : samples) {
        if (!joined.empty()) joined += ' ';
        joined += std::to_string(s);
    }
    fact(key, std::move(joined));
}

void Report::endSetup() {
    metric("setup_rss_mb", peakRssMb(), "MB", 1,
           "peak resident set from process start to the end of set-up (MiB)");
    setupEnded_ = true;
}

void Report::restartPeak() {
    if (!restartPeakRss()) restartRefused_ = true;
}

void Report::finish() {
    const double steal = hostStealSeconds() - stealAtStart_;
    // A run cut short by an exception still reports its resident sets.
    if (!setupEnded_) endSetup();
    if (peaks_.empty()) recordPeak();
    fact("peak_rss_samples", peaks_);
    metric("peak_rss_mb", median(peaks_), "MB", peaks_.size(),
           restartRefused_ ? "peak resident set of the run so far, per operation, median: the "
                             "kernel refused to restart the high-water mark (MiB)"
                           : "peak resident set during one measured operation, median (MiB)");
    metric("host.steal_s", steal, "s", 1, "host CPU steal during the run (/proc/stat)");
    std::printf("perfbench %s seed=%llu trace=%d\n", workload_.c_str(),
                static_cast<unsigned long long>(seed_), traced_ ? 1 : 0);
    JsonObject metrics;
    for (const auto& [name, m] : metrics_) {
        std::printf("  %-28s %16.6f %-8s n=%-7zu %s\n", name.c_str(), m.value, m.unit.c_str(),
                    m.samples, m.note.c_str());
        metrics.raw(name, JsonObject()
                              .add("value", m.value)
                              .add("unit", m.unit)
                              .add("samples", m.samples)
                              .add("note", m.note)
                              .str());
    }
    std::printf("  attempted=%llu failed=%llu\n", static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    std::string failures = "[";
    for (const auto& f : failures_) {
        std::printf("  FAILED: %s\n", f.c_str());
        if (failures.size() > 1) failures += ',';
        failures += jsonString(f);
    }
    failures += "]";
    const std::string line = JsonObject()
                                 .add("correct", failed_ == 0)
                                 .add("attempted", attempted_)
                                 .add("failed", failed_)
                                 .raw("metrics", metrics.str())
                                 .raw("run", runJson())
                                 .raw("failures", failures)
                                 .str();
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
