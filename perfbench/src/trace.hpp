// In-memory span recorder for the traced runs.
//
// Spans are recorded from the benchmark's own files around each call into a
// program layer (the program itself carries no instrumentation). Each
// recording thread owns one Lane, so recording takes no lock; lanes are
// created up front and written out once, at exit, as a Chrome trace-event
// file that opens in Perfetto. Durations a layer reports about itself (for
// example KMeansOutcome::assignSeconds) become child spans laid end to end
// from their parent's start and are marked `reported`.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
    std::string name;   ///< "<layer>.<call>", e.g. "sfc.key"
    double begin = 0.0; ///< seconds since the trace origin
    double end = 0.0;
    int parent = -1;    ///< index of the parent span in the same lane
    bool reported = false;
};

class Lane {
public:
    Lane(std::string name, int tid, std::chrono::steady_clock::time_point origin)
        : name_(std::move(name)), tid_(tid), origin_(origin) {}

    [[nodiscard]] double now() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
            .count();
    }
    /// Open a span starting now; returns its index.
    int open(std::string name, int parent = -1);
    void close(int span) { spans_[static_cast<std::size_t>(span)].end = now(); }
    /// Record a finished span.
    int add(std::string name, double begin, double end, int parent = -1,
            bool reported = false);
    /// Record reported child durations laid end to end from the parent's start.
    void addReported(int parent, const std::vector<std::pair<std::string, double>>& parts);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    [[nodiscard]] const Span& span(int i) const { return spans_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] int tid() const noexcept { return tid_; }
    /// Fraction of span `i` covered by its direct children.
    [[nodiscard]] double coverage(int i) const;
    /// Span `i`'s duration minus the union of its direct children.
    [[nodiscard]] double selfSeconds(int i) const;

private:
    [[nodiscard]] std::vector<Interval> childIntervals(int i) const;

    std::string name_;
    int tid_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

class Trace {
public:
    Trace() : origin_(std::chrono::steady_clock::now()) {}
    Trace(const Trace&) = delete;
    Trace& operator=(const Trace&) = delete;

    /// A new lane for one recording thread. Create every lane before the
    /// threads start; the returned reference stays valid for the Trace's
    /// lifetime.
    Lane& lane(std::string name);
    /// Self seconds summed per layer (the name before the first '.').
    [[nodiscard]] std::vector<std::pair<std::string, double>> layerSelfSeconds() const;
    /// Write every span as a Chrome trace-event JSON file; at most
    /// `maxPerName` spans of each name per lane are written (the rest are
    /// counted in the file's metadata). Returns false on an I/O error.
    bool writeChrome(const std::string& path, std::size_t maxPerName,
                     const std::string& metadataJson) const;

private:
    std::chrono::steady_clock::time_point origin_;
    std::deque<Lane> lanes_;
};

}  // namespace perfbench
