// Order statistics and interval arithmetic behind every number the
// benchmark reports. Apart from the header-only latency histogram they are
// free of program code, so the self-test (selftest.cpp) checks them in
// isolation.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "support/histogram.hpp"

namespace perfbench {

/// Median of `values`: the middle element, or the mean of the two middle
/// elements for an even count. 0 for an empty sample.
double median(std::vector<double> values);

/// Nearest-rank quantile: the ceil(q·n)-th smallest value, q in (0, 1].
double quantile(std::vector<double> values, double q);

/// A tail percentile together with how many samples lie strictly above it.
struct Tail {
    double percentile = 0.0;  ///< e.g. 99.9
    double value = 0.0;       ///< nearest-rank value at that percentile
    std::size_t beyond = 0;   ///< samples strictly greater than `value`
};

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, ... that
/// still has at least `minBeyond` samples strictly above its nearest-rank
/// value — the deepest tail the sample resolves. Empty when even the median
/// has fewer than `minBeyond` samples above it.
std::optional<Tail> resolvedTail(std::vector<double> values, std::size_t minBeyond = 10);

/// The nearest-rank q-quantile of a latency histogram, interpolated by
/// rank inside its bucket. (HistogramCounts::quantile reads the bucket's
/// upper edge, so its figures would repeat exactly from run to run.)
double quantile(const geo::support::HistogramCounts& histogram, double q);

/// resolvedTail() of a latency histogram: the value is the upper edge of
/// the bucket holding the percentile's nearest rank (at most 1/32 above the
/// exact order statistic), and `beyond` counts the samples in higher
/// buckets, all strictly greater than it.
std::optional<Tail> resolvedTail(const geo::support::HistogramCounts& histogram,
                                 std::size_t minBeyond = 10);

/// A closed time interval [begin, end] in seconds.
struct Interval {
    double begin = 0.0;
    double end = 0.0;
};

/// Length of the union of `children`, each clipped to `parent`. Children
/// may nest in each other and overlap; covered time is counted once.
double coveredLength(Interval parent, std::vector<Interval> children);

/// A span's self time: its duration minus the part its children cover.
inline double selfTime(Interval parent, std::vector<Interval> children) {
    return (parent.end - parent.begin) - coveredLength(parent, std::move(children));
}

}  // namespace perfbench
