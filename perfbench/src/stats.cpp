#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const std::size_t n = values.size();
    const auto mid = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
    std::nth_element(values.begin(), mid, values.end());
    if (n % 2 == 1) return *mid;
    const double upper = *mid;
    const double lower = *std::max_element(values.begin(), mid);
    return 0.5 * (lower + upper);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const auto idx = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[idx - 1];
}

std::optional<Tail> resolvedTail(std::vector<double> values, std::size_t minBeyond) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    std::optional<Tail> best;
    // Percentile 100·(1 − 1/den) for den = 2, 10, 100, ...; its nearest rank
    // ceil(n·(1 − 1/den)) = n − floor(n/den) in exact integer arithmetic.
    double percentile = 50.0;
    for (std::size_t den = 2; den <= n; den = (den == 2 ? 10 : den * 10)) {
        const std::size_t rank = n - n / den;
        if (rank == 0) break;
        const double value = values[rank - 1];
        const auto above = std::upper_bound(values.begin(), values.end(), value);
        const auto beyond = static_cast<std::size_t>(values.end() - above);
        if (beyond < minBeyond) break;
        best = Tail{percentile, value, beyond};
        percentile = den == 2 ? 90.0 : 100.0 - (100.0 - percentile) / 10.0;
    }
    return best;
}

double quantile(const geo::support::HistogramCounts& histogram, double q) {
    const std::uint64_t n = histogram.count();
    if (n == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::clamp(std::ceil(q * static_cast<double>(n)), 1.0, static_cast<double>(n)));
    std::size_t bucket = 0;
    std::uint64_t below = 0;
    while (below + histogram.counts[bucket] < rank) below += histogram.counts[bucket++];
    using geo::support::LatencyHistogram;
    const double upper = LatencyHistogram::bucketUpperSeconds(bucket);
    const double lower = bucket == 0 ? 0.0 : LatencyHistogram::bucketUpperSeconds(bucket - 1);
    return lower + (upper - lower) * (static_cast<double>(rank - below) - 0.5) /
                       static_cast<double>(histogram.counts[bucket]);
}

std::optional<Tail> resolvedTail(const geo::support::HistogramCounts& histogram,
                                 std::size_t minBeyond) {
    const std::uint64_t n = histogram.count();
    std::optional<Tail> best;
    double percentile = 50.0;
    for (std::uint64_t den = 2; den <= n; den = (den == 2 ? 10 : den * 10)) {
        const std::uint64_t rank = n - n / den;
        if (rank == 0) break;
        std::size_t bucket = 0;
        std::uint64_t through = histogram.counts[0];
        while (through < rank) through += histogram.counts[++bucket];
        if (n - through < minBeyond) break;
        best = Tail{percentile, geo::support::LatencyHistogram::bucketUpperSeconds(bucket),
                    static_cast<std::size_t>(n - through)};
        percentile = den == 2 ? 90.0 : 100.0 - (100.0 - percentile) / 10.0;
    }
    return best;
}

double coveredLength(Interval parent, std::vector<Interval> children) {
    for (auto& c : children) {
        c.begin = std::max(c.begin, parent.begin);
        c.end = std::min(c.end, parent.end);
    }
    std::erase_if(children, [](const Interval& c) { return c.end <= c.begin; });
    std::sort(children.begin(), children.end(),
              [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
    double covered = 0.0;
    double runBegin = 0.0;
    double runEnd = -1.0;
    bool open = false;
    for (const auto& c : children) {
        if (open && c.begin <= runEnd) {
            runEnd = std::max(runEnd, c.end);
            continue;
        }
        if (open) covered += runEnd - runBegin;
        runBegin = c.begin;
        runEnd = c.end;
        open = true;
    }
    if (open) covered += runEnd - runBegin;
    return covered;
}

}  // namespace perfbench
