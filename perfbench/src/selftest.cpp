// Self-test of the benchmark's own statistics: the median, the resolved
// tail rule, quantiles and the tail rule over a latency histogram, and span
// self time. run.py runs it before every measurement.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    }
}

void expectNear(double got, double want, const std::string& what) {
    expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + " = " + std::to_string(got) + ", want " + std::to_string(want));
}

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    // Shuffle deterministically: the functions must not rely on sorted input.
    for (std::size_t i = 0; i < n; ++i) std::swap(v[i], v[(i * 7919) % n]);
    return v;
}

void testMedian() {
    expectNear(median({}), 0.0, "median of nothing");
    expectNear(median({3.0}), 3.0, "median of one");
    expectNear(median({5.0, 1.0, 3.0}), 3.0, "median of odd count");
    expectNear(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median of even count");
    expectNear(median({2.0, 2.0, 9.0, 2.0}), 2.0, "median with ties");
    expectNear(median(ramp(1001)), 501.0, "median of 1..1001");
    expectNear(quantile(ramp(100), 0.99), 99.0, "nearest-rank p99 of 1..100");
    expectNear(quantile(ramp(100), 0.5), 50.0, "nearest-rank p50 of 1..100");
}

void expectTail(std::vector<double> v, double percentile, double value, std::size_t beyond,
                const std::string& what) {
    const auto tail = resolvedTail(std::move(v));
    expect(tail.has_value(), what + ": no tail resolved");
    if (!tail) return;
    expectNear(tail->percentile, percentile, what + " percentile");
    expectNear(tail->value, value, what + " value");
    expect(tail->beyond == beyond, what + " beyond = " + std::to_string(tail->beyond));
}

void testTail() {
    expectTail(ramp(1000), 99.0, 990.0, 10, "1..1000");
    expectTail(ramp(10000), 99.9, 9990.0, 10, "1..10000");
    expectTail(ramp(999), 90.0, 900.0, 99, "1..999 (p99 has only 9 beyond)");
    expectTail(ramp(25), 50.0, 13.0, 12, "1..25");
    expect(!resolvedTail(ramp(15)).has_value(), "1..15 resolves no tail");
    // Ties at the top: the p99 value equals the 20 largest, so none lie
    // strictly beyond it and the p90 is the deepest resolved tail.
    auto tied = ramp(1000);
    for (auto& x : tied) x = std::min(x, 981.0);
    expectTail(tied, 90.0, 900.0, 100, "tied maximum");
}

geo::support::HistogramCounts histogramOf(std::initializer_list<std::pair<double, int>> runs) {
    geo::support::LatencyHistogram histogram;
    for (const auto& [seconds, count] : runs)
        for (int i = 0; i < count; ++i) histogram.record(seconds);
    return histogram.merged();
}

void testHistogram() {
    expectNear(quantile(histogramOf({}), 0.5), 0.0, "histogram quantile of nothing");
    // 1 us .. 10 ms in 1 us steps: within a bucket's width (1/32) of the
    // exact nearest-rank quantile.
    std::vector<double> ramped;
    geo::support::LatencyHistogram ramp10k;
    for (const double x : ramp(10000)) {
        ramped.push_back(x * 1e-6);
        ramp10k.record(x * 1e-6);
    }
    for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
        const double want = quantile(ramped, q);
        const double got = quantile(ramp10k.merged(), q);
        expect(std::fabs(got - want) <= want / 32,
               "histogram q=" + std::to_string(q) + " = " + std::to_string(got) + ", want " +
                   std::to_string(want));
    }

    expect(!resolvedTail(histogramOf({})).has_value(), "empty histogram resolves no tail");
    // Ten slow calls among 9990 fast ones: the p99.9 is resolved with the
    // ten beyond it, read at the upper edge of the fast calls' bucket.
    const auto spiky = histogramOf({{1e-4, 9990}, {1.0, 10}});
    const auto tail = resolvedTail(spiky);
    expect(tail.has_value(), "spiky histogram resolves a tail");
    if (tail) {
        expectNear(tail->percentile, 99.9, "spiky tail percentile");
        expect(tail->value >= 1e-4 && tail->value <= 1e-4 * (1.0 + 1.0 / 32),
               "spiky tail value = " + std::to_string(tail->value));
        expect(tail->beyond == 10, "spiky tail beyond = " + std::to_string(tail->beyond));
    }
    expect(!resolvedTail(histogramOf({{1e-4, 9995}, {1.0, 5}})).has_value(),
           "five slow calls resolve no tail");
    // Values 5% apart, one per bucket: the same percentile and count as the
    // exact rule, the value at most 1/32 above it.
    std::vector<double> values;
    geo::support::LatencyHistogram spread;
    for (int i = 0; i < 200; ++i) {
        values.push_back(1e-6 * std::pow(1.05, i));
        spread.record(values.back());
    }
    const auto exact = resolvedTail(values);
    const auto binned = resolvedTail(spread.merged());
    expect(exact && binned && exact->percentile == binned->percentile &&
               exact->beyond == binned->beyond && binned->value >= exact->value &&
               binned->value <= exact->value * (1.0 + 1.0 / 32),
           "histogram tail matches the exact tail");
}

void testCoverage() {
    const Interval parent{0.0, 10.0};
    expectNear(coveredLength(parent, {}), 0.0, "no children");
    expectNear(selfTime(parent, {{1.0, 5.0}, {2.0, 3.0}}), 6.0, "nested child counted once");
    expectNear(selfTime(parent, {{1.0, 5.0}, {4.0, 8.0}}), 3.0, "overlapping children");
    expectNear(selfTime(parent, {{4.0, 8.0}, {1.0, 5.0}, {7.5, 9.0}}), 2.0,
               "unsorted overlapping chain");
    expectNear(selfTime(parent, {{-2.0, 1.0}, {9.0, 12.0}}), 8.0, "children clipped to parent");
    expectNear(selfTime(parent, {{1.0, 2.0}, {3.0, 4.0}}), 8.0, "disjoint children");
    expectNear(selfTime(parent, {{0.0, 10.0}, {2.0, 3.0}}), 0.0, "fully covered");

    // The same arithmetic through a recorded lane: a parent with a nested
    // pair of children; grandchildren cover only their own parent.
    Trace trace;
    Lane& lane = trace.lane("test");
    const int top = lane.add("core.partition", 0.0, 10.0);
    const int a = lane.add("sfc.key", 0.0, 4.0, top);
    lane.add("par.sort", 3.0, 9.0, top);
    lane.addReported(a, {{"sfc.inner", 1.0}, {"sfc.inner", 2.0}});
    expectNear(lane.coverage(top), 0.9, "lane coverage");
    expectNear(lane.selfSeconds(top), 1.0, "lane self time");
    expectNear(lane.selfSeconds(a), 1.0, "self time under reported children");
    double total = 0.0;
    for (const auto& [layer, seconds] : trace.layerSelfSeconds()) total += seconds;
    expectNear(total, 1.0 + 1.0 + 3.0 + 6.0, "layer self times add up");
}

}  // namespace

int runSelfTest() {
    testMedian();
    testTail();
    testHistogram();
    testCoverage();
    std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
