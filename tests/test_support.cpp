#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include "core/settings.hpp"
#include "support/assert.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using geo::SplitMix64;
using geo::Xoshiro256;

// Pin GEO_THREADS before main() — and before the first defaultThreads()
// call anywhere in this process (its value is read once and cached) — so
// the env-var leg of Settings::resolvedThreads() is testable regardless of
// the environment ctest launched us with. defaultThreads() caches on first
// CALL (function-local static), not at static initialization, so this
// file-scope initializer reliably runs first: nothing in this binary calls
// it during static init.
const bool kGeoThreadsPinned = [] {
    setenv("GEO_THREADS", "3", /*overwrite=*/1);
    return true;
}();

TEST(Rng, SplitMixIsDeterministic) {
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
    Xoshiro256 a(7), b(7), c(8);
    bool anyDiff = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a(), vb = b(), vc = c();
        EXPECT_EQ(va, vb);
        anyDiff |= (va != vc);
    }
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, UniformInUnitInterval) {
    Xoshiro256 rng(1);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Xoshiro256 rng(2);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, BelowStaysInRange) {
    Xoshiro256 rng(3);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
    Xoshiro256 rng(4);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, SplitStreamsDiffer) {
    Xoshiro256 base(9);
    auto s1 = base.split(1);
    auto s2 = base.split(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (s1() == s2());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformMeanIsCentered) {
    Xoshiro256 rng(5);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Assert, RequireThrowsInvalidArgument) {
    EXPECT_THROW(GEO_REQUIRE(false, "boom"), std::invalid_argument);
    EXPECT_NO_THROW(GEO_REQUIRE(true, ""));
}

TEST(Assert, CheckThrowsLogicError) {
    EXPECT_THROW(GEO_CHECK(1 == 2, "bad"), std::logic_error);
    EXPECT_NO_THROW(GEO_CHECK(1 == 1, ""));
}

TEST(Assert, MessageIsIncluded) {
    try {
        GEO_REQUIRE(false, "the-detail");
        FAIL() << "should have thrown";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("the-detail"), std::string::npos);
    }
}

TEST(Settings, ResolvedThreadsPrecedence) {
    // Precedence: threads > GEO_THREADS env > 1. The env leg reads the
    // value pinned by kGeoThreadsPinned above; the final built-in default
    // (1) is only reachable with the variable unset, which cannot be
    // exercised in the same process.
    ASSERT_TRUE(kGeoThreadsPinned);
    EXPECT_EQ(geo::par::defaultThreads(), 3);

    geo::core::Settings s;
    EXPECT_EQ(s.resolvedThreads(), 3);  // unset: the env default

    s.threads = 2;
    EXPECT_EQ(s.resolvedThreads(), 2);  // threads beats the env default

    s.threads = 0;
    EXPECT_EQ(s.resolvedThreads(), 3);  // back to the env default
}

TEST(Settings, ResolvedThreadsTreatsNonPositiveAsUnset) {
    geo::core::Settings s;
    s.threads = -4;
    EXPECT_EQ(s.resolvedThreads(), 3);  // negative values fall through
}

TEST(Settings, ResolvedRanksPrecedence) {
    // Precedence: ranks > GEO_RANKS env > 1. Unlike GEO_THREADS the env leg
    // is deliberately UNCACHED (geo_launch workers and this test mutate the
    // variable at runtime), so every leg is exercisable in one process.
    setenv("GEO_RANKS", "4", /*overwrite=*/1);
    geo::core::Settings s;
    EXPECT_EQ(s.resolvedRanks(), 4);  // unset field: the env default

    s.ranks = 2;
    EXPECT_EQ(s.resolvedRanks(), 2);  // field beats the env

    s.ranks = 0;
    unsetenv("GEO_RANKS");
    EXPECT_EQ(s.resolvedRanks(), 1);  // both unset: built-in default

    setenv("GEO_RANKS", "-3", 1);
    EXPECT_EQ(s.resolvedRanks(), 1);  // non-positive env falls through
    setenv("GEO_RANKS", "junk", 1);
    EXPECT_EQ(s.resolvedRanks(), 1);  // unparseable env falls through
    unsetenv("GEO_RANKS");

    s.ranks = -2;
    EXPECT_EQ(s.resolvedRanks(), 1);  // non-positive field falls through
}

TEST(Settings, ResolvedTransportPrecedence) {
    using geo::par::TransportKind;
    // Precedence: transport > GEO_TRANSPORT env > simulator. Also uncached.
    unsetenv("GEO_TRANSPORT");
    geo::core::Settings s;
    EXPECT_EQ(s.resolvedTransport(), TransportKind::Sim);  // all unset

    setenv("GEO_TRANSPORT", "tcp", /*overwrite=*/1);
    EXPECT_EQ(s.resolvedTransport(), TransportKind::Tcp);  // env applies

    s.transport = TransportKind::Socket;
    EXPECT_EQ(s.resolvedTransport(), TransportKind::Socket);  // field beats env

    s.transport = TransportKind::Auto;
    setenv("GEO_TRANSPORT", "socket", 1);
    EXPECT_EQ(s.resolvedTransport(), TransportKind::Socket);
    setenv("GEO_TRANSPORT", "sim", 1);
    EXPECT_EQ(s.resolvedTransport(), TransportKind::Sim);
    setenv("GEO_TRANSPORT", "", 1);
    EXPECT_EQ(s.resolvedTransport(), TransportKind::Sim);  // empty = unset

    setenv("GEO_TRANSPORT", "carrier-pigeon", 1);
    EXPECT_THROW((void)s.resolvedTransport(), std::invalid_argument);
    unsetenv("GEO_TRANSPORT");
}

TEST(Settings, TransportKindNamesRoundTrip) {
    using geo::par::TransportKind;
    using geo::par::parseTransportKind;
    using geo::par::transportKindName;
    for (const TransportKind kind :
         {TransportKind::Sim, TransportKind::Socket, TransportKind::Tcp})
        EXPECT_EQ(parseTransportKind(transportKindName(kind)), kind);
    EXPECT_THROW((void)parseTransportKind("auto"), std::invalid_argument);
    EXPECT_THROW((void)parseTransportKind(""), std::invalid_argument);
}

TEST(Timer, MeasuresNonNegativeTime) {
    geo::Timer t;
    double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink += i * 0.5;
    EXPECT_GT(sink, 0.0);
    EXPECT_GE(t.seconds(), 0.0);
}

TEST(PhaseTimer, AccumulatesNamedPhases) {
    geo::PhaseTimer pt;
    pt.add("a", 1.0);
    pt.add("a", 0.5);
    pt.add("b", 2.0);
    EXPECT_DOUBLE_EQ(pt.get("a"), 1.5);
    EXPECT_DOUBLE_EQ(pt.get("b"), 2.0);
    EXPECT_DOUBLE_EQ(pt.get("missing"), 0.0);
    EXPECT_DOUBLE_EQ(pt.total(), 3.5);
}

TEST(PhaseTimer, ScopeAddsOnDestruction) {
    geo::PhaseTimer pt;
    { auto s = pt.scope("x"); }
    EXPECT_GE(pt.get("x"), 0.0);
    EXPECT_EQ(pt.phases().count("x"), 1u);
}

TEST(Table, PrintsHeaderAndRows) {
    geo::Table t({"graph", "tool", "cut"});
    t.addRow({"mesh1", "geographer", "123"});
    t.addRow({"mesh1", "rcb", "456"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("graph"), std::string::npos);
    EXPECT_NE(s.find("geographer"), std::string::npos);
    EXPECT_NE(s.find("456"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
    geo::Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsCompactly) {
    EXPECT_EQ(geo::Table::num(1.5), "1.5");
    EXPECT_EQ(geo::Table::num(2.0), "2");
}

// ------------------------------------------------------- latency histogram

TEST(Histogram, EmptyQuantilesAreZero) {
    geo::support::LatencyHistogram hist;
    EXPECT_EQ(hist.merged().count(), 0u);
    EXPECT_EQ(hist.merged().quantile(0.5), 0.0);
    EXPECT_EQ(hist.merged().quantile(0.99), 0.0);
}

TEST(Histogram, BucketLayoutKnownAnswers) {
    using H = geo::support::LatencyHistogram;
    // Sub-32 ns values get exact unit buckets.
    EXPECT_EQ(H::bucketIndex(0), 0u);
    EXPECT_EQ(H::bucketIndex(1), 1u);
    EXPECT_EQ(H::bucketIndex(31), 31u);
    // 32 opens the first true octave group; 63 ends it.
    EXPECT_EQ(H::bucketIndex(32), 32u);
    EXPECT_EQ(H::bucketIndex(63), 63u);
    // Adjacent sub-buckets split an octave into 32 linear slices: 64..127
    // covers indices 64..95.
    EXPECT_EQ(H::bucketIndex(64), 64u);
    EXPECT_EQ(H::bucketIndex(127), 95u);
    // Every bucket's upper edge maps back into the same bucket.
    for (std::size_t b = 0; b < H::kBuckets; b += 7) {
        const auto nanos =
            static_cast<std::uint64_t>(H::bucketUpperSeconds(b) * 1e9 + 0.5);
        EXPECT_EQ(H::bucketIndex(nanos), b) << "bucket " << b;
    }
}

TEST(Histogram, KnownAnswerQuantiles) {
    // 100 samples at 1ms, 2ms, ..., 100ms: p50 ≈ 50ms, p90 ≈ 90ms,
    // p99 ≈ 99ms, each within the 1/32 bucket-resolution bound.
    geo::support::LatencyHistogram hist;
    for (int i = 1; i <= 100; ++i) hist.record(i * 1e-3);
    const auto view = hist.merged();
    EXPECT_EQ(view.count(), 100u);
    EXPECT_NEAR(view.quantile(0.50), 0.050, 0.050 / 32.0 + 1e-9);
    EXPECT_NEAR(view.quantile(0.90), 0.090, 0.090 / 32.0 + 1e-9);
    EXPECT_NEAR(view.quantile(0.99), 0.099, 0.099 / 32.0 + 1e-9);
    // Degenerate quantiles clamp instead of misindexing.
    EXPECT_GT(view.quantile(0.0), 0.0);
    EXPECT_NEAR(view.quantile(1.0), 0.100, 0.100 / 32.0 + 1e-9);
}

TEST(Histogram, NegativeAndNaNClampToZeroBucket) {
    geo::support::LatencyHistogram hist;
    hist.record(-1.0);
    hist.record(std::nan(""));
    const auto view = hist.merged();
    EXPECT_EQ(view.count(), 2u);
    EXPECT_EQ(view.quantile(1.0), 0.0);  // bucket 0's upper edge is 0s
}

TEST(Histogram, ShardMergeIsAssociativeAndOrderIndependent) {
    // Record the same stream into (a) one shard, (b) spread over 4 shards,
    // (c) two separate histograms merged afterwards — all three must
    // produce identical counts.
    geo::support::LatencyHistogram one(1);
    geo::support::LatencyHistogram four(4);
    geo::support::LatencyHistogram left(2);
    geo::support::LatencyHistogram right(2);
    Xoshiro256 rng(99);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform() * 0.01;
        one.record(v);
        four.record(v, i % 4);
        (i % 2 == 0 ? left : right).record(v, i % 2);
    }
    const auto a = one.merged();
    const auto b = four.merged();
    auto c = left.merged();
    c.merge(right.merged());
    auto d = right.merged();
    d.merge(left.merged());
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.counts, c.counts);
    EXPECT_EQ(c.counts, d.counts);  // merge order cannot matter
    EXPECT_EQ(a.total, 10000u);
    EXPECT_EQ(c.total, 10000u);
}

}  // namespace
