#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/geographer.hpp"
#include "core/settings.hpp"
#include "par/transport/socket.hpp"
#include "scoped_env.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using geo::SplitMix64;
using geo::Xoshiro256;
using geo::test::ScopedEnv;

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
    // Precedence: threads > GEO_THREADS env > 1. Uncached, so every leg is
    // exercisable in one process; the scopes restore CI's GEO_THREADS.
    geo::core::Settings s;
    {
        const ScopedEnv env("GEO_THREADS", nullptr);
        EXPECT_EQ(s.resolvedThreads(), 1);  // both unset: built-in default
    }
    const ScopedEnv env("GEO_THREADS", "3");
    EXPECT_EQ(geo::par::defaultThreads(), 3);
    EXPECT_EQ(s.resolvedThreads(), 3);  // unset field: the env default

    s.threads = 2;
    EXPECT_EQ(s.resolvedThreads(), 2);  // threads beats the env default

    s.threads = 0;
    EXPECT_EQ(s.resolvedThreads(), 3);  // back to the env default
    {
        const ScopedEnv garbage("GEO_THREADS", "abc");
        EXPECT_THROW((void)s.resolvedThreads(), std::invalid_argument);
    }
}

TEST(Settings, ResolvedThreadsTreatsNonPositiveAsUnset) {
    const ScopedEnv env("GEO_THREADS", "3");
    geo::core::Settings s;
    s.threads = -4;
    EXPECT_EQ(s.resolvedThreads(), 3);  // negative values fall through
}

TEST(Settings, ResolvedRanksPrecedence) {
    // Precedence: ranks > GEO_RANKS env > 1.
    geo::core::Settings s;
    {
        const ScopedEnv env("GEO_RANKS", "4");
        EXPECT_EQ(s.resolvedRanks(), 4);  // unset field: the env default

        s.ranks = 2;
        EXPECT_EQ(s.resolvedRanks(), 2);  // field beats the env
    }
    s.ranks = 0;
    {
        const ScopedEnv env("GEO_RANKS", nullptr);
        EXPECT_EQ(s.resolvedRanks(), 1);  // both unset: built-in default

        s.ranks = -2;
        EXPECT_EQ(s.resolvedRanks(), 1);  // non-positive field falls through
        s.ranks = 0;
    }
    {
        const ScopedEnv env("GEO_RANKS", "-3");
        EXPECT_THROW((void)s.resolvedRanks(), std::invalid_argument);  // out of range
    }
    {
        const ScopedEnv env("GEO_RANKS", "junk");
        EXPECT_THROW((void)s.resolvedRanks(), std::invalid_argument);  // unparseable
    }
}

// ------------------------------------------------------ environment rule

/// One GEO_* variable read through its accessor, rendered as text so a
/// single table can hold every type.
struct EnvCase {
    const char* name;
    std::function<std::string()> read;
    std::string unset;  ///< rendering of the caller's default
    std::vector<std::pair<const char*, std::string>> valid;  ///< value → rendering
    std::vector<const char*> invalid;
    std::vector<std::pair<const char*, const char*>> context;  ///< other variables
};

std::string renderFault(const std::optional<geo::support::FaultSpec>& spec) {
    if (!spec) return "none";
    return std::to_string(static_cast<int>(spec->action)) + " rank=" +
           std::to_string(spec->rank) + " code=" + std::to_string(spec->exitCode) +
           " ms=" + std::to_string(spec->delayMs);
}

std::vector<EnvCase> envCases() {
    using namespace geo;
    auto integer = [](auto f) { return [f] { return std::to_string(f()); }; };
    const std::vector<const char*> notInts = {"4x", " 4", "+4", "0x10", "4.0", "abc",
                                              "99999999999999999999"};
    auto withNotInts = [&](std::vector<const char*> invalid) {
        invalid.insert(invalid.end(), notInts.begin(), notInts.end());
        return invalid;
    };
    return {
        {"GEO_THREADS", integer(par::defaultThreads), "1",
         {{"1", "1"}, {"1024", "1024"}}, withNotInts({"0", "-1", "1025"}), {}},
        {"GEO_RANKS", integer(par::defaultRanks), "1", {{"1", "1"}, {"1024", "1024"}},
         withNotInts({"0", "-3", "1025"}), {}},
        {"GEO_RANK", integer(par::workerRank), "-1", {{"0", "0"}, {"3", "3"}},
         withNotInts({"-1", "4"}), {{"GEO_RANKS", "4"}}},
        {"GEO_COMM_TIMEOUT_MS", integer(par::defaultCommTimeoutMs), "30000",
         {{"0", "0"}, {"86400000", "86400000"}}, withNotInts({"-1", "86400001"}), {}},
        {"GEO_CONNECT_TIMEOUT_MS", integer(par::defaultConnectTimeoutMs), "30000",
         {{"0", "0"}, {"86400000", "86400000"}}, withNotInts({"-1", "86400001"}), {}},
        {"GEO_MEM_BUDGET", integer(support::envMemoryBudget), "0",
         {{"0", "0"}, {"64k", "65536"}, {"18446744073709551615", "18446744073709551615"}},
         {"lots", "-5", "64kx", "4t", "18446744073709551616", "17179869184g"}, {}},
        {"GEO_FAULT", [] { return renderFault(support::envFaultSpec()); }, "none",
         {{"exit:code=255:rank=0", "1 rank=0 code=255 ms=1000"},
          {"delay:ms=3600000", "2 rank=-1 code=1 ms=3600000"}},
         {"explode", "kill:rank=-1", "exit:code=256", "delay:ms=3600001", "kill:rank",
          "kill:seq=99999999999999999999", "kill:rank=1x"}, {}},
    };
}

TEST(EnvRule, EveryVariableFollowsTheOneRule) {
    // Unset or empty gives the caller's default; any other value parses
    // completely and in range, or the read throws std::invalid_argument
    // naming the variable and the value. Nothing is cached, so each leg
    // sees the value its scope set.
    for (const EnvCase& c : envCases()) {
        SCOPED_TRACE(c.name);
        std::vector<std::unique_ptr<ScopedEnv>> context;
        for (const auto& [name, value] : c.context)
            context.push_back(std::make_unique<ScopedEnv>(name, value));
        for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
            const ScopedEnv env(c.name, unset);
            EXPECT_EQ(c.read(), c.unset);
        }
        for (const auto& [value, rendered] : c.valid) {
            const ScopedEnv env(c.name, value);
            EXPECT_EQ(c.read(), rendered) << "value '" << value << "'";
        }
        for (const char* value : c.invalid) {
            const ScopedEnv env(c.name, value);
            try {
                (void)c.read();
                ADD_FAILURE() << "value '" << value << "' was accepted";
            } catch (const std::invalid_argument& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(c.name), std::string::npos) << what;
                EXPECT_NE(what.find(value), std::string::npos) << what;
            }
        }
    }
}

TEST(EnvRule, WorkerAddressIsExactlyOneOfSocketDirAndPortBase) {
    // A geo_launch worker (GEO_RANK set) joins the mesh over TCP when
    // GEO_PORT_BASE is set and over Unix sockets in GEO_SOCKET_DIR
    // otherwise; both or neither is a launch error naming both variables.
    // Each variable still follows the one rule: empty means unset, and a
    // malformed port base throws naming the variable and the value.
    const ScopedEnv rank("GEO_RANK", "0");
    const ScopedEnv ranks("GEO_RANKS", "2");
    {
        const ScopedEnv dir("GEO_SOCKET_DIR", "/tmp/geo-sockets");
        const ScopedEnv port("GEO_PORT_BASE", "");
        const auto cfg = geo::par::workerSocketConfig().value();
        EXPECT_FALSE(cfg.tcp);
        EXPECT_EQ(cfg.dir, "/tmp/geo-sockets");
        EXPECT_EQ(cfg.rank, 0);
        EXPECT_EQ(cfg.ranks, 2);
    }
    {
        const ScopedEnv dir("GEO_SOCKET_DIR", "");
        for (const char* value : {"1", "65534"}) {
            const ScopedEnv port("GEO_PORT_BASE", value);
            const auto cfg = geo::par::workerSocketConfig().value();
            EXPECT_TRUE(cfg.tcp);
            EXPECT_EQ(cfg.portBase, std::stoi(value));
        }
        for (const char* value : {"0", "-1", "65535", "4x", " 4", "+4"}) {
            const ScopedEnv port("GEO_PORT_BASE", value);
            try {
                (void)geo::par::workerSocketConfig();
                ADD_FAILURE() << "GEO_PORT_BASE '" << value << "' was accepted";
            } catch (const std::invalid_argument& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("GEO_PORT_BASE"), std::string::npos) << what;
                EXPECT_NE(what.find(value), std::string::npos) << what;
            }
        }
    }
    for (const auto& [dir, port] : {std::pair<const char*, const char*>{nullptr, nullptr},
                                    std::pair<const char*, const char*>{"", ""},
                                    std::pair<const char*, const char*>{"/tmp/s", "24000"}}) {
        const ScopedEnv dirEnv("GEO_SOCKET_DIR", dir);
        const ScopedEnv portEnv("GEO_PORT_BASE", port);
        try {
            (void)geo::par::workerSocketConfig();
            ADD_FAILURE() << "accepted GEO_SOCKET_DIR='" << (dir ? dir : "(unset)")
                          << "' with GEO_PORT_BASE='" << (port ? port : "(unset)") << "'";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("GEO_SOCKET_DIR"), std::string::npos) << what;
            EXPECT_NE(what.find("GEO_PORT_BASE"), std::string::npos) << what;
        }
    }
}

TEST(EnvRule, OutsideAWorkerNoWorkerVariableIsRead) {
    // Without GEO_RANK a process is no worker: workerSocketConfig and every
    // Machine run read nothing else, so malformed worker variables cannot
    // break a partition call.
    const ScopedEnv rank("GEO_RANK", nullptr);
    const ScopedEnv ranks("GEO_RANKS", "junk");
    const ScopedEnv dir("GEO_SOCKET_DIR", "/nonexistent/geo");
    const ScopedEnv port("GEO_PORT_BASE", "junk");
    EXPECT_FALSE(geo::par::workerSocketConfig().has_value());
    Xoshiro256 rng(23);
    std::vector<geo::Point2> points(400);
    for (auto& p : points) p = {rng.uniform(), rng.uniform()};
    const auto res = geo::core::partitionGeographer<2>(points, {}, 4, 2, geo::core::Settings{});
    EXPECT_EQ(res.partition.size(), points.size());
    EXPECT_STREQ(res.runStats.transport, "sim");
}

TEST(EnvRule, MalformedThreadsReachThePartitionCaller) {
    // Both simulated ranks read GEO_THREADS and throw at the same point, so
    // the run ends without a hang and rethrows to the caller.
    Xoshiro256 rng(17);
    std::vector<geo::Point2> points(400);
    for (auto& p : points) p = {rng.uniform(), rng.uniform()};
    const ScopedEnv env("GEO_THREADS", "abc");
    EXPECT_THROW((void)geo::core::partitionGeographer<2>(points, {}, 4, 2, geo::core::Settings{}),
                 std::invalid_argument);
}

TEST(EnvRule, MutatedValuesYieldAValueOrInvalidArgument) {
    // Seeded mutation fuzzing of the GEO_FAULT and GEO_MEM_BUDGET parsers
    // and the integer parser: every input gives a value or
    // std::invalid_argument — any other exception fails the test, and the
    // sanitizer job turns UB into a failure too.
    struct Target {
        const char* name;
        std::vector<std::string> seeds;
        std::function<void()> read;
    };
    const std::vector<Target> targets = {
        {"GEO_FAULT",
         {"kill", "exit:code=7:rank=2", "delay:ms=250:op=allreduce", "drop:seq=9:once=/tmp/m"},
         [] { (void)geo::support::envFaultSpec(); }},
        {"GEO_MEM_BUDGET", {"0", "64k", "512MB", "2g", "18446744073709551615"},
         [] { (void)geo::support::envMemoryBudget(); }},
        {"GEO_THREADS", {"1", "4", "1024"}, [] { (void)geo::par::defaultThreads(); }},
        {"GEO_COMM_TIMEOUT_MS", {"0", "750", "86400000"},
         [] { (void)geo::par::defaultCommTimeoutMs(); }},
    };
    const std::string alphabet = "0123456789:=-+ kKmMgGbBx\x7f\xff";
    Xoshiro256 rng(20261017);
    for (const Target& target : targets) {
        int values = 0, errors = 0;
        for (int iter = 0; iter < 2000; ++iter) {
            std::string text = target.seeds[rng.below(target.seeds.size())];
            const auto edits = 1 + rng.below(4);
            for (std::uint64_t e = 0; e < edits; ++e) {
                const std::size_t pos = rng.below(text.size() + 1);
                const char byte = rng.below(4) == 0
                                      ? static_cast<char>(1 + rng.below(255))
                                      : alphabet[rng.below(alphabet.size())];
                switch (rng.below(4)) {
                    case 0: text.insert(pos, 1, byte); break;
                    case 1:
                        if (pos < text.size()) text[pos] = byte;
                        break;
                    case 2:
                        if (pos < text.size()) text.erase(pos, 1 + rng.below(3));
                        break;
                    default: text.insert(pos, text.substr(0, rng.below(text.size() + 1)));
                }
            }
            const ScopedEnv env(target.name, text);
            try {
                target.read();
                ++values;
            } catch (const std::invalid_argument&) {
                ++errors;
            }
        }
        EXPECT_GT(values, 0) << target.name;
        EXPECT_GT(errors, 0) << target.name;
    }
}

TEST(Timer, MeasuresNonNegativeTime) {
    geo::Timer t;
    double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink += i * 0.5;
    EXPECT_GT(sink, 0.0);
    EXPECT_GE(t.seconds(), 0.0);
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
