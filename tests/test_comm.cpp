#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/comm.hpp"

namespace {

using geo::par::Comm;
using geo::par::CostModel;
using geo::par::runSpmd;

class CommParam : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, CommParam, ::testing::Values(1, 2, 3, 4, 8, 13));

TEST_P(CommParam, RankAndSizeAreConsistent) {
    const int p = GetParam();
    std::atomic<int> sum{0};
    runSpmd(p, [&](Comm& comm) {
        EXPECT_EQ(comm.size(), p);
        EXPECT_GE(comm.rank(), 0);
        EXPECT_LT(comm.rank(), p);
        sum += comm.rank();
    });
    EXPECT_EQ(sum.load(), p * (p - 1) / 2);
}

TEST_P(CommParam, AllreduceSumScalar) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        const int total = comm.allreduceSum(comm.rank() + 1);
        EXPECT_EQ(total, p * (p + 1) / 2);
    });
}

TEST_P(CommParam, AllreduceSumVector) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        std::vector<double> v{static_cast<double>(comm.rank()), 1.0, -2.0};
        comm.allreduceSum(std::span<double>(v));
        EXPECT_DOUBLE_EQ(v[0], p * (p - 1) / 2.0);
        EXPECT_DOUBLE_EQ(v[1], p);
        EXPECT_DOUBLE_EQ(v[2], -2.0 * p);
    });
}

TEST_P(CommParam, AllreduceMinMax) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        EXPECT_EQ(comm.allreduceMin(comm.rank()), 0);
        EXPECT_EQ(comm.allreduceMax(comm.rank()), p - 1);
    });
}

TEST_P(CommParam, BroadcastFromEveryRoot) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> data(4, comm.rank() == root ? 77 + root : -1);
            comm.broadcast(std::span<int>(data), root);
            for (int v : data) EXPECT_EQ(v, 77 + root);
        }
    });
}

TEST_P(CommParam, AllgatherOrdersByRank) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        const auto all = comm.allgather(comm.rank() * 10);
        ASSERT_EQ(static_cast<int>(all.size()), p);
        for (int r = 0; r < p; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
    });
}

TEST_P(CommParam, AllgathervVariableSizes) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        // Rank r contributes r+1 copies of r.
        std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1), comm.rank());
        const auto all = comm.allgatherv(std::span<const int>(mine));
        ASSERT_EQ(static_cast<int>(all.size()), p * (p + 1) / 2);
        std::size_t pos = 0;
        for (int r = 0; r < p; ++r)
            for (int i = 0; i <= r; ++i) EXPECT_EQ(all[pos++], r);
    });
}

TEST_P(CommParam, AlltoallvRoutesMessages) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        // Message from r to s: value 100*r + s, repeated (s+1) times.
        std::vector<std::vector<int>> sendTo(static_cast<std::size_t>(p));
        for (int s = 0; s < p; ++s)
            sendTo[static_cast<std::size_t>(s)]
                .assign(static_cast<std::size_t>(s + 1), 100 * comm.rank() + s);
        const auto recv = comm.alltoallv(sendTo);
        ASSERT_EQ(static_cast<int>(recv.size()), p * (comm.rank() + 1));
        std::size_t pos = 0;
        for (int r = 0; r < p; ++r)
            for (int i = 0; i <= comm.rank(); ++i)
                EXPECT_EQ(recv[pos++], 100 * r + comm.rank());
    });
}

TEST_P(CommParam, ExscanSum) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        const auto before = comm.exscanSum(static_cast<std::uint64_t>(comm.rank() + 1));
        std::uint64_t expected = 0;
        for (int r = 0; r < comm.rank(); ++r) expected += static_cast<std::uint64_t>(r + 1);
        EXPECT_EQ(before, expected);
    });
}

TEST_P(CommParam, CollectivesComposeAcrossIterations) {
    const int p = GetParam();
    runSpmd(p, [&](Comm& comm) {
        double value = comm.rank();
        for (int iter = 0; iter < 20; ++iter) {
            value = comm.allreduceSum(value) / p + 1.0;
        }
        // All ranks converge to the same fixed sequence.
        const double spread = comm.allreduceMax(value) - comm.allreduceMin(value);
        EXPECT_DOUBLE_EQ(spread, 0.0);
    });
}

TEST(CommStats, CountsBytesAndCollectives) {
    runSpmd(4, [&](Comm& comm) {
        comm.resetStats();
        (void)comm.allreduceSum(1.0);
        const auto& s = comm.stats();
        EXPECT_EQ(s.collectives, 1u);
        EXPECT_EQ(s.bytesSent, sizeof(double));
        EXPECT_GT(s.modeledCommSeconds, 0.0);
    });
}

TEST(CommStats, SerialCommunicatesNothing) {
    runSpmd(1, [&](Comm& comm) {
        comm.resetStats();
        (void)comm.allreduceSum(1.0);
        std::vector<int> v{1};
        comm.broadcast(std::span<int>(v));
        EXPECT_EQ(comm.stats().bytesSent, 0u);
    });
}

TEST(CostModel, AllreduceGrowsWithRanksAndBytes) {
    const CostModel m;
    EXPECT_LT(m.allreduce(2, 8), m.allreduce(1024, 8));
    EXPECT_LT(m.allreduce(64, 8), m.allreduce(64, 1 << 20));
}

TEST(CostModel, CrossIslandPenaltyKicksInBeyondIslandSize) {
    const CostModel m;
    const double below = m.allreduce(8192, 1 << 20);
    const double above = m.allreduce(8193, 1 << 20);
    EXPECT_GT(above, below * 1.5);
}

TEST(RunStats, ModeledTimeCombinesComputeAndComm) {
    const auto stats = runSpmd(4, [&](Comm& comm) {
        double sink = 0.0;
        for (int i = 0; i < 200000; ++i) sink += i;
        (void)comm.allreduceSum(sink > 0 ? 1.0 : 2.0);
    });
    EXPECT_GT(stats.maxCpuSeconds, 0.0);
    EXPECT_GT(stats.maxModeledCommSeconds, 0.0);
    EXPECT_NEAR(stats.modeledSeconds(),
                stats.maxCpuSeconds + stats.maxModeledCommSeconds, 1e-15);
}

TEST(Machine, PropagatesBodyExceptions) {
    geo::par::Machine machine(1);
    EXPECT_THROW(machine.run([](Comm&) { throw std::runtime_error("rank failure"); }),
                 std::runtime_error);
}

/// The collective the surviving ranks wait in while one rank fails.
enum class Collective { Barrier, Allreduce, Alltoallv };

/// Runs `ranks` simulated ranks where rank `failing` throws before its
/// first collective while every other rank enters `collective`; returns
/// the message of the exception runSpmd rethrew.
std::string failingRunMessage(int ranks, int failing, Collective collective) {
    try {
        runSpmd(ranks, [=](Comm& comm) {
            if (comm.rank() == failing)
                throw std::runtime_error("rank " + std::to_string(failing) + " failed");
            switch (collective) {
                case Collective::Barrier: comm.barrier(); break;
                case Collective::Allreduce: (void)comm.allreduceSum(1.0); break;
                case Collective::Alltoallv: {
                    const std::vector<std::vector<int>> sendTo(
                        static_cast<std::size_t>(ranks), std::vector<int>(3, comm.rank()));
                    (void)comm.alltoallv(sendTo);
                    break;
                }
            }
        });
    } catch (const std::exception& e) {
        return e.what();
    }
    return "no exception";
}

/// Runs `check` in a forked child and returns its exit code, or -1 when
/// the child has not exited after `seconds` (it is then killed): a hung
/// SPMD run fails its test instead of hanging the suite.
int exitCodeWithin(double seconds, const std::function<int()>& check) {
    const pid_t pid = ::fork();
    if (pid == 0) ::_exit(check());
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

TEST(Machine, ThrowingRankReleasesItsPeers) {
    const int code = exitCodeWithin(10.0, [] {
        int failures = 0;
        for (const Collective collective :
             {Collective::Barrier, Collective::Allreduce, Collective::Alltoallv}) {
            for (const int ranks : {2, 3, 4}) {
                for (const int failing : {0, ranks - 1}) {
                    // The failing rank's own exception, never a released peer's.
                    const std::string want = "rank " + std::to_string(failing) + " failed";
                    const std::string got = failingRunMessage(ranks, failing, collective);
                    if (got == want) continue;
                    std::fprintf(stderr, "collective %d, %d ranks: rethrew '%s', want '%s'\n",
                                 static_cast<int>(collective), ranks, got.c_str(),
                                 want.c_str());
                    ++failures;
                }
            }
        }
        return failures;
    });
    EXPECT_NE(code, -1) << "a failing rank left its peers waiting for 10 s";
    EXPECT_EQ(code, 0);
}

TEST(Machine, RejectsNonPositiveRankCount) {
    EXPECT_THROW(geo::par::Machine(0), std::invalid_argument);
}

TEST(Machine, IsReusableAcrossRuns) {
    geo::par::Machine machine(3);
    for (int i = 0; i < 3; ++i) {
        const auto stats = machine.run([&](Comm& comm) {
            (void)comm.allreduceSum(comm.rank());
        });
        EXPECT_EQ(stats.collectives, 1u);
    }
}

}  // namespace
