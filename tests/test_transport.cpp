// Transport conformance + cross-backend acceptance suite.
//
// The binary is dual-purpose:
//   * run with no --worker flag it is a normal gtest binary: binio codec
//     units, the collectives conformance battery on the simulator at
//     several rank counts (the oracle), and the socket-backend legs, which
//     re-exec THIS binary under geo_launch (GEO_LAUNCH_PATH, injected by
//     CMake) so every conformance case also runs across real processes;
//   * run with --worker=conformance it executes the same battery inside a
//     geo_launch worker and signals failure through its exit code;
//   * run with --worker=pipeline OUT it runs the partition → repartition →
//     route → distributed SpMV pipeline and every rank r writes a binary
//     dump of every deterministic output to OUT.r — the gtest side compares
//     each dump byte-for-byte against the simulator's (same partition
//     vector, counters, misrouteStats and SpMV halo figures, at 2 and 4
//     real processes).
//
// Every expected value in the battery is the STRICT RANK-ORDER fold the
// determinism contract promises (transport.hpp): each rank recomputes the
// fold locally over all ranks' known contributions and compares bitwise,
// so a backend that reassociates floating-point reductions fails here.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/geographer.hpp"
#include "core/settings.hpp"
#include "gen/delaunay2d.hpp"
#include "par/comm.hpp"
#include "par/transport/socket.hpp"
#include "par/transport/transport.hpp"
#include "repart/repartition.hpp"
#include "repart/scenarios.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "spmv/dist_spmv.hpp"
#include "support/binio.hpp"

#ifndef GEO_LAUNCH_PATH
#error "GEO_LAUNCH_PATH must be defined to the geo_launch binary path"
#endif

namespace {

using geo::par::Comm;

// ---------------------------------------------------------------- helpers

std::string selfExe() {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) return {};
    buf[n] = '\0';
    return std::string(buf);
}

/// Run `geo_launch <tail>`; returns the launcher's exit status (or -1 when
/// the shell could not be spawned, 128+signal on abnormal termination).
int runLaunch(const std::string& tail) {
    const std::string cmd = std::string(GEO_LAUNCH_PATH) + " " + tail;
    const int rc = std::system(cmd.c_str());
    if (rc == -1) return -1;
    if (WIFEXITED(rc)) return WEXITSTATUS(rc);
    if (WIFSIGNALED(rc)) return 128 + WTERMSIG(rc);
    return 255;
}

// ------------------------------------------------- conformance battery

/// One failure sink shared by all ranks of a run. In the simulator the
/// ranks are threads of this process, hence the mutex; in a geo_launch
/// worker each process owns a private instance.
struct Failures {
    std::mutex mu;
    std::vector<std::string> all;

    void add(int rank, const std::string& what) {
        const std::lock_guard<std::mutex> lock(mu);
        all.push_back("rank " + std::to_string(rank) + ": " + what);
    }
};

#define BAT_CHECK(cond, label) \
    do {                       \
        if (!(cond)) fails.add(comm.rank(), (label)); \
    } while (0)

/// The collectives conformance battery. Every expectation is exact —
/// including the floating-point ones, which recompute the rank-order fold
/// locally — so it doubles as the bitwise determinism check both backends
/// must pass identically. Valid at any size >= 1 (size 1 exercises the
/// short-circuit paths).
void runBattery(Comm& comm, Failures& fails) {
    const int p = comm.size();
    const int r = comm.rank();

    // Barriers compose with everything else; run a few up front.
    comm.barrier();
    comm.barrier();

    // Scalar integer sum: ranks contribute r+1.
    BAT_CHECK(comm.allreduceSum(std::int64_t{r} + 1) ==
                  std::int64_t{p} * (p + 1) / 2,
              "allreduceSum scalar int");

    // Vector double sum against the rank-order fold oracle. The values are
    // chosen so reassociation changes the rounding: a backend folding in
    // any other order produces bitwise-different sums.
    {
        const int m = 5;
        auto contrib = [&](int q, int i) {
            return 0.1 * (q + 1) + 1e-13 * (i + 1) * (q + 1) * (q + 1);
        };
        std::vector<double> mine(m), expect(m);
        for (int i = 0; i < m; ++i) {
            mine[static_cast<std::size_t>(i)] = contrib(r, i);
            double acc = contrib(0, i);
            for (int q = 1; q < p; ++q) acc += contrib(q, i);
            expect[static_cast<std::size_t>(i)] = acc;
        }
        comm.allreduceSum(std::span<double>(mine));
        BAT_CHECK(mine == expect, "allreduceSum double vector (bitwise fold)");
    }

    // Min/max with negatives.
    BAT_CHECK(comm.allreduceMin(std::int32_t{-r}) == -(p - 1), "allreduceMin int");
    BAT_CHECK(comm.allreduceMax(0.5 * r) == 0.5 * (p - 1), "allreduceMax double");
    BAT_CHECK(comm.allreduceMax(std::uint64_t{1} << (r % 48)) ==
                  std::uint64_t{1} << ((p - 1) % 48),
              "allreduceMax u64");

    // Broadcast from every root, plus the zero-length edge case.
    for (int root = 0; root < p; ++root) {
        std::vector<std::int64_t> buf(7, -1);
        if (r == root)
            for (int i = 0; i < 7; ++i)
                buf[static_cast<std::size_t>(i)] = root * 1000 + i;
        comm.broadcast(std::span<std::int64_t>(buf), root);
        bool ok = true;
        for (int i = 0; i < 7; ++i)
            ok &= buf[static_cast<std::size_t>(i)] == root * 1000 + i;
        BAT_CHECK(ok, "broadcast from root " + std::to_string(root));
    }
    {
        std::vector<int> empty;
        comm.broadcast(std::span<int>(empty), 0);  // must not hang or crash
    }

    // allgather of one scalar per rank: rank order is the contract.
    {
        const auto got = comm.allgather(r * 10 + 1);
        bool ok = static_cast<int>(got.size()) == p;
        for (int q = 0; ok && q < p; ++q)
            ok = got[static_cast<std::size_t>(q)] == q * 10 + 1;
        BAT_CHECK(ok, "allgather rank order");
    }

    // Uneven allgatherv: rank q contributes q elements — rank 0 sends a
    // zero-length buffer.
    {
        std::vector<std::int32_t> mine(static_cast<std::size_t>(r));
        for (int j = 0; j < r; ++j)
            mine[static_cast<std::size_t>(j)] = r * 100 + j;
        const auto got = comm.allgatherv(std::span<const std::int32_t>(mine));
        std::vector<std::int32_t> expect;
        for (int q = 0; q < p; ++q)
            for (int j = 0; j < q; ++j) expect.push_back(q * 100 + j);
        BAT_CHECK(got == expect, "allgatherv uneven sizes");
    }

    // All-empty allgatherv.
    {
        const std::vector<double> none;
        BAT_CHECK(comm.allgatherv(std::span<const double>(none)).empty(),
                  "allgatherv all-empty");
    }

    // Uneven alltoallv with POD struct payloads; bucket sizes (sender +
    // receiver) % 3 cover zero-length pairs in both directions.
    {
        struct Cell {
            std::int32_t tag;
            double value;
            bool operator==(const Cell&) const = default;
        };
        std::vector<std::vector<Cell>> sendTo(static_cast<std::size_t>(p));
        for (int q = 0; q < p; ++q)
            for (int j = 0; j < (r + q) % 3; ++j)
                sendTo[static_cast<std::size_t>(q)].push_back(
                    Cell{r * 10000 + q * 100 + j, 0.25 * r + j});
        const auto got = comm.alltoallv(sendTo);
        std::vector<Cell> expect;
        for (int q = 0; q < p; ++q)
            for (int j = 0; j < (q + r) % 3; ++j)
                expect.push_back(Cell{q * 10000 + r * 100 + j, 0.25 * q + j});
        BAT_CHECK(got == expect, "alltoallv uneven POD buckets");
    }

    // Exclusive prefix sums: integer exactly, double against the fold.
    BAT_CHECK(comm.exscanSum(std::uint64_t{static_cast<std::uint64_t>(r) + 1}) ==
                  static_cast<std::uint64_t>(r) * (r + 1) / 2,
              "exscanSum u64");
    {
        auto contrib = [](int q) { return 0.1 * (q + 1) + 1e-13 * (q + 1) * (q + 1); };
        double expect = 0.0;
        for (int q = 0; q < r; ++q) expect += contrib(q);
        BAT_CHECK(comm.exscanSum(contrib(r)) == expect,
                  "exscanSum double (bitwise fold)");
    }

    // Interleaved data-dependent collectives: 8 rounds mixing sum and max
    // where each round's input depends on the previous round's output.
    // Every rank recomputes the whole-machine evolution locally.
    {
        double x = 1.0 + 0.01 * r;
        std::vector<double> oracle(static_cast<std::size_t>(p));
        for (int q = 0; q < p; ++q) oracle[static_cast<std::size_t>(q)] = 1.0 + 0.01 * q;
        for (int it = 0; it < 8; ++it) {
            const double s = comm.allreduceSum(x);
            const double mx = comm.allreduceMax(x);
            x = s / p + 0.001 * mx + 1e-6 * r;

            double os = oracle[0];
            for (int q = 1; q < p; ++q) os += oracle[static_cast<std::size_t>(q)];
            double omx = oracle[0];
            for (int q = 1; q < p; ++q)
                omx = std::max(omx, oracle[static_cast<std::size_t>(q)]);
            for (int q = 0; q < p; ++q)
                oracle[static_cast<std::size_t>(q)] = os / p + 0.001 * omx + 1e-6 * q;
        }
        BAT_CHECK(x == oracle[static_cast<std::size_t>(r)],
                  "interleaved collective sequence (bitwise)");
    }

    // CommStats parity: the accounting happens in Comm from logical payload
    // sizes, so both backends must report byte-identical stats for the same
    // call sequence. (At size 1 collectives short-circuit unaccounted; the
    // single-rank zero-stats case is covered by test_comm.)
    if (p > 1) {
        comm.resetStats();
        std::vector<double> v(3, 1.0);
        comm.allreduceSum(std::span<double>(v));
        std::vector<std::int32_t> mine(static_cast<std::size_t>(r + 1), r);
        (void)comm.allgatherv(std::span<const std::int32_t>(mine));
        std::vector<std::int64_t> b(7, r == 0 ? 9 : 0);
        comm.broadcast(std::span<std::int64_t>(b), 0);

        const std::uint64_t gatherTotal =
            sizeof(std::int32_t) * static_cast<std::uint64_t>(p) * (p + 1) / 2;
        const std::uint64_t mineBytes = sizeof(std::int32_t) * (static_cast<std::uint64_t>(r) + 1);
        const std::uint64_t wantSent = 24 + mineBytes + (r == 0 ? 56 : 0);
        const std::uint64_t wantRecv = 24 + (gatherTotal - mineBytes) + (r == 0 ? 0 : 56);
        BAT_CHECK(comm.stats().collectives == 3, "stats: collective count");
        BAT_CHECK(comm.stats().bytesSent == wantSent, "stats: bytesSent");
        BAT_CHECK(comm.stats().bytesReceived == wantRecv, "stats: bytesReceived");
        comm.resetStats();
    }

    comm.barrier();
}

#undef BAT_CHECK

// ------------------------------------------------- pipeline scenario

/// The acceptance pipeline: cold partition → snapshot publish → route the
/// next timestep through the stale snapshot → warm repartition → misroute
/// accounting → distributed SpMV over the fresh partition. Returns a
/// binary dump of every deterministic output; the same `ranks` must yield
/// the same bytes on every backend. The backend is the process's: the
/// simulator in the gtest process, the socket mesh in a geo_launch worker.
std::vector<std::byte> runPipelineDump(int ranks) {
    using geo::repart::RepartState;
    using geo::serve::PartitionSnapshot;

    geo::repart::ScenarioConfig cfg;
    cfg.kind = geo::repart::ScenarioKind::Advection;
    cfg.basePoints = 1600;
    cfg.drift = 0.05;
    cfg.seed = 11;
    geo::repart::Scenario<2> scenario(cfg);

    geo::core::Settings settings;
    settings.threads = 2;
    const std::int32_t k = 8;

    geo::binio::Writer w;
    auto dumpResult = [&w](const geo::core::GeographerResult& res) {
        w.u64(res.partition.size());
        w.vec(res.partition);
        w.f64(res.imbalance);
        w.u8(res.converged ? 1 : 0);
        w.vec(res.centerCoords);
        w.vec(res.influence);
        w.vec(res.assignmentInfluence);
        w.u64(res.runStats.totalBytes);
        w.u64(res.runStats.collectives);
        w.f64(res.runStats.maxModeledCommSeconds);
        for (const auto field : geo::core::kSummedCounters) w.u64(res.counters.*field);
        for (const auto field : geo::core::kMaxedCounters) w.u64(res.counters.*field);
        w.i32(res.counters.outerIterations);
        // Phase names only: the times are wall clock.
        w.u64(res.phaseSeconds.size());
        for (const auto& phase : res.phaseSeconds) {
            w.u64(phase.first.size());
            w.bytes(phase.first.data(), phase.first.size());
        }
    };

    RepartState<2> state;
    const geo::repart::RepartOptions opts;

    // Step 0: no carried state — the full cold pipeline.
    const auto step0 = geo::repart::repartitionGeographer<2>(
        std::span<const geo::Point2>(scenario.current().points),
        std::span<const double>(scenario.current().weights), k, ranks, settings,
        state, opts);
    w.u8(step0.warmStarted ? 1 : 0);
    dumpResult(step0.result);

    // Publish step 0 as the serving snapshot, then route step 1's points
    // through it — the stale-snapshot serving situation.
    geo::serve::Router<2> router(/*threads=*/2);
    router.publish(PartitionSnapshot<2>::fromResult(step0.result, /*version=*/1, ranks));

    scenario.advance();
    const auto& pts1 = scenario.current().points;
    std::vector<std::int32_t> routed(pts1.size());
    router.route(std::span<const geo::Point2>(pts1), std::span<std::int32_t>(routed));
    w.u64(routed.size());
    w.vec(routed);
    std::vector<std::int32_t> routedRanks(pts1.size());
    for (std::size_t i = 0; i < pts1.size(); ++i)
        routedRanks[i] = router.routeRank(pts1[i]);
    w.vec(routedRanks);

    // Step 1: repartition the moved points (warm whenever the probe allows).
    const auto step1 = geo::repart::repartitionGeographer<2>(
        std::span<const geo::Point2>(pts1),
        std::span<const double>(scenario.current().weights), k, ranks, settings,
        state, opts);
    w.u8(step1.warmStarted ? 1 : 0);
    dumpResult(step1.result);

    const auto mis = geo::serve::misrouteStats(
        std::span<const std::int32_t>(routed),
        std::span<const std::int32_t>(step1.result.partition));
    w.i64(mis.total);
    w.i64(mis.misrouted);

    // Distributed SpMV at the same width over the step-1 partition: halo
    // exchanges through alltoallv, figures reduced through Comm.
    const auto graph = geo::gen::delaunayTriangulate2d(pts1);
    const auto spmv = geo::spmv::runSpmvDistributed(graph, step1.result.partition, k, ranks,
                                                    /*iterations=*/5);
    w.u64(spmv.haloBytesPerIteration);
    w.i64(spmv.totalGhosts);
    w.f64(spmv.checksum);
    w.f64(spmv.commSecondsPerIteration);
    return std::move(w).take();
}

// ------------------------------------------------- worker entry points

int conformanceWorkerMain() {
    // Inside a geo_launch worker: the process transport must exist and be
    // cross-process — a silent simulator fallback would make the socket
    // conformance legs vacuous.
    const int ranks = geo::par::defaultRanks();
    Failures fails;
    bool sawCrossProcess = false;
    try {
        geo::par::runSpmd(ranks, [&](Comm& comm) {
            sawCrossProcess = comm.crossProcess();
            runBattery(comm, fails);
        });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[conformance] exception: %s\n", e.what());
        return 2;
    }
    if (!sawCrossProcess) {
        std::fprintf(stderr, "[conformance] expected a cross-process transport\n");
        return 3;
    }
    for (const auto& f : fails.all)
        std::fprintf(stderr, "[conformance] FAIL %s\n", f.c_str());
    return fails.all.empty() ? 0 : 1;
}

int pipelineWorkerMain(const char* outPath) {
    try {
        const auto bytes = runPipelineDump(geo::par::defaultRanks());
        // Guard against a silent simulator fallback, which would turn the
        // cross-backend comparison into sim-vs-sim.
        geo::par::Transport* transport = geo::par::processTransport();
        if (transport == nullptr || !transport->crossProcess()) {
            std::fprintf(stderr, "[pipeline] expected a cross-process transport\n");
            return 3;
        }
        // Every process assembles its own result, so every rank's dump is
        // compared against the simulator's.
        const std::string path = std::string(outPath) + "." + std::to_string(transport->rank());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out.good()) return 4;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[pipeline] exception: %s\n", e.what());
        return 2;
    }
    return 0;
}

// ------------------------------------------------- gtest: binio codec

namespace binio = geo::binio;

TEST(Binio, WriterReaderRoundTrip) {
    binio::Writer w;
    w.u8(7);
    w.u32(0xDEADBEEFu);
    w.u64(std::uint64_t{1} << 52);
    w.i32(-123);
    w.i64(-(std::int64_t{1} << 40));
    w.f64(0.1);
    const std::vector<double> values{1.5, -2.25, 1e300};
    w.u64(values.size());
    w.vec(values);
    const auto bytes = std::move(w).take();

    binio::Reader r(bytes);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), std::uint64_t{1} << 52);
    EXPECT_EQ(r.i32(), -123);
    EXPECT_EQ(r.i64(), -(std::int64_t{1} << 40));
    EXPECT_EQ(r.f64(), 0.1);
    const auto count = r.u64();
    EXPECT_EQ(r.vec<double>(count), values);
    EXPECT_TRUE(r.atEnd());
    EXPECT_NO_THROW(r.expectEnd("roundtrip"));
}

TEST(Binio, ReaderRejectsTruncation) {
    binio::Writer w;
    w.u32(42);
    const auto bytes = std::move(w).take();
    binio::Reader r(bytes);
    EXPECT_THROW((void)r.u64(), std::invalid_argument);  // only 4 bytes left
    EXPECT_EQ(r.u32(), 42u);                             // failed read consumed nothing
}

TEST(Binio, ReaderRejectsHostileCountBeforeAllocating) {
    // A forged count (~1e18 doubles) must throw on the bounds check, not
    // attempt an 8 EB allocation.
    binio::Writer w;
    w.u64(std::uint64_t{1} << 60);
    const auto bytes = std::move(w).take();
    binio::Reader r(bytes);
    const auto count = r.u64();
    EXPECT_THROW((void)r.vec<double>(count), std::invalid_argument);
}

TEST(Binio, ExpectEndRejectsTrailingBytes) {
    binio::Writer w;
    w.u32(1);
    w.u8(0);  // trailing garbage
    const auto bytes = std::move(w).take();
    binio::Reader r(bytes);
    (void)r.u32();
    EXPECT_THROW(r.expectEnd("payload"), std::invalid_argument);
}

TEST(Binio, ReadAllEnforcesCap) {
    const std::string payload(100, 'x');
    std::istringstream big(payload);
    EXPECT_THROW((void)binio::readAll(big, 10), std::invalid_argument);
    std::istringstream ok(payload);
    EXPECT_EQ(binio::readAll(ok, 1000).size(), payload.size());
}

// ------------------------------------------------- gtest: simulator oracle

class SimConformance : public ::testing::TestWithParam<int> {};

TEST_P(SimConformance, BatteryPasses) {
    Failures fails;
    geo::par::runSpmd(GetParam(), [&](Comm& comm) { runBattery(comm, fails); });
    for (const auto& f : fails.all) ADD_FAILURE() << f;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SimConformance,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------- gtest: socket backend

TEST(SocketConformance, TwoRanks) {
    EXPECT_EQ(runLaunch("-n 2 -- " + selfExe() + " --worker=conformance"), 0);
}

TEST(SocketConformance, ThreeRanks) {
    // Non-power-of-two exercises the ragged edges of the binomial trees.
    EXPECT_EQ(runLaunch("-n 3 -- " + selfExe() + " --worker=conformance"), 0);
}

TEST(SocketConformance, FourRanks) {
    EXPECT_EQ(runLaunch("-n 4 -- " + selfExe() + " --worker=conformance"), 0);
}

TEST(SocketConformance, TcpTwoRanks) {
    EXPECT_EQ(runLaunch("--transport tcp -n 2 -- " + selfExe() + " --worker=conformance"),
              0);
}

/// Two in-process ranks over a temporary Unix directory enter different
/// collectives: rank 0 allgatherv, rank 1 broadcast from itself. Rank 0
/// reads a broadcast frame where it expects a gather frame, which is the
/// peer's protocol error, not an internal invariant.
TEST(SocketTransport, DesyncedPeerRaisesProtocolError) {
    char dirTemplate[] = "/tmp/geo_desync_XXXXXX";
    const char* dir = ::mkdtemp(dirTemplate);
    ASSERT_NE(dir, nullptr);
    std::optional<geo::par::TransportError> caught;
    std::string otherError;
    // Rank 1 completes its broadcast, or sees rank 0 close the mesh.
    const auto runRank = [&](int rank) {
        try {
            geo::par::SocketConfig config;
            config.rank = rank;
            config.ranks = 2;
            config.dir = dir;
            geo::par::SocketTransport transport(config);
            std::array<std::byte, 8> buffer{};
            if (rank == 0) {
                (void)transport.allgatherv({buffer.data(), buffer.size()});
            } else {
                transport.broadcast(buffer.data(), buffer.size(), /*root=*/1);
            }
        } catch (const geo::par::TransportError& e) {
            if (rank == 0) caught = e;
        } catch (const std::exception& e) {
            if (rank == 0) otherError = e.what();
        }
    };
    std::thread rank1(runRank, 1);
    runRank(0);
    rank1.join();
    ::rmdir(dir);
    ASSERT_TRUE(caught.has_value()) << "rank 0 threw: " << otherError;
    EXPECT_EQ(caught->kind, geo::par::TransportErrorKind::Protocol) << caught->what();
    EXPECT_EQ(caught->peer, 1) << caught->what();
    EXPECT_EQ(caught->op, "allgatherv");
}

TEST(GeoLaunch, PropagatesWorkerExitCode) {
    EXPECT_EQ(runLaunch("-n 2 -- " + selfExe() + " --worker=exit7"), 7);
}

// --------------------------------------- gtest: bitwise pipeline acceptance

void comparePipelineAgainstSim(int ranks) {
    const auto simBytes = runPipelineDump(ranks);
    ASSERT_FALSE(simBytes.empty());

    const std::string out = "/tmp/geo_test_pipeline_" + std::to_string(::getpid()) +
                            "_" + std::to_string(ranks) + ".bin";
    auto rankPath = [&out](int rank) { return out + "." + std::to_string(rank); };
    for (int rank = 0; rank < ranks; ++rank) std::remove(rankPath(rank).c_str());
    ASSERT_EQ(runLaunch("-n " + std::to_string(ranks) + " -- " + selfExe() +
                        " --worker=pipeline " + out),
              0);

    for (int rank = 0; rank < ranks; ++rank) {
        const std::string path = rankPath(rank);
        std::ifstream in(path, std::ios::binary);
        if (!in.good()) {
            ADD_FAILURE() << "worker produced no dump at " << path;
            continue;
        }
        const auto socketBytes = binio::readAll(in, std::size_t{1} << 30);
        std::remove(path.c_str());
        EXPECT_TRUE(socketBytes == simBytes)
            << "socket rank " << rank << " diverged from the simulator at " << ranks
            << " ranks";
    }
}

TEST(PipelineBitwise, SimVsSocketTwoRanks) { comparePipelineAgainstSim(2); }

TEST(PipelineBitwise, SimVsSocketFourRanks) { comparePipelineAgainstSim(4); }

}  // namespace

int main(int argc, char** argv) {
    // Worker dispatch: geo_launch re-execs this binary with a --worker flag.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--worker=conformance") return conformanceWorkerMain();
        if (arg == "--worker=pipeline") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--worker=pipeline needs an output path\n");
                return 64;
            }
            return pipelineWorkerMain(argv[i + 1]);
        }
        if (arg == "--worker=exit7") return 7;
    }

    // gtest mode: scrub worker environment so the simulator legs cannot
    // accidentally pick up a socket transport from the caller's shell, and
    // the geo_launch children start from a clean slate.
    for (const char* var : {"GEO_RANK", "GEO_RANKS", "GEO_SOCKET_DIR", "GEO_PORT_BASE"})
        unsetenv(var);

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
