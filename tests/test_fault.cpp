// Fault-tolerance / chaos suite for the distributed runtime.
//
// Like test_transport, the binary is dual-purpose: with no --worker flag it
// is a normal gtest binary (fault-spec parsing, CRC, checkpoint codec,
// router degradation units, plus the multi-process chaos legs below); with
// a --worker flag it is the rank body those legs re-exec.
//
// The chaos legs deliberately do NOT go through geo_launch for the
// survivor-side assertions: the launcher's job is to tear survivors down on
// first failure, which would race the very typed TransportError the tests
// must observe. A mini-launcher here (runMesh) forks the socket mesh
// directly, injects GEO_FAULT into one rank, and asserts every survivor
// exits with the worker exit-code convention
//
//     42 + static_cast<int>(TransportError::kind)
//
// i.e. 42 = Timeout, 43 = PeerClosed, 44 = ConnectFailed, 45 = Protocol —
// and never a SIGPIPE/hang (the pre-fault-tolerance failure modes).
// geo_launch itself is exercised end-to-end for teardown and --restart
// recovery, and the checkpoint/resume leg proves a killed-and-resumed
// timeline reproduces the uninterrupted run bitwise.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/geographer.hpp"
#include "core/settings.hpp"
#include "par/comm.hpp"
#include "par/transport/transport.hpp"
#include "repart/repartition.hpp"
#include "repart/scenarios.hpp"
#include "scoped_env.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "support/binio.hpp"
#include "support/crc32.hpp"
#include "support/fault.hpp"

#ifndef GEO_LAUNCH_PATH
#error "GEO_LAUNCH_PATH must be defined to the geo_launch binary path"
#endif

namespace {

using geo::par::Comm;
using geo::par::TransportError;
using geo::par::TransportErrorKind;
using geo::support::FaultSpec;
using geo::test::ScopedEnv;

/// Worker exit-code convention: typed transport failures map to 42 + kind
/// so the parent can assert WHICH failure class a survivor saw.
constexpr int kExitTimeout = 42;
constexpr int kExitPeerClosed = 43;
constexpr int kExitConnectFailed = 44;

// ---------------------------------------------------------------- helpers

std::string selfExe() {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) return {};
    buf[n] = '\0';
    return std::string(buf);
}

int decodeStatus(int status) {
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return 255;
}

/// Run a shell command (inheriting this process's environment); returns the
/// exit code, 128+signal on abnormal termination.
int runCmd(const std::string& cmd) {
    const int rc = std::system(cmd.c_str());
    return rc == -1 ? -1 : decodeStatus(rc);
}

int runLaunch(const std::string& tail) {
    return runCmd(std::string(GEO_LAUNCH_PATH) + " " + tail);
}

double nowSeconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------- mini-launcher

struct MeshRun {
    std::vector<int> status;  ///< per spawned rank, decodeStatus encoding
    double elapsedSeconds = 0.0;
};

/// One environment variable a spawned rank gets; `rank` = -1 means every
/// rank.
struct RankEnv {
    std::string key;
    std::string value;
    int rank = -1;
};

/// Fork `spawn` ranks of a `mesh`-sized socket mesh running
/// `--worker=<worker>`, with `extraEnv` (e.g. GEO_FAULT) in the selected
/// ranks' environments. Unlike geo_launch this NEVER tears survivors down on
/// first failure — the point is to observe what the survivors do on their
/// own. Once `reapAfterExits` ranks have exited (or `deadlineSeconds`
/// passes) the stragglers are SIGKILLed, which is how the wedged-peer (drop)
/// rank gets reaped.
MeshRun runMesh(const std::string& worker, int spawn, int mesh,
                const std::vector<RankEnv>& extraEnv, double deadlineSeconds,
                int reapAfterExits = -1) {
    char dirTemplate[] = "/tmp/geo_fault_mesh_XXXXXX";
    const char* dir = ::mkdtemp(dirTemplate);
    MeshRun run;
    run.status.assign(static_cast<std::size_t>(spawn), -1);
    if (dir == nullptr) return run;

    const std::string exe = selfExe();
    const std::string workerArg = "--worker=" + worker;
    std::vector<pid_t> pids(static_cast<std::size_t>(spawn), -1);
    for (int r = 0; r < spawn; ++r) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::setenv("GEO_RANK", std::to_string(r).c_str(), 1);
            ::setenv("GEO_RANKS", std::to_string(mesh).c_str(), 1);
            ::setenv("GEO_SOCKET_DIR", dir, 1);
            for (const auto& var : extraEnv)
                if (var.rank < 0 || var.rank == r)
                    ::setenv(var.key.c_str(), var.value.c_str(), 1);
            ::execl(exe.c_str(), exe.c_str(), workerArg.c_str(),
                    static_cast<char*>(nullptr));
            ::_exit(127);
        }
        pids[static_cast<std::size_t>(r)] = pid;
    }

    const double start = nowSeconds();
    int exited = 0;
    while (exited < spawn) {
        const double elapsed = nowSeconds() - start;
        const bool reap = elapsed > deadlineSeconds ||
                          (reapAfterExits >= 0 && exited >= reapAfterExits);
        for (int r = 0; r < spawn; ++r) {
            auto& slot = run.status[static_cast<std::size_t>(r)];
            if (slot != -1) continue;
            if (reap) ::kill(pids[static_cast<std::size_t>(r)], SIGKILL);
            int st = 0;
            if (::waitpid(pids[static_cast<std::size_t>(r)], &st,
                          reap ? 0 : WNOHANG) == pids[static_cast<std::size_t>(r)]) {
                slot = decodeStatus(st);
                ++exited;
            }
        }
        if (exited < spawn) ::usleep(20 * 1000);
    }
    run.elapsedSeconds = nowSeconds() - start;
    (void)std::system(("rm -rf " + std::string(dir)).c_str());
    return run;
}

// ------------------------------------------------- worker entry points

/// Socket-mesh worker: loop collectives until GEO_FAULT takes a rank out;
/// survivors translate the typed failure into 42+kind.
int chaosCollectiveWorkerMain(bool alltoall) {
    const int ranks = geo::par::defaultRanks();
    bool cross = false;
    try {
        geo::par::runSpmd(ranks, [&](Comm& comm) {
            cross = comm.crossProcess();
            if (alltoall) {
                // Big per-pair payloads so a mid-collective peer death can
                // also surface on the SEND side (EPIPE, the old SIGPIPE
                // crash) rather than only as a recv EOF.
                const int p = comm.size();
                std::vector<std::vector<std::uint8_t>> sendTo(
                    static_cast<std::size_t>(p));
                for (int q = 0; q < p; ++q)
                    sendTo[static_cast<std::size_t>(q)].assign(
                        std::size_t{1} << 18,
                        static_cast<std::uint8_t>(comm.rank() * 16 + q));
                for (int round = 0; round < 6; ++round)
                    (void)comm.alltoallv(sendTo);
            } else {
                for (int round = 0; round < 10; ++round)
                    (void)comm.allreduceSum(std::int64_t{1});
            }
        });
    } catch (const TransportError& e) {
        std::fprintf(stderr, "[chaos] rank %s: %s\n", std::getenv("GEO_RANK"),
                     e.what());
        return 42 + static_cast<int>(e.kind);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[chaos] rank %s untyped: %s\n",
                     std::getenv("GEO_RANK"), e.what());
        return 2;
    }
    return cross ? 0 : 3;  // 3 = silent simulator fallback, test is vacuous
}

/// Handshake-only worker for the absent-rank leg: mesh construction itself
/// must fail typed, not hang.
int handshakeWorkerMain() {
    try {
        geo::par::runSpmd(geo::par::defaultRanks(),
                          [](Comm& comm) { comm.barrier(); });
    } catch (const TransportError& e) {
        std::fprintf(stderr, "[handshake] rank %s: %s\n",
                     std::getenv("GEO_RANK"), e.what());
        return 42 + static_cast<int>(e.kind);
    } catch (const std::exception&) {
        return 2;
    }
    return 0;
}

/// Application-level fault point then immediate success: the geo_launch
/// --restart legs pair this with a once=PATH fault.
int stepOnceWorkerMain() {
    geo::support::faultPoint("step", 0);
    return 0;
}

/// Fault point then a long sleep: proves geo_launch tears down survivors
/// after a rank death instead of waiting out the sleep.
int faultSleepWorkerMain() {
    geo::support::faultPoint("step", 0);
    ::sleep(60);
    return 0;
}

// ------------------------------------------------- timeline worker

/// Deterministic repartitioning timeline with per-step checkpoints: the
/// in-process (simulator) analogue of bench/repart_timeline's
/// --checkpoint/--resume path. Runs kTimelineSteps warm-started repartition
/// steps over an advection scenario, saving a checkpoint after every step
/// and running the application fault point faultPoint("step", t) before
/// each; at the end it dumps the final partition + warm state to `outPath`.
/// A run killed mid-timeline and resumed from its checkpoint must produce
/// a byte-identical dump.
constexpr int kTimelineSteps = 6;

geo::repart::RepartState<2> stateFromCheckpoint(const geo::core::CheckpointState& ck) {
    geo::repart::RepartState<2> state;
    state.centers = geo::core::unflattenCenters<2>(
        std::span<const double>(ck.centerCoords));
    state.influence = ck.influence;
    return state;
}

int timelineWorkerMain(const char* outPath, const char* ckptPath, bool resume) {
    try {
        geo::repart::ScenarioConfig cfg;
        cfg.kind = geo::repart::ScenarioKind::Advection;
        cfg.basePoints = 900;
        cfg.drift = 0.06;
        cfg.seed = 13;

        geo::core::Settings settings;
        settings.threads = 1;
        const std::int32_t k = 6;
        const int ranks = 2;

        geo::repart::RepartState<2> state;
        int startStep = 0;
        if (resume) {
            const auto ck = geo::core::loadCheckpoint(ckptPath);
            if (ck.dims != 2) return 5;
            if (ck.step > 0) state = stateFromCheckpoint(ck);
            startStep = static_cast<int>(ck.step);
        }

        geo::repart::Scenario<2> scenario(cfg);
        for (int t = 0; t < startStep; ++t) scenario.advance();

        geo::core::GeographerResult last;
        for (int t = startStep; t < kTimelineSteps; ++t) {
            geo::support::faultPoint("step", static_cast<std::uint64_t>(t));
            auto res = geo::repart::repartitionGeographer<2>(
                std::span<const geo::Point2>(scenario.current().points),
                std::span<const double>(scenario.current().weights), k, ranks,
                settings, state);
            last = std::move(res.result);

            geo::core::CheckpointState ck;
            ck.dims = 2;
            ck.phase = 0;
            ck.step = static_cast<std::uint64_t>(t) + 1;
            ck.influence = state.influence;
            ck.centerCoords.reserve(state.centers.size() * 2);
            for (const auto& c : state.centers) {
                ck.centerCoords.push_back(c[0]);
                ck.centerCoords.push_back(c[1]);
            }
            geo::core::saveCheckpoint(ckptPath, ck);

            if (t + 1 < kTimelineSteps) scenario.advance();
        }

        geo::binio::Writer w;
        w.u64(last.partition.size());
        w.vec(last.partition);
        w.vec(last.centerCoords);
        w.vec(last.influence);
        w.f64(last.imbalance);
        const auto bytes = std::move(w).take();
        std::ofstream out(outPath, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out.good()) return 4;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[timeline] exception: %s\n", e.what());
        return 2;
    }
    return 0;
}

std::vector<std::byte> readFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) return {};
    return geo::binio::readAll(in, std::size_t{1} << 30);
}

// ------------------------------------------------- gtest: fault specs

TEST(FaultSpec, EmptyAndAbsentAreNoFault) {
    EXPECT_FALSE(geo::support::parseFaultSpec(nullptr).has_value());
    EXPECT_FALSE(geo::support::parseFaultSpec("").has_value());
}

TEST(FaultSpec, ParsesActionsAndSelectors) {
    const auto kill = geo::support::parseFaultSpec("kill");
    ASSERT_TRUE(kill.has_value());
    EXPECT_EQ(kill->action, FaultSpec::Action::Kill);
    EXPECT_EQ(kill->rank, -1);
    EXPECT_TRUE(kill->op.empty());
    EXPECT_EQ(kill->seq, FaultSpec::kAnySeq);
    EXPECT_TRUE(kill->onceMarker.empty());

    const auto exit = geo::support::parseFaultSpec("exit:code=7:rank=2");
    ASSERT_TRUE(exit.has_value());
    EXPECT_EQ(exit->action, FaultSpec::Action::Exit);
    EXPECT_EQ(exit->exitCode, 7);
    EXPECT_EQ(exit->rank, 2);

    const auto delay = geo::support::parseFaultSpec("delay:ms=250:op=allreduce");
    ASSERT_TRUE(delay.has_value());
    EXPECT_EQ(delay->action, FaultSpec::Action::Delay);
    EXPECT_EQ(delay->delayMs, 250);
    EXPECT_EQ(delay->op, "allreduce");

    const auto drop =
        geo::support::parseFaultSpec("drop:seq=9:once=/tmp/marker");
    ASSERT_TRUE(drop.has_value());
    EXPECT_EQ(drop->action, FaultSpec::Action::Drop);
    EXPECT_EQ(drop->seq, 9u);
    EXPECT_EQ(drop->onceMarker, "/tmp/marker");
}

TEST(FaultSpec, RejectsMalformedSpecsLoudly) {
    EXPECT_THROW((void)geo::support::parseFaultSpec("explode"),
                 std::invalid_argument);
    EXPECT_THROW((void)geo::support::parseFaultSpec("kill:widget=1"),
                 std::invalid_argument);
    EXPECT_THROW((void)geo::support::parseFaultSpec("kill:rank=two"),
                 std::invalid_argument);
    EXPECT_THROW((void)geo::support::parseFaultSpec("kill:rank"),
                 std::invalid_argument);
    EXPECT_THROW((void)geo::support::parseFaultSpec("exit:code="),
                 std::invalid_argument);
}

// ------------------------------------------------- gtest: typed errors

TEST(TransportErrorType, CarriesTypedContextInWhat) {
    const TransportError e(TransportErrorKind::PeerClosed, 2, "allreduce", 7,
                           "peer closed connection (EOF)");
    EXPECT_EQ(e.kind, TransportErrorKind::PeerClosed);
    EXPECT_EQ(e.peer, 2);
    EXPECT_EQ(e.op, "allreduce");
    EXPECT_EQ(e.seq, 7u);
    const std::string what = e.what();
    EXPECT_NE(what.find("allreduce"), std::string::npos);
    EXPECT_NE(what.find(geo::par::toString(e.kind)), std::string::npos);
    EXPECT_NE(what.find("peer=2"), std::string::npos);
    EXPECT_NE(what.find("EOF"), std::string::npos);
}

TEST(TransportErrorType, KindNamesAreDistinct) {
    EXPECT_STRNE(geo::par::toString(TransportErrorKind::Timeout),
                 geo::par::toString(TransportErrorKind::PeerClosed));
    EXPECT_STRNE(geo::par::toString(TransportErrorKind::ConnectFailed),
                 geo::par::toString(TransportErrorKind::Protocol));
}

TEST(TransportErrorType, CommTimeoutResolution) {
    // GEO_COMM_TIMEOUT_MS (what geo_launch --comm-timeout-ms sets) is the
    // one way to set the socket deadline.
    EXPECT_EQ(geo::par::defaultCommTimeoutMs(), 30000);  // built-in default
    {
        const ScopedEnv env("GEO_COMM_TIMEOUT_MS", "250");
        EXPECT_EQ(geo::par::defaultCommTimeoutMs(), 250);
    }
    {
        const ScopedEnv env("GEO_COMM_TIMEOUT_MS", "0");
        EXPECT_EQ(geo::par::defaultCommTimeoutMs(), 0);  // 0 = disabled
    }
    {
        const ScopedEnv env("GEO_COMM_TIMEOUT_MS", "not-a-number");
        EXPECT_THROW((void)geo::par::defaultCommTimeoutMs(), std::invalid_argument);
    }
    EXPECT_EQ(geo::par::defaultConnectTimeoutMs(), 30000);
}

// ------------------------------------------------- gtest: crc32

TEST(Crc32, KnownAnswers) {
    // The standard IEEE 802.3 check value (zlib-compatible).
    EXPECT_EQ(geo::support::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(geo::support::crc32(nullptr, 0), 0u);
    // Sensitivity: one flipped bit changes the sum.
    const char a[] = "checkpoint";
    const char b[] = "checkpoin\x75";  // 't' ^ 0x01
    EXPECT_NE(geo::support::crc32(a, sizeof(a) - 1),
              geo::support::crc32(b, sizeof(b) - 1));
}

// ------------------------------------------------- gtest: checkpoint codec

geo::core::CheckpointState sampleCheckpoint() {
    geo::core::CheckpointState ck;
    ck.dims = 2;
    ck.phase = 3;
    ck.step = 17;
    ck.centerCoords = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    ck.influence = {1.0, 0.75, 1.25};
    return ck;
}

/// Decode and return the failure message ("" = decoded fine).
std::string decodeError(std::vector<std::byte> bytes) {
    try {
        (void)geo::core::decodeCheckpoint(bytes);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
    const auto ck = sampleCheckpoint();
    const auto decoded = geo::core::decodeCheckpoint(geo::core::encodeCheckpoint(ck));
    EXPECT_EQ(decoded.dims, ck.dims);
    EXPECT_EQ(decoded.phase, ck.phase);
    EXPECT_EQ(decoded.step, ck.step);
    EXPECT_EQ(decoded.centerCoords, ck.centerCoords);
    EXPECT_EQ(decoded.influence, ck.influence);
    EXPECT_EQ(decoded.k(), 3u);
}

TEST(Checkpoint, EncodeRejectsInconsistentState) {
    geo::core::CheckpointState bad = sampleCheckpoint();
    bad.dims = 0;
    EXPECT_THROW((void)geo::core::encodeCheckpoint(bad), std::invalid_argument);
    bad = sampleCheckpoint();
    bad.centerCoords.pop_back();  // no longer k * dims
    EXPECT_THROW((void)geo::core::encodeCheckpoint(bad), std::invalid_argument);
}

TEST(Checkpoint, DistinguishesCorruptionModes) {
    const auto good = geo::core::encodeCheckpoint(sampleCheckpoint());
    ASSERT_TRUE(decodeError(good).empty());

    // Not a checkpoint at all.
    auto badMagic = good;
    badMagic[0] ^= std::byte{0xFF};
    EXPECT_NE(decodeError(badMagic).find("magic"), std::string::npos);

    // Future format version.
    auto badVersion = good;
    badVersion[4] = std::byte{0x63};
    EXPECT_NE(decodeError(badVersion).find("version"), std::string::npos);

    // Torn writes: header-only and payload-short files.
    EXPECT_NE(decodeError({good.begin(), good.begin() + 8}).find("truncated"),
              std::string::npos);
    EXPECT_NE(decodeError({good.begin(), good.end() - 9}).find("truncated"),
              std::string::npos);

    // Bit rot in the payload must be a CRC failure, not a garbage decode.
    auto corrupt = good;
    corrupt[20] ^= std::byte{0x01};
    EXPECT_NE(decodeError(corrupt).find("CRC"), std::string::npos);

    // Trailing garbage after the CRC.
    auto trailing = good;
    trailing.push_back(std::byte{0});
    EXPECT_FALSE(decodeError(trailing).empty());
}

TEST(Checkpoint, SaveLoadRoundTripAndAtomicOverwrite) {
    const std::string path =
        "/tmp/geo_fault_ckpt_" + std::to_string(::getpid()) + ".ckpt";
    auto ck = sampleCheckpoint();
    geo::core::saveCheckpoint(path, ck);
    EXPECT_EQ(geo::core::loadCheckpoint(path).step, 17u);

    ck.step = 18;  // overwrite must atomically replace, not append/tear
    geo::core::saveCheckpoint(path, ck);
    const auto loaded = geo::core::loadCheckpoint(path);
    EXPECT_EQ(loaded.step, 18u);
    EXPECT_EQ(loaded.centerCoords, ck.centerCoords);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(Checkpoint, MissingFileThrowsRuntimeError) {
    EXPECT_THROW((void)geo::core::loadCheckpoint("/tmp/geo_fault_no_such_ckpt"),
                 std::runtime_error);
}

// ------------------------------------------------- gtest: router degradation

TEST(RouterDegradation, TryPublishFailureKeepsServingLastEpoch) {
    using geo::serve::PartitionSnapshot;
    const std::vector<geo::Point2> centers{{0.1, 0.1}, {0.9, 0.9}};
    const std::vector<double> ones(2, 1.0);

    geo::serve::Router<2> router(1);
    EXPECT_FALSE(router.health().servable());  // nothing published yet

    EXPECT_TRUE(router.tryPublish([&] {
        return PartitionSnapshot<2>::fromCenters(centers, ones, 1);
    }));
    EXPECT_EQ(router.epoch(), 1u);
    const geo::Point2 probe{0.12, 0.11};
    EXPECT_EQ(router.route(probe), 0);

    // A failing publish is recorded but must not disturb serving.
    EXPECT_FALSE(router.tryPublish([]() -> PartitionSnapshot<2> {
        throw std::runtime_error("injected publish failure");
    }));
    EXPECT_EQ(router.epoch(), 1u);
    EXPECT_EQ(router.route(probe), 0);
    auto health = router.health();
    EXPECT_TRUE(health.servable());
    EXPECT_EQ(health.failedPublishes, 1u);
    EXPECT_EQ(health.consecutiveFailures, 1u);
    EXPECT_NE(health.lastPublishError.find("injected"), std::string::npos);
    EXPECT_GE(health.epochAgeSeconds, 0.0);

    EXPECT_FALSE(router.tryPublish([]() -> PartitionSnapshot<2> {
        throw std::runtime_error("still failing");
    }));
    EXPECT_EQ(router.health().consecutiveFailures, 2u);

    // Recovery clears the consecutive streak but keeps the total.
    EXPECT_TRUE(router.tryPublish([&] {
        return PartitionSnapshot<2>::fromCenters(centers, ones, 2);
    }));
    EXPECT_EQ(router.epoch(), 2u);
    health = router.health();
    EXPECT_EQ(health.failedPublishes, 2u);
    EXPECT_EQ(health.consecutiveFailures, 0u);
    EXPECT_TRUE(health.lastPublishError.empty());
}

TEST(RouterDegradation, PoisonIsTheOnlyWayServingStops) {
    using geo::serve::PartitionSnapshot;
    const std::vector<geo::Point2> centers{{0.5, 0.5}};
    const std::vector<double> ones(1, 1.0);
    geo::serve::Router<2> router(1);
    router.publish(PartitionSnapshot<2>::fromCenters(centers, ones, 1));
    const geo::Point2 probe{0.4, 0.4};
    EXPECT_EQ(router.route(probe), 0);

    router.poison("operator drained this replica");
    const auto health = router.health();
    EXPECT_TRUE(health.poisoned);
    EXPECT_FALSE(health.servable());
    EXPECT_EQ(health.poisonReason, "operator drained this replica");
    try {
        (void)router.route(probe);
        FAIL() << "poisoned router must not answer";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("operator drained"),
                  std::string::npos);
    }
    std::vector<std::int32_t> blocks(1);
    EXPECT_THROW(router.route(std::span<const geo::Point2>(&probe, 1),
                              std::span<std::int32_t>(blocks)),
                 std::runtime_error);
    EXPECT_THROW((void)router.routeRank(probe), std::runtime_error);
}

// ------------------------------------------------- gtest: chaos meshes

TEST(Chaos, KillMidAllreduceSurvivorsSeePeerClosed) {
    const auto run = runMesh("chaos-allreduce", 3, 3,
                             {{"GEO_FAULT", "kill:rank=1:op=allreduce"}},
                             /*deadlineSeconds=*/60.0);
    EXPECT_EQ(run.status[1], 128 + SIGKILL);
    EXPECT_EQ(run.status[0], kExitPeerClosed) << "rank 0 saw no typed EOF";
    EXPECT_EQ(run.status[2], kExitPeerClosed) << "rank 2 saw no typed EOF";
}

TEST(Chaos, KillMidAlltoallvIsTypedNotSigpipe) {
    // Regression for the SIGPIPE hole: before MSG_NOSIGNAL a survivor
    // blocked in send() to the dead rank died of SIGPIPE (status 141)
    // instead of reporting a typed PeerClosed.
    const auto run = runMesh("chaos-alltoallv", 3, 3,
                             {{"GEO_FAULT", "kill:rank=2:op=alltoallv"}},
                             /*deadlineSeconds=*/60.0);
    EXPECT_EQ(run.status[2], 128 + SIGKILL);
    for (const int rank : {0, 1}) {
        EXPECT_NE(run.status[static_cast<std::size_t>(rank)], 128 + SIGPIPE)
            << "rank " << rank << " died of SIGPIPE";
        EXPECT_EQ(run.status[static_cast<std::size_t>(rank)], kExitPeerClosed);
    }
}

TEST(Chaos, DroppedPeerSurfacesAsDeadlineTimeout) {
    // drop wedges rank 1 without closing its sockets: survivors see
    // silence, not EOF, and must hit their inactivity deadlines. The
    // allreduce gathers to rank 0 and then broadcasts, so rank 2 waits on a
    // live rank 0 that is itself waiting on rank 1. Rank 2's deadline must
    // therefore expire well before rank 0's: were rank 0 to time out and
    // exit first, rank 2 would see its socket close (PeerClosed).
    const double longerDeadlineMs = 2250.0;
    const auto run = runMesh("chaos-allreduce", 3, 3,
                             {{"GEO_FAULT", "drop:rank=1:op=allreduce"},
                              {"GEO_COMM_TIMEOUT_MS", "2250", 0},
                              {"GEO_COMM_TIMEOUT_MS", "750", 2}},
                             /*deadlineSeconds=*/60.0, /*reapAfterExits=*/2);
    EXPECT_EQ(run.status[0], kExitTimeout);
    EXPECT_EQ(run.status[2], kExitTimeout);
    EXPECT_EQ(run.status[1], 128 + SIGKILL);  // the harness reaped the wedge
    // "Within 2× the deadline" plus mesh setup/exec slack on a loaded box.
    EXPECT_LT(run.elapsedSeconds, 2.0 * longerDeadlineMs / 1000.0 + 15.0);
}

TEST(Chaos, AbsentRankFailsHandshakeTyped) {
    // Spawn only 2 ranks of a 3-mesh: mesh construction must fail with a
    // typed Timeout (accept side) or ConnectFailed (dial side) within the
    // connect deadline — never hang.
    const auto run = runMesh("handshake", 2, 3,
                             {{"GEO_CONNECT_TIMEOUT_MS", "500"}},
                             /*deadlineSeconds=*/60.0);
    for (const int rank : {0, 1}) {
        const int st = run.status[static_cast<std::size_t>(rank)];
        EXPECT_TRUE(st == kExitTimeout || st == kExitConnectFailed)
            << "rank " << rank << " exited " << st;
    }
    EXPECT_LT(run.elapsedSeconds, 20.0);
}

// ------------------------------------------------- gtest: geo_launch

TEST(Supervision, TearsDownSurvivorsOnRankDeath) {
    // Rank 0 SIGKILLs itself at the fault point; rank 1 sleeps 60 s. The
    // launcher must SIGTERM/SIGKILL rank 1 and report the first failure
    // (128+SIGKILL) long before the sleep would end.
    const ScopedEnv fault("GEO_FAULT", "kill:rank=0:op=step");
    const double start = nowSeconds();
    EXPECT_EQ(runLaunch("--grace-ms 500 -n 2 -- " + selfExe() +
                        " --worker=faultsleep"),
              128 + SIGKILL);
    EXPECT_LT(nowSeconds() - start, 30.0);
}

TEST(Supervision, RestartRecoversFromOnceFault) {
    const std::string marker =
        "/tmp/geo_fault_once_" + std::to_string(::getpid()) + ".marker";
    std::remove(marker.c_str());
    const ScopedEnv fault("GEO_FAULT",
                          "exit:code=7:rank=1:op=step:once=" + marker);
    // Without --restart the one-shot failure is fatal...
    EXPECT_EQ(runLaunch("-n 2 -- " + selfExe() + " --worker=steponce"), 7);
    // ...and with it the second attempt (marker now claimed) succeeds.
    std::remove(marker.c_str());
    EXPECT_EQ(runLaunch("--restart 1 -n 2 -- " + selfExe() +
                        " --worker=steponce"),
              0);
    EXPECT_EQ(::access(marker.c_str(), F_OK), 0) << "once-marker not created";
    std::remove(marker.c_str());
}

// ------------------------------------------- gtest: checkpoint/restart

TEST(CheckpointRestart, KilledAndResumedTimelineIsBitwiseIdentical) {
    const std::string tag = std::to_string(::getpid());
    const std::string outClean = "/tmp/geo_fault_tl_clean_" + tag + ".dump";
    const std::string outFault = "/tmp/geo_fault_tl_fault_" + tag + ".dump";
    const std::string ckClean = "/tmp/geo_fault_tl_clean_" + tag + ".ckpt";
    const std::string ckFault = "/tmp/geo_fault_tl_fault_" + tag + ".ckpt";
    const std::string marker = "/tmp/geo_fault_tl_" + tag + ".marker";
    for (const auto& p : {outClean, outFault, ckClean, ckFault, marker})
        std::remove(p.c_str());

    const std::string exe = selfExe();
    // Uninterrupted reference run.
    ASSERT_EQ(runCmd(exe + " --worker=timeline " + outClean + " " + ckClean), 0);

    {
        // Kill the run at step 3 (steps 0-2 are checkpointed), then resume
        // from the checkpoint with the once-marker already claimed.
        const ScopedEnv fault("GEO_FAULT", "kill:op=step:seq=3:once=" + marker);
        ASSERT_EQ(runCmd(exe + " --worker=timeline " + outFault + " " + ckFault),
                  128 + SIGKILL);
        EXPECT_TRUE(readFile(outFault).empty()) << "dump written before the end";
        ASSERT_EQ(runCmd(exe + " --worker=timeline " + outFault + " " + ckFault +
                         " --resume"),
                  0);
    }

    const auto clean = readFile(outClean);
    const auto resumed = readFile(outFault);
    ASSERT_FALSE(clean.empty());
    ASSERT_EQ(resumed.size(), clean.size());
    EXPECT_EQ(std::memcmp(resumed.data(), clean.data(), clean.size()), 0)
        << "resumed timeline diverged from the uninterrupted run";

    // The resumed run must have actually resumed (checkpoint cursor says
    // step 3), not silently restarted from scratch.
    EXPECT_EQ(geo::core::loadCheckpoint(ckFault).step,
              static_cast<std::uint64_t>(kTimelineSteps));

    for (const auto& p : {outClean, outFault, ckClean, ckFault, marker})
        std::remove(p.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    // Worker dispatch: the mini-launcher / geo_launch re-exec this binary
    // with a --worker flag. Must run before InitGoogleTest.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--worker=chaos-allreduce")
            return chaosCollectiveWorkerMain(/*alltoall=*/false);
        if (arg == "--worker=chaos-alltoallv")
            return chaosCollectiveWorkerMain(/*alltoall=*/true);
        if (arg == "--worker=handshake") return handshakeWorkerMain();
        if (arg == "--worker=steponce") return stepOnceWorkerMain();
        if (arg == "--worker=faultsleep") return faultSleepWorkerMain();
        if (arg == "--worker=timeline") {
            if (i + 2 >= argc) {
                std::fprintf(stderr, "--worker=timeline needs OUT CKPT\n");
                return 64;
            }
            const bool resume =
                i + 3 < argc && std::strcmp(argv[i + 3], "--resume") == 0;
            return timelineWorkerMain(argv[i + 1], argv[i + 2], resume);
        }
    }

    // gtest mode: scrub the worker/fault environment so in-process legs
    // stay on the simulator and child meshes start from a clean slate.
    for (const char* var :
         {"GEO_RANK", "GEO_RANKS", "GEO_SOCKET_DIR", "GEO_PORT_BASE", "GEO_FAULT",
          "GEO_COMM_TIMEOUT_MS", "GEO_CONNECT_TIMEOUT_MS", "GEO_RESTART_ATTEMPT"})
        unsetenv(var);

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
