// geo_launch — SPMD process launcher and supervisor for the socket
// transport.
//
// Spawns N copies of a program, each as one rank of a socket-transport
// mesh, and supervises them:
//
//     geo_launch -n 4 -- ./example_quickstart
//     geo_launch -n 2 --transport tcp --port-base 24000 -- ./test_transport --worker=conformance
//     geo_launch -n 4 --restart 2 --comm-timeout-ms 5000 -- ./bench_repart_timeline ...
//
// Each worker gets GEO_RANK / GEO_RANKS plus exactly one rendezvous
// address: GEO_SOCKET_DIR for Unix-domain sockets (a fresh temp directory
// by default) or, with --transport tcp, GEO_PORT_BASE — the address
// variable tells the worker which family to use. Workers run completely
// unchanged SPMD entry points: the first Machine run inside each process
// joins the mesh via par::ensureWorkerTransport, and every run whose width
// equals the worker count runs on it.
//
// Supervision (DESIGN.md "Failure model & recovery"):
//   * SIGCHLD stays blocked and the supervisor sleeps in sigtimedwait
//     (50 ms heartbeat), so a dead rank is reaped the moment it dies, before
//     the peers it strands abort in turn. Every wakeup reaps every exited
//     rank, the one whose SIGCHLD woke it first, and reports each death the
//     launcher's own SIGTERM/SIGKILL did not cause (rank, pid, exit status
//     or signal name).
//   * One dead rank deadlocks the survivors mid-collective (their deadlines
//     would eventually fire, but there is nothing useful left to compute),
//     so the supervisor tears the mesh down: SIGTERM to every survivor, a
//     grace period (--grace-ms, default 2000), then SIGKILL, then reap.
//   * --restart N relaunches the whole fleet up to N times after a failed
//     attempt, with GEO_RESTART_ATTEMPT exported so workers (and fault
//     specs using once= markers) can tell attempts apart. Combined with
//     --resume on the benches this gives checkpoint/restart recovery.
//   * --comm-timeout-ms / --connect-timeout-ms forward deadlines to every
//     worker (GEO_COMM_TIMEOUT_MS / GEO_CONNECT_TIMEOUT_MS), so a wedged
//     peer turns into a typed TransportError instead of a hang.
//
// Exit status: 0 when every rank of some attempt exits 0; otherwise the
// first reaped failing rank's status of the last attempt (128+signal for
// signal deaths).
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s -n <ranks> [--transport socket|tcp] [--socket-dir DIR]\n"
                 "       [--port-base PORT] [--restart N] [--grace-ms MS]\n"
                 "       [--comm-timeout-ms MS] [--connect-timeout-ms MS]\n"
                 "       -- <program> [args...]\n",
                 argv0);
}

int parseInt(const char* s, const char* what) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (!end || *end != '\0' || v < 0) {
        std::fprintf(stderr, "geo_launch: bad %s '%s'\n", what, s);
        std::exit(2);
    }
    return static_cast<int>(v);
}

double monotonicSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Everything one launch attempt needs; immutable across attempts except
/// the attempt number (exported as GEO_RESTART_ATTEMPT).
struct LaunchPlan {
    int ranks = 0;
    bool tcp = false;
    std::string socketDir;
    int portBase = 0;
    int graceMs = 2000;
    char** cmd = nullptr;
    sigset_t workerMask{};  ///< the launcher's original mask, restored in each worker
};

/// Supervisor heartbeat: the longest sigtimedwait sleep.
constexpr double kHeartbeatSeconds = 0.05;

sigset_t childSignal() {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGCHLD);
    return set;
}

void describeExit(int rank, pid_t pid, int status) {
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        std::fprintf(stderr, "[geo-launch] rank %d (pid %d) killed by signal %d (%s)\n",
                     rank, static_cast<int>(pid), sig, strsignal(sig));
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "[geo-launch] rank %d (pid %d) exited with status %d\n",
                     rank, static_cast<int>(pid), WEXITSTATUS(status));
    }
}

int exitCode(int status) {
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return 1;
}

/// Run one fleet: fork/exec every rank, supervise, tear down on the first
/// failure. Returns 0 when all ranks exited 0, else the first failing
/// rank's exit code. SIGCHLD must be blocked (main does it).
int runAttempt(const LaunchPlan& plan, int attempt) {
    // Stale endpoints from a crashed previous attempt would make bind fail
    // or, worse, dial into a dead socket file.
    if (!plan.tcp)
        for (int r = 0; r < plan.ranks; ++r)
            unlink((plan.socketDir + "/geo." + std::to_string(r) + ".sock").c_str());

    std::vector<pid_t> pids(static_cast<std::size_t>(plan.ranks), -1);
    for (int r = 0; r < plan.ranks; ++r) {
        const pid_t pid = fork();
        if (pid < 0) {
            std::perror("geo_launch: fork");
            for (int k = 0; k < r; ++k) kill(pids[static_cast<std::size_t>(k)], SIGKILL);
            for (int k = 0; k < r; ++k)
                waitpid(pids[static_cast<std::size_t>(k)], nullptr, 0);
            return 1;
        }
        if (pid == 0) {
            sigprocmask(SIG_SETMASK, &plan.workerMask, nullptr);
            setenv("GEO_RANK", std::to_string(r).c_str(), 1);
            setenv("GEO_RANKS", std::to_string(plan.ranks).c_str(), 1);
            setenv("GEO_RESTART_ATTEMPT", std::to_string(attempt).c_str(), 1);
            if (plan.tcp) {
                setenv("GEO_PORT_BASE", std::to_string(plan.portBase).c_str(), 1);
                unsetenv("GEO_SOCKET_DIR");
            } else {
                setenv("GEO_SOCKET_DIR", plan.socketDir.c_str(), 1);
                unsetenv("GEO_PORT_BASE");
            }
            execvp(plan.cmd[0], plan.cmd);
            std::perror("geo_launch: exec");
            _exit(127);
        }
        pids[static_cast<std::size_t>(r)] = pid;
    }

    const auto rankOf = [&](pid_t pid) {
        for (int r = 0; r < plan.ranks; ++r)
            if (pids[static_cast<std::size_t>(r)] == pid) return r;
        return -1;
    };

    const sigset_t chld = childSignal();
    int failStatus = 0;
    int live = plan.ranks;
    std::vector<bool> alive(static_cast<std::size_t>(plan.ranks), true);
    bool termSent = false;
    bool killSent = false;
    double killAt = 0.0;  // SIGKILL deadline once teardown starts

    while (live > 0) {
        // Sleep until a rank dies, the heartbeat ends, or a pending
        // teardown's grace period runs out.
        double wait = kHeartbeatSeconds;
        if (termSent && !killSent)
            wait = std::max(0.0, std::min(wait, killAt - monotonicSeconds()));
        timespec timeout{};
        timeout.tv_nsec = static_cast<long>(wait * 1e9);
        siginfo_t info{};
        const int sig = sigtimedwait(&chld, &info, &timeout);

        // Reap every exited rank. The one whose SIGCHLD woke us died first:
        // reap it before the rest, which waitpid(-1) returns in fork order.
        std::vector<std::pair<pid_t, int>> dead;
        int status = 0;
        if (sig == SIGCHLD && info.si_pid > 0 &&
            waitpid(info.si_pid, &status, WNOHANG) == info.si_pid)
            dead.emplace_back(info.si_pid, status);
        bool noChildren = false;
        for (;;) {
            const pid_t pid = waitpid(-1, &status, WNOHANG);
            if (pid > 0) {
                dead.emplace_back(pid, status);
            } else if (pid < 0 && errno == EINTR) {
                continue;
            } else {
                // 0: the rest still run; ECHILD: nothing left to reap
                // (should not happen while live > 0).
                noChildren = pid < 0;
                break;
            }
        }

        for (const auto& [pid, st] : dead) {
            const int rank = rankOf(pid);
            if (rank >= 0) alive[static_cast<std::size_t>(rank)] = false;
            --live;
            const int rc = exitCode(st);
            if (rc == 0) continue;
            // Deaths by the teardown's own signals are expected; every
            // other failure is the fleet's, whenever it happens.
            const bool ours = WIFSIGNALED(st) &&
                              ((termSent && WTERMSIG(st) == SIGTERM) ||
                               (killSent && WTERMSIG(st) == SIGKILL));
            if (!ours) describeExit(rank, pid, st);
            if (failStatus == 0) failStatus = rc;
        }
        if (noChildren) break;

        if (failStatus != 0 && !termSent) {
            // One dead rank deadlocks the rest mid-collective: take the
            // whole job down gracefully and report the original failure.
            int survivors = 0;
            for (int r = 0; r < plan.ranks; ++r)
                if (alive[static_cast<std::size_t>(r)]) {
                    kill(pids[static_cast<std::size_t>(r)], SIGTERM);
                    ++survivors;
                }
            if (survivors > 0)
                std::fprintf(stderr,
                             "[geo-launch] tearing down %d survivor(s), grace %d ms\n",
                             survivors, plan.graceMs);
            termSent = true;
            killAt = monotonicSeconds() + plan.graceMs * 1e-3;
        } else if (termSent && !killSent && monotonicSeconds() >= killAt) {
            for (int r = 0; r < plan.ranks; ++r)
                if (alive[static_cast<std::size_t>(r)])
                    kill(pids[static_cast<std::size_t>(r)], SIGKILL);
            killSent = true;
        }
    }
    return failStatus;
}

}  // namespace

int main(int argc, char** argv) {
    int ranks = 0;
    bool tcp = false;
    std::string socketDir;
    int portBase = 0;
    int restart = 0;
    int graceMs = 2000;
    int commTimeout = -1;
    int connectTimeout = -1;
    int cmdStart = -1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--") {
            cmdStart = i + 1;
            break;
        }
        if (arg == "-n" || arg == "--ranks") {
            if (++i >= argc) { usage(argv[0]); return 2; }
            ranks = parseInt(argv[i], "rank count");
        } else if (arg == "--transport") {
            if (++i >= argc) { usage(argv[0]); return 2; }
            const std::string kind = argv[i];
            if (kind == "tcp") {
                tcp = true;
            } else if (kind == "socket" || kind == "unix") {
                tcp = false;
            } else {
                std::fprintf(stderr, "geo_launch: unknown transport '%s'\n",
                             kind.c_str());
                return 2;
            }
        } else if (arg == "--socket-dir") {
            if (++i >= argc) { usage(argv[0]); return 2; }
            socketDir = argv[i];
        } else if (arg == "--port-base") {
            if (++i >= argc) { usage(argv[0]); return 2; }
            portBase = parseInt(argv[i], "port base");
        } else if (arg == "--restart") {
            if (++i >= argc) { usage(argv[0]); return 2; }
            restart = parseInt(argv[i], "restart count");
        } else if (arg == "--grace-ms") {
            if (++i >= argc) { usage(argv[0]); return 2; }
            graceMs = parseInt(argv[i], "grace period");
        } else if (arg == "--comm-timeout-ms") {
            if (++i >= argc) { usage(argv[0]); return 2; }
            commTimeout = parseInt(argv[i], "comm timeout");
        } else if (arg == "--connect-timeout-ms") {
            if (++i >= argc) { usage(argv[0]); return 2; }
            connectTimeout = parseInt(argv[i], "connect timeout");
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (ranks < 1 || cmdStart < 0 || cmdStart >= argc) {
        usage(argv[0]);
        return 2;
    }

    bool ownDir = false;
    if (tcp) {
        if (portBase <= 0) {
            // Derive a per-launch port range from the pid so concurrent
            // launches on one host don't collide; +ranks must stay < 65536.
            portBase = 20000 + static_cast<int>(getpid()) % 30000;
        }
        if (portBase + ranks > 65535) {
            std::fprintf(stderr, "geo_launch: port range overflows\n");
            return 2;
        }
    } else if (socketDir.empty()) {
        const char* tmp = std::getenv("TMPDIR");
        std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") + "/geo_launch.XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!mkdtemp(buf.data())) {
            std::perror("geo_launch: mkdtemp");
            return 1;
        }
        socketDir = buf.data();
        ownDir = true;
    }

    // Deadlines travel by environment so the workers' transport picks them
    // up without any per-program flag plumbing (children inherit these).
    if (commTimeout >= 0)
        setenv("GEO_COMM_TIMEOUT_MS", std::to_string(commTimeout).c_str(), 1);
    if (connectTimeout >= 0)
        setenv("GEO_CONNECT_TIMEOUT_MS", std::to_string(connectTimeout).c_str(), 1);

    LaunchPlan plan;
    plan.ranks = ranks;
    plan.tcp = tcp;
    plan.socketDir = socketDir;
    plan.portBase = portBase;
    plan.graceMs = graceMs;
    plan.cmd = argv + cmdStart;
    // SIGCHLD stays blocked for the launcher's lifetime so the supervisor
    // can wait for it in sigtimedwait; each worker gets the original mask
    // back before exec.
    const sigset_t chld = childSignal();
    sigprocmask(SIG_BLOCK, &chld, &plan.workerMask);

    int failStatus = 0;
    for (int attempt = 0; attempt <= restart; ++attempt) {
        failStatus = runAttempt(plan, attempt);
        if (failStatus == 0) break;
        if (attempt < restart)
            std::fprintf(stderr,
                         "[geo-launch] attempt %d failed (status %d); restarting "
                         "(%d attempt(s) left)\n",
                         attempt, failStatus, restart - attempt);
    }

    if (ownDir) {
        for (int r = 0; r < ranks; ++r)
            unlink((socketDir + "/geo." + std::to_string(r) + ".sock").c_str());
        rmdir(socketDir.c_str());
    }
    return failStatus;
}
