// Deterministic fault injection for the distributed runtime.
//
// A fault is declared once, in the environment, and fires at a named fault
// point — no randomness, so a chaos test that kills rank 2 at allreduce #7
// kills rank 2 at allreduce #7 on every run:
//
//     GEO_FAULT=kill:rank=2:op=allreduce:seq=7
//
// Spec grammar: `<action>[:key=value]...` with actions
//   * kill            — raise SIGKILL (a crash the peers see as EOF),
//   * exit[:code=N]   — _exit(N) (default 1; a clean-looking early death),
//   * delay[:ms=N]    — sleep N ms then continue (default 1000; skew/jitter),
//   * drop            — stop participating forever without closing sockets
//                       (a wedged peer / network partition: survivors must
//                       hit their DEADLINE, not an EOF).
// and selectors
//   * rank=R          — only this rank fires (default: every rank),
//   * op=NAME         — only fault points named NAME ("allreduce",
//                       "alltoallv", "barrier", "broadcast", "allgatherv",
//                       "handshake", or an application-level name — the
//                       timeline benches fire "step" per timestep, and the
//                       serving service fires "repart" at the top of every
//                       repartition-worker iteration and "publish" between
//                       the recompute and the epoch swap; default: any op),
//   * seq=N           — only the N-th occurrence as counted by the fault
//                       point's own sequence argument (default: any),
//   * once=PATH       — one-shot across process restarts: the fault fires
//                       only if PATH does not exist, and creates PATH just
//                       before firing. This is what lets a `geo_launch
//                       --restart` test fail the first attempt and succeed
//                       the second.
//
// Fault points live in the socket transport (every collective + the
// handshake) and can be added to application code (e.g. the timeline
// benches call faultPoint("step", t) per timestep). In-process backends
// (the thread simulator) deliberately have no fault points: killing a
// "rank" there would kill the whole test process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace geo::support {

/// Parsed GEO_FAULT specification. See the header comment for the grammar.
struct FaultSpec {
    enum class Action : std::uint8_t { Kill, Exit, Delay, Drop };

    Action action = Action::Kill;
    int rank = -1;               ///< -1 = any rank
    std::string op;              ///< empty = any op
    std::uint64_t seq = kAnySeq; ///< kAnySeq = any sequence number
    int exitCode = 1;            ///< exit: status
    int delayMs = 1000;          ///< delay: duration
    std::string onceMarker;      ///< non-empty = one-shot marker file path

    static constexpr std::uint64_t kAnySeq = ~std::uint64_t{0};
};

/// Parse a spec string. Returns std::nullopt for an empty/absent spec;
/// throws std::invalid_argument on a malformed one (unknown action or key,
/// a number that is not a decimal integer in its field's range: rank >= 0,
/// seq >= 0, code in [0, 255], ms in [0, 3600000]) — a typo in a chaos test
/// must fail loudly, not silently disable the fault.
[[nodiscard]] std::optional<FaultSpec> parseFaultSpec(const char* spec);

/// GEO_FAULT parsed under the support/env.hpp rule: std::nullopt when unset,
/// std::invalid_argument naming the variable when malformed, never cached.
[[nodiscard]] std::optional<FaultSpec> envFaultSpec();

/// Execute a fault point named `op` at sequence number `seq` on `rank`.
/// Matches against envFaultSpec(); no-op in the common case of no spec.
/// `rank` = -1 matches only rank-unselective specs.
void faultPoint(const char* op, std::uint64_t seq, int rank);

/// Convenience for application-level fault points: the rank is the
/// geo_launch worker's GEO_RANK (par::workerRank, -1 outside a worker).
void faultPoint(const char* op, std::uint64_t seq);

}  // namespace geo::support
