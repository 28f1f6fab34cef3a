// Abstract transport: the collective set par::Comm exposes, as an interface.
//
// `Comm` carries the typed, stats-accounted API the algorithms program
// against (barrier, allreduce sum/min/max, broadcast, allgather(v),
// alltoallv, exscan). A Transport is the byte-level engine underneath it,
// selected at runtime:
//
//   * SimTransport (sim.hpp)    — the original in-process thread-SPMD
//     simulator: ranks are threads, collectives move bytes through shared
//     slots around a central barrier. Deterministic test backend.
//   * SocketTransport (socket.hpp) — real multi-process backend: ranks are
//     OS processes connected by a Unix-domain or TCP socket mesh speaking a
//     length-prefixed frame protocol. Launched by tools/geo_launch.
//
// The determinism contract both backends must honor (and the conformance
// suite in tests/test_transport.cpp enforces): reductions fold elementwise
// in STRICT RANK ORDER 0..p-1, and v-collectives concatenate contributions
// in rank order. Floating-point collective results are therefore bitwise
// identical across backends, which is what lets a partition computed over
// sockets reproduce the simulator's partition exactly.
//
// Typed reduction lives here (DType + reduceInPlace) rather than in the
// backends so both fold with the very same code path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace geo::par {

/// Failure classes a transport operation can surface. Every blocking socket
/// operation is deadline-bounded (GEO_COMM_TIMEOUT_MS), so a dead or
/// wedged peer produces one of these instead of an indefinite hang:
///   * Timeout       — the deadline expired with no progress (wedged peer,
///     network partition, absent rank at handshake time).
///   * PeerClosed    — the peer's socket closed under us (EOF, ECONNRESET,
///     EPIPE): the peer process died or tore down its mesh.
///   * ConnectFailed — the bounded-retry dial loop could not reach the
///     peer's endpoint before the connect deadline.
///   * Protocol      — the peer is alive but sent garbage (bad magic,
///     desynchronized collective tag, oversized frame).
enum class TransportErrorKind : std::uint8_t {
    Timeout,
    PeerClosed,
    ConnectFailed,
    Protocol,
};

[[nodiscard]] const char* toString(TransportErrorKind kind) noexcept;

/// Typed failure of a transport operation: which peer, during which
/// collective (op + transport sequence number), and why. Derives from
/// std::runtime_error so existing catch sites keep working; new code can
/// catch TransportError specifically and switch on `kind` (retry, restart,
/// degrade). Thrown instead of hanging or aborting — the supervision layer
/// (tools/geo_launch) turns the resulting worker exit into a fleet
/// teardown/restart decision.
class TransportError : public std::runtime_error {
public:
    TransportError(TransportErrorKind kind, int peer, std::string op,
                   std::uint32_t seq, const std::string& detail);

    TransportErrorKind kind;  ///< failure class
    int peer;                 ///< peer rank involved (-1 when not peer-specific)
    std::string op;           ///< collective/operation name ("allreduce", ...)
    std::uint32_t seq;        ///< transport collective sequence number
};

/// GEO_COMM_TIMEOUT_MS: deadline in milliseconds for every blocking
/// socket-transport operation, in [0, 86400000]; 30000 when unset. 0
/// disables the deadline (pre-fault-tolerance blocking behavior). Read under
/// the support/env.hpp rule, like every GEO_* accessor below: uncached, and
/// a malformed value throws std::invalid_argument.
[[nodiscard]] int defaultCommTimeoutMs();

/// GEO_CONNECT_TIMEOUT_MS: deadline for mesh construction (dial retries +
/// handshake accepts), same range and default.
[[nodiscard]] int defaultConnectTimeoutMs();

/// Which transport a Machine run should use. Auto defers to the
/// GEO_TRANSPORT environment variable (unset → Sim). Socket/Tcp are the
/// same backend over different address families; both require the process
/// to have been launched as a geo_launch worker (GEO_RANK/GEO_RANKS set) —
/// outside a worker, Machine falls back to the simulator.
enum class TransportKind : std::uint8_t { Auto, Sim, Socket, Tcp };

/// Parse a GEO_TRANSPORT value ("sim", "socket", "tcp"); throws
/// std::invalid_argument on anything else.
[[nodiscard]] TransportKind parseTransportKind(std::string_view name);
[[nodiscard]] const char* transportKindName(TransportKind kind) noexcept;

/// GEO_TRANSPORT: the parsed value, Sim when unset.
[[nodiscard]] TransportKind envTransportKind();

/// GEO_RANKS: the SPMD rank count, in [1, 1024]; 1 when unset.
[[nodiscard]] int defaultRanks();

/// GEO_RANK: this process's rank in a geo_launch mesh, in [0, GEO_RANKS);
/// -1 when unset (the process is not a worker).
[[nodiscard]] int workerRank();

/// Element types a typed reduction can fold. Deliberately a closed set:
/// both backends must reduce with identical semantics, so every type is
/// spelled out once in reduceInPlace's dispatch.
enum class DType : std::uint8_t { U8, I32, U32, I64, U64, F32, F64 };

enum class ReduceOp : std::uint8_t { Sum, Min, Max };

[[nodiscard]] std::size_t dtypeSize(DType type) noexcept;

/// acc[i] = op(acc[i], other[i]) for count elements of `type`. The ONLY
/// reduction kernel in the system: the simulator folds published slots with
/// it and the socket backend folds gathered buffers with it, in the same
/// rank order, so results agree bitwise.
void reduceInPlace(DType type, ReduceOp op, void* acc, const void* other,
                   std::size_t count);

/// C++ type → DType. Unspecialized use is a compile error: transporting a
/// new element type through a reduction must be a conscious decision.
template <typename T>
struct DTypeOf;
template <> struct DTypeOf<std::uint8_t> { static constexpr DType value = DType::U8; };
template <> struct DTypeOf<std::int32_t> { static constexpr DType value = DType::I32; };
template <> struct DTypeOf<std::uint32_t> { static constexpr DType value = DType::U32; };
template <> struct DTypeOf<std::int64_t> { static constexpr DType value = DType::I64; };
template <> struct DTypeOf<std::uint64_t> { static constexpr DType value = DType::U64; };
template <> struct DTypeOf<float> { static constexpr DType value = DType::F32; };
template <> struct DTypeOf<double> { static constexpr DType value = DType::F64; };

/// Borrowed byte buffer handed to a transport (never owning).
struct ConstBuf {
    const void* data = nullptr;
    std::size_t bytes = 0;
};

/// The byte-level collective engine. All calls are collective: every rank
/// of the transport must enter them in the same order with compatible
/// arguments (the MPI contract). Implementations may assume size() >= 2 for
/// the data-moving calls — Comm short-circuits single-rank communicators —
/// but must stay correct (no-op) at size() == 1 anyway.
class Transport {
public:
    virtual ~Transport() = default;

    [[nodiscard]] virtual int rank() const noexcept = 0;
    [[nodiscard]] virtual int size() const noexcept = 0;
    /// Backend name for reports and bench JSON: "sim", "socket", "tcp".
    [[nodiscard]] virtual const char* name() const noexcept = 0;
    /// True when ranks are separate OS processes (no shared memory): the
    /// signal for entry points to replicate root-assembled results.
    [[nodiscard]] virtual bool crossProcess() const noexcept = 0;

    virtual void barrier() = 0;

    /// In-place elementwise reduction folded in rank order 0..p-1.
    virtual void allreduce(void* inout, std::size_t count, DType type,
                           ReduceOp op) = 0;

    /// Root's buffer replaces everyone's; all ranks pass `bytes` equal.
    virtual void broadcast(void* data, std::size_t bytes, int root) = 0;

    /// Concatenation of all ranks' buffers in rank order, on every rank.
    [[nodiscard]] virtual std::vector<std::byte> allgatherv(ConstBuf mine) = 0;

    /// Personalized all-to-all: sendTo[r] is this rank's message for rank r
    /// (sendTo.size() == size()); returns the concatenation, in sender rank
    /// order, of what every rank sent to this one.
    [[nodiscard]] virtual std::vector<std::byte> alltoallv(
        std::span<const ConstBuf> sendTo) = 0;

    /// Exclusive prefix sum over ranks of one element of `type` (rank 0
    /// receives the zero value). Default implementation gathers every
    /// rank's element and folds [0, rank) in rank order — backends may
    /// override with something smarter but must keep that fold order.
    virtual void exscanSum(void* inout, DType type);
};

/// Process-wide transport registry. A geo_launch worker installs its
/// SocketTransport here at startup (setProcessTransport); Machine runs with
/// kind Socket/Tcp claim it for the duration of one SPMD run. The lease is
/// exclusive — a nested Machine run inside an SPMD body (hier's per-node
/// sub-partitions, single-rank helpers) finds the transport busy and falls
/// back to the in-process simulator, which is exactly the desired
/// redundant-but-deterministic behavior for sub-communicators.
void setProcessTransport(Transport* transport) noexcept;
[[nodiscard]] Transport* processTransport() noexcept;

/// Claim the process transport for one run. Returns nullptr (and claims
/// nothing) when no transport is installed, it is already leased, or its
/// size differs from `ranks` — all the cases where the caller must fall
/// back to the simulator.
[[nodiscard]] Transport* acquireProcessTransport(int ranks) noexcept;
void releaseProcessTransport() noexcept;

}  // namespace geo::par
