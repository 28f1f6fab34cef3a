// Typed SPMD communicator over a pluggable transport.
//
// This substitutes for MPI on SuperMUC (see DESIGN.md §2). Every logical
// rank runs the same SPMD function a real MPI rank would run, against a
// `Comm` handle providing the collectives Geographer needs: barrier,
// allreduce (sum/min/max), broadcast, allgather(v), alltoallv, exscan.
//
// Comm is the typed, stats-accounted face; the byte moving underneath is a
// `Transport` (par/transport/transport.hpp) chosen per Machine run from how
// the process was launched: the multi-process socket backend of a
// geo_launch worker, or the in-process thread-SPMD simulator (ranks are
// threads) everywhere else. Algorithms never see the difference: collective
// semantics match MPI, reductions fold in rank order 0..p-1 on every
// backend, and CommStats are computed HERE from logical payload sizes and
// the CostModel, so bytes/rounds/modeled-seconds are identical no matter
// which backend carried the bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "par/cost_model.hpp"
#include "par/transport/transport.hpp"
#include "support/assert.hpp"

namespace geo::par {

/// Contiguous balanced block distribution of n items over p ranks: rank r
/// owns [n·r/p, n·(r+1)/p). The single source of truth for how inputs are
/// sliced onto ranks; repart::ownerRank is its exact inverse.
struct BlockRange {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};
[[nodiscard]] constexpr BlockRange blockRange(std::int64_t n, int rank,
                                              int size) noexcept {
    return {n * rank / size, n * (rank + 1) / size};
}

/// Materialized owner map of blockRange: the rank owning each of n items.
/// Shared by hier::Topology::leafRankMap and the serving snapshots' block →
/// rank maps, so the two can never disagree on the split convention.
[[nodiscard]] inline std::vector<std::int32_t> blockRankMap(std::int64_t n, int size) {
    GEO_REQUIRE(size >= 1, "need at least one rank");
    std::vector<std::int32_t> map(static_cast<std::size_t>(n), 0);
    for (int r = 0; r < size; ++r) {
        const auto [lo, hi] = blockRange(n, r, size);
        for (std::int64_t i = lo; i < hi; ++i)
            map[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(r);
    }
    return map;
}

/// Per-rank communication statistics accumulated by the runtime.
struct CommStats {
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t collectives = 0;
    double modeledCommSeconds = 0.0;
};

/// Aggregate over all ranks of one SPMD run.
struct RunStats {
    double maxCpuSeconds = 0.0;       ///< slowest rank's on-CPU compute time
    double maxModeledCommSeconds = 0; ///< slowest rank's modeled comm time
    std::uint64_t totalBytes = 0;     ///< sum of bytes sent by all ranks
    std::uint64_t collectives = 0;    ///< collectives per rank (same on all)
    const char* transport = "sim";    ///< backend that carried the run (Transport::name)

    /// Modeled parallel makespan: slowest compute + slowest communication.
    [[nodiscard]] double modeledSeconds() const noexcept {
        return maxCpuSeconds + maxModeledCommSeconds;
    }
};

namespace detail {

double threadCpuSeconds() noexcept;

}  // namespace detail

/// Communicator handle owned by one logical rank inside an SPMD region.
/// Thin typed wrapper over a Transport plus uniform stats accounting.
class Comm {
public:
    Comm(Transport& transport, const CostModel& cost, CommStats& stats)
        : transport_(&transport), cost_(&cost), stats_(&stats) {}

    [[nodiscard]] int rank() const noexcept { return transport_->rank(); }
    [[nodiscard]] int size() const noexcept { return transport_->size(); }
    [[nodiscard]] bool isRoot() const noexcept { return rank() == 0; }

    /// True when every rank is its own process (no shared memory between
    /// ranks): entry points then fill a result object on every rank instead
    /// of on the root alone.
    [[nodiscard]] bool crossProcess() const noexcept { return transport_->crossProcess(); }

    void barrier() { transport_->barrier(); }

    /// Element-wise sum-allreduce of a vector, in place (MPI_Allreduce SUM).
    template <typename T>
    void allreduceSum(std::span<T> inout) { allreduceImpl(inout, ReduceOp::Sum); }

    /// Element-wise min / max allreduce, in place.
    template <typename T>
    void allreduceMin(std::span<T> inout) { allreduceImpl(inout, ReduceOp::Min); }
    template <typename T>
    void allreduceMax(std::span<T> inout) { allreduceImpl(inout, ReduceOp::Max); }

    /// Scalar conveniences.
    template <typename T>
    [[nodiscard]] T allreduceSum(T v) {
        allreduceSum(std::span<T>(&v, 1));
        return v;
    }
    template <typename T>
    [[nodiscard]] T allreduceMin(T v) {
        allreduceMin(std::span<T>(&v, 1));
        return v;
    }
    template <typename T>
    [[nodiscard]] T allreduceMax(T v) {
        allreduceMax(std::span<T>(&v, 1));
        return v;
    }

    /// Broadcast root's buffer to everyone. All ranks pass equally-sized
    /// buffers (MPI_Bcast).
    template <typename T>
    void broadcast(std::span<T> data, int root = 0) {
        static_assert(std::is_trivially_copyable_v<T>);
        if (size() == 1) return;
        const std::size_t bytes = data.size() * sizeof(T);
        transport_->broadcast(data.data(), bytes, root);
        account(rank() == root ? bytes : 0, rank() == root ? 0 : bytes,
                cost_->broadcast(size(), bytes));
    }

    /// Gather one value from each rank; every rank receives the full vector
    /// ordered by rank (MPI_Allgather).
    template <typename T>
    [[nodiscard]] std::vector<T> allgather(const T& mine) {
        std::vector<T> local(1, mine);
        return allgatherv(std::span<const T>(local));
    }

    /// Variable-size allgather: concatenation of all ranks' spans in rank
    /// order (MPI_Allgatherv).
    template <typename T>
    [[nodiscard]] std::vector<T> allgatherv(std::span<const T> mine) {
        static_assert(std::is_trivially_copyable_v<T>);
        if (size() == 1) return std::vector<T>(mine.begin(), mine.end());
        const std::size_t mineBytes = mine.size() * sizeof(T);
        const std::vector<std::byte> raw =
            transport_->allgatherv(ConstBuf{mine.data(), mineBytes});
        GEO_CHECK(raw.size() % sizeof(T) == 0,
                  "allgatherv returned a partial element");
        std::vector<T> out(raw.size() / sizeof(T));
        if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
        account(mineBytes, raw.size() - mineBytes,
                cost_->allgather(size(), raw.size()));
        return out;
    }

    /// Personalized all-to-all: sendTo[r] is this rank's message for rank r;
    /// the result concatenates, in rank order, what every rank sent to this
    /// one (MPI_Alltoallv).
    template <typename T>
    [[nodiscard]] std::vector<T> alltoallv(const std::vector<std::vector<T>>& sendTo) {
        static_assert(std::is_trivially_copyable_v<T>);
        GEO_REQUIRE(static_cast<int>(sendTo.size()) == size(),
                    "alltoallv needs one bucket per rank");
        if (size() == 1) return sendTo[0];
        std::vector<ConstBuf> bufs(sendTo.size());
        for (std::size_t r = 0; r < sendTo.size(); ++r)
            bufs[r] = ConstBuf{sendTo[r].data(), sendTo[r].size() * sizeof(T)};
        const std::vector<std::byte> raw = transport_->alltoallv(bufs);
        GEO_CHECK(raw.size() % sizeof(T) == 0,
                  "alltoallv returned a partial element");
        std::vector<T> out(raw.size() / sizeof(T));
        if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
        std::size_t sent = 0;
        for (int r = 0; r < size(); ++r)
            if (r != rank()) sent += sendTo[static_cast<std::size_t>(r)].size() * sizeof(T);
        const std::size_t selfBytes = sendTo[static_cast<std::size_t>(rank())].size() * sizeof(T);
        const std::size_t received = raw.size() - selfBytes;
        account(sent, received, cost_->alltoallv(size(), sent, received));
        return out;
    }

    /// Exclusive prefix sum over ranks (MPI_Exscan); rank 0 receives 0.
    /// Accounted as the one-element allgather it is implemented with, so
    /// stats match the pre-transport runtime exactly.
    template <typename T>
    [[nodiscard]] T exscanSum(const T& mine) {
        if (size() == 1) return T{};
        T v = mine;
        transport_->exscanSum(&v, DTypeOf<T>::value);
        const std::size_t total = static_cast<std::size_t>(size()) * sizeof(T);
        account(sizeof(T), total - sizeof(T), cost_->allgather(size(), total));
        return v;
    }

    [[nodiscard]] const CommStats& stats() const noexcept { return *stats_; }
    void resetStats() noexcept { *stats_ = CommStats{}; }

    /// On-CPU time consumed by this rank so far (excludes time blocked in
    /// barriers) — the stand-in for per-rank compute wall time on a
    /// dedicated core. Per-thread in the simulator, per-process over
    /// sockets; identical meaning either way.
    [[nodiscard]] double cpuSeconds() const noexcept { return detail::threadCpuSeconds(); }

private:
    template <typename T>
    void allreduceImpl(std::span<T> inout, ReduceOp op) {
        static_assert(std::is_trivially_copyable_v<T>);
        if (size() == 1) return;
        transport_->allreduce(inout.data(), inout.size(), DTypeOf<T>::value, op);
        const std::size_t bytes = inout.size() * sizeof(T);
        account(bytes, bytes, cost_->allreduce(size(), bytes));
    }

    void account(std::size_t sent, std::size_t received, double modeledSeconds) noexcept {
        stats_->bytesSent += sent;
        stats_->bytesReceived += received;
        stats_->collectives += 1;
        stats_->modeledCommSeconds += modeledSeconds;
    }

    Transport* transport_;
    const CostModel* cost_;
    CommStats* stats_;
};

/// Whether this rank fills the result object of its SPMD run. On the
/// simulator all rank threads share one result object and rank 0 alone
/// writes it (no lock: the other threads never touch it); on a
/// cross-process transport every process owns a private result and fills
/// its own copy. Every rank reduces the values it contributes through Comm
/// first, so an owner writes the same numbers on either backend.
[[nodiscard]] inline bool ownsResult(const Comm& comm) noexcept {
    return comm.isRoot() || comm.crossProcess();
}

/// Owns an SPMD execution: picks the backend and runs the given body once
/// per logical rank with a rank-local Comm. Usable repeatedly; each run()
/// returns aggregated statistics.
///
/// The backend follows from the process, as an MPI rank's network follows
/// from mpirun: a geo_launch worker (GEO_RANK set) runs the body ONCE, on
/// its own rank, over the process-wide socket mesh when the mesh width
/// equals `ranks` and no enclosing run holds the mesh. Every other run —
/// outside a worker, at another width, or nested inside a run — uses the
/// thread simulator, which keeps single-rank helpers, hier's nested
/// sub-partitions and plain test binaries working unchanged inside or
/// outside a worker. Outside a worker no other variable is read.
class Machine {
public:
    explicit Machine(int ranks, CostModel model = {});

    /// Run the SPMD body on all ranks. When a rank throws, the simulator
    /// releases its peers from the collective they wait in (they throw
    /// too) and run() rethrows the first failing rank's own exception.
    RunStats run(const std::function<void(Comm&)>& body);

    [[nodiscard]] int ranks() const noexcept { return ranks_; }

private:
    int ranks_;
    CostModel model_;
};

/// Convenience: single SPMD run.
RunStats runSpmd(int ranks, const std::function<void(Comm&)>& body, CostModel model = {});

}  // namespace geo::par
