// Multi-process socket backend: real ranks, real bytes, one host.
//
// Each rank is an OS process launched by tools/geo_launch. The mesh is
// fully connected: every pair of ranks shares one stream socket —
// Unix-domain by default (paths under GEO_SOCKET_DIR), TCP loopback when
// GEO_TRANSPORT=tcp (ports GEO_PORT_BASE + rank). Rank r listens on its own
// endpoint, dials every lower rank, and accepts from every higher rank; a
// handshake frame on each new connection pins the peer's identity before
// any collective traffic flows.
//
// Wire protocol: length-prefixed frames
//
//     [u32 magic][u32 tag][u64 payloadLen][payload]
//
// where tag packs (opcode, collective sequence number). Both ends advance
// the sequence once per collective, so a desynchronized peer — one rank
// entering collectives in a different order — fails loudly on the tag check
// instead of silently mixing payloads. Frame decode uses the same
// bounds-checked binio primitives as the snapshot loader.
//
// Collective algorithms (DESIGN.md §2):
//   * broadcast     — binomial tree rooted at `root`.
//   * allreduce     — binomial-tree gather of every rank's buffer to rank 0
//                     (concatenation, preserving per-rank payloads), a
//                     SEQUENTIAL fold 0..p-1 at the root through the shared
//                     reduceInPlace kernel, then tree broadcast. The tree
//                     moves bytes; it never changes fold order — that is
//                     what keeps floating-point results bitwise identical
//                     to the simulator.
//   * allgatherv    — tree gather of (origin, payload) entries, root
//                     concatenates in rank order, tree broadcast.
//   * barrier       — zero-byte gather + broadcast.
//   * alltoallv     — pairwise exchange: step s sends to (rank+s) mod p
//                     while receiving from (rank−s) mod p, full-duplex via
//                     poll so two ranks streaming large payloads at each
//                     other cannot deadlock on filled socket buffers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "par/transport/transport.hpp"

namespace geo::par {

/// Configuration a worker needs to join the mesh (workerSocketConfig reads
/// it from the geo_launch environment). The deadlines are not part of it:
/// the transport reads GEO_COMM_TIMEOUT_MS and GEO_CONNECT_TIMEOUT_MS when
/// it is constructed.
struct SocketConfig {
    int rank = 0;
    int ranks = 1;
    bool tcp = false;          ///< false → Unix-domain sockets in `dir`
    std::string dir;           ///< Unix: directory holding geo.<r>.sock
    int portBase = 0;          ///< TCP: rank r listens on 127.0.0.1:portBase+r
};

class SocketTransport final : public Transport {
public:
    /// Joins the mesh: binds the own endpoint, dials lower ranks, accepts
    /// higher ranks, handshakes every connection. Blocks until all p-1
    /// peers are connected or the connect timeout expires (throws).
    explicit SocketTransport(const SocketConfig& config);
    ~SocketTransport() override;

    SocketTransport(const SocketTransport&) = delete;
    SocketTransport& operator=(const SocketTransport&) = delete;

    [[nodiscard]] int rank() const noexcept override { return config_.rank; }
    [[nodiscard]] int size() const noexcept override { return config_.ranks; }
    [[nodiscard]] const char* name() const noexcept override {
        return config_.tcp ? "tcp" : "socket";
    }
    [[nodiscard]] bool crossProcess() const noexcept override { return true; }

    void barrier() override;
    void allreduce(void* inout, std::size_t count, DType type, ReduceOp op) override;
    void broadcast(void* data, std::size_t bytes, int root) override;
    [[nodiscard]] std::vector<std::byte> allgatherv(ConstBuf mine) override;
    [[nodiscard]] std::vector<std::byte> alltoallv(
        std::span<const ConstBuf> sendTo) override;

private:
    enum class Op : std::uint8_t;

    void connectMesh();
    [[nodiscard]] int fdFor(int peer) const;

    /// Collective prologue: bump the wire sequence, remember the op name for
    /// error reports, and run the op's fault point (GEO_FAULT).
    void beginCollective(const char* op);

    void sendFrame(int peer, Op op, const void* payload, std::size_t bytes);
    [[nodiscard]] std::vector<std::byte> recvFrame(int peer, Op op);
    [[nodiscard]] std::vector<std::byte> exchangeFrames(int sendPeer, Op sendOp,
                                                        const void* sendPayload,
                                                        std::size_t sendBytes,
                                                        int recvPeer, Op recvOp);

    /// Tree gather to rank 0: root returns all p payloads indexed by origin
    /// rank; everyone else returns an empty vector.
    [[nodiscard]] std::vector<std::vector<std::byte>> gatherToRoot(ConstBuf mine);
    /// Tree broadcast of a variable-size payload; only root's argument
    /// matters, every rank returns the payload.
    [[nodiscard]] std::vector<std::byte> bcastBytes(std::vector<std::byte> mine,
                                                    int root);

    SocketConfig config_;
    int listenFd_ = -1;
    std::vector<int> peerFd_;    ///< per-rank socket fd (own slot = -1)
    std::uint32_t seq_ = 0;      ///< collective sequence, bumped per call
    const char* opName_ = "handshake";  ///< current op, for TransportError
    int opDeadlineMs_ = 0;       ///< GEO_COMM_TIMEOUT_MS (0 = none)
    int connectDeadlineMs_ = 0;  ///< GEO_CONNECT_TIMEOUT_MS
};

/// The geo_launch worker environment as a SocketConfig: GEO_RANK, GEO_RANKS,
/// GEO_TRANSPORT, GEO_SOCKET_DIR and GEO_PORT_BASE (in [1, 65536 - ranks]).
/// std::nullopt when this process is not a socket worker (GEO_RANK unset,
/// or GEO_TRANSPORT neither socket nor tcp).
[[nodiscard]] std::optional<SocketConfig> workerSocketConfig();

/// Construct and install the process-wide SocketTransport from
/// workerSocketConfig() on the first call that finds a worker environment.
/// Returns the installed transport, or nullptr when this process is not a
/// worker. Safe to call repeatedly; the mesh is built once and lives until
/// process exit.
Transport* ensureWorkerTransport();

}  // namespace geo::par
