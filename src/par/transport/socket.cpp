#include "par/transport/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "support/assert.hpp"
#include "support/binio.hpp"
#include "support/env.hpp"
#include "support/fault.hpp"

namespace geo::par {

namespace {

constexpr std::uint32_t kFrameMagic = 0x47454F54;  // "GEOT"
constexpr std::uint32_t kWireVersion = 1;
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 40;
constexpr std::size_t kHeaderBytes = 16;  // u32 magic + u32 tag + u64 len

[[noreturn]] void sysFail(const char* what) {
    throw std::runtime_error(std::string("socket transport: ") + what + " failed: " +
                             std::strerror(errno));
}

double monotonicSeconds() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Inactivity deadline for a blocking operation. `ms <= 0` means unbounded
/// (the pre-fault-tolerance behavior); otherwise the limit is an absolute
/// monotonic timestamp that byte progress pushes forward via reset() — the
/// deadline bounds SILENCE, not total transfer time, so a slow-but-alive
/// peer streaming a large payload never trips it.
struct Deadline {
    double limit = 0.0;  ///< absolute monotonic seconds; 0 = unbounded
    int ms = 0;          ///< the configured window, for error messages

    static Deadline after(int milliseconds) {
        Deadline d;
        d.ms = milliseconds;
        if (milliseconds > 0) d.limit = monotonicSeconds() + milliseconds * 1e-3;
        return d;
    }
    void reset() {
        if (ms > 0) limit = monotonicSeconds() + ms * 1e-3;
    }
    /// Remaining window as a poll() timeout argument: -1 = unbounded,
    /// 0 = already expired, else milliseconds (rounded up so we never spin).
    [[nodiscard]] int pollMs() const {
        if (limit <= 0.0) return -1;
        const double rem = (limit - monotonicSeconds()) * 1000.0;
        if (rem <= 0.0) return 0;
        return rem >= 1e9 ? 1000000000 : static_cast<int>(rem) + 1;
    }
    [[nodiscard]] bool expired() const {
        return limit > 0.0 && monotonicSeconds() >= limit;
    }
};

/// Error context for one blocking operation: which collective (name + wire
/// sequence) the bytes belong to, so a TransportError pinpoints the op.
struct IoCtx {
    const char* op;
    std::uint32_t seq;
    int timeoutMs;
};

/// Map a failed send/recv/poll syscall to a typed error. Peer-death errnos
/// (the peer process died or reset the connection) become PeerClosed — the
/// recoverable class supervision acts on; anything else is Protocol.
[[noreturn]] void ioFail(const char* what, const IoCtx& ctx, int peer) {
    const int err = errno;
    if (err == EPIPE || err == ECONNRESET || err == ECONNABORTED || err == ETIMEDOUT)
        throw TransportError(TransportErrorKind::PeerClosed, peer, ctx.op, ctx.seq,
                             std::string(what) + ": " + std::strerror(err));
    throw TransportError(TransportErrorKind::Protocol, peer, ctx.op, ctx.seq,
                         std::string(what) + " failed: " + std::strerror(err));
}

[[noreturn]] void ioTimeout(const char* what, const IoCtx& ctx, int peer,
                            const Deadline& dl) {
    throw TransportError(TransportErrorKind::Timeout, peer, ctx.op, ctx.seq,
                         std::string(what) + " made no progress for " +
                             std::to_string(dl.ms) + " ms");
}

/// Block until `fd` is ready for `events` or the deadline expires (throws
/// Timeout). A positive poll() result — including POLLERR/POLLHUP — returns
/// normally: the next syscall surfaces the precise error.
void waitReady(int fd, short events, const Deadline& dl, const IoCtx& ctx, int peer,
               const char* what) {
    for (;;) {
        pollfd pfd{fd, events, 0};
        const int rc = ::poll(&pfd, 1, dl.pollMs());
        if (rc > 0) return;
        if (rc == 0) ioTimeout(what, ctx, peer, dl);
        if (errno == EINTR) continue;
        ioFail("poll", ctx, peer);
    }
}

/// Deadline-bounded full write. MSG_DONTWAIT keeps every syscall
/// non-blocking; the only place this function can wait is the poll inside
/// waitReady, which is where the deadline bites.
void sendAll(int fd, const void* data, std::size_t bytes, const IoCtx& ctx,
             int peer) {
    Deadline dl = Deadline::after(ctx.timeoutMs);
    const auto* p = static_cast<const std::byte*>(data);
    while (bytes > 0) {
        const ssize_t w = ::send(fd, p, bytes, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
            p += w;
            bytes -= static_cast<std::size_t>(w);
            dl.reset();
            continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            waitReady(fd, POLLOUT, dl, ctx, peer, "send");
            continue;
        }
        if (w < 0 && errno == EINTR) continue;
        ioFail("send", ctx, peer);
    }
}

/// Deadline-bounded full read; EOF (the peer died or closed its mesh)
/// throws PeerClosed.
void recvAll(int fd, void* data, std::size_t bytes, const IoCtx& ctx, int peer) {
    Deadline dl = Deadline::after(ctx.timeoutMs);
    auto* p = static_cast<std::byte*>(data);
    while (bytes > 0) {
        const ssize_t r = ::recv(fd, p, bytes, MSG_DONTWAIT);
        if (r > 0) {
            p += r;
            bytes -= static_cast<std::size_t>(r);
            dl.reset();
            continue;
        }
        if (r == 0)
            throw TransportError(TransportErrorKind::PeerClosed, peer, ctx.op,
                                 ctx.seq, "peer closed connection (EOF)");
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            waitReady(fd, POLLIN, dl, ctx, peer, "recv");
            continue;
        }
        if (errno == EINTR) continue;
        ioFail("recv", ctx, peer);
    }
}

void setNonBlocking(int fd, bool on) {
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0) sysFail("fcntl(F_GETFL)");
    const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (want != flags && fcntl(fd, F_SETFL, want) < 0) sysFail("fcntl(F_SETFL)");
}

void setNoDelay(int fd) {
    const int one = 1;
    // Best effort: fails harmlessly on Unix-domain sockets.
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::string unixPath(const std::string& dir, int rank) {
    return dir + "/geo." + std::to_string(rank) + ".sock";
}

}  // namespace

enum class SocketTransport::Op : std::uint8_t {
    Hello = 1,    ///< connection handshake (seq 0)
    Gather = 2,   ///< child → parent leg of a tree gather
    Bcast = 3,    ///< parent → child leg of a tree broadcast
    Exchange = 4  ///< pairwise alltoallv frame
};

namespace {

/// tag = opcode in the top byte, collective sequence number below. The
/// sequence wraps at 24 bits; both ends wrap together, so the desync check
/// stays exact.
std::uint32_t makeTagImpl(std::uint8_t op, std::uint32_t seq) {
    return (static_cast<std::uint32_t>(op) << 24) | (seq & 0xFFFFFFu);
}

}  // namespace

void SocketTransport::beginCollective(const char* op) {
    ++seq_;
    opName_ = op;
    support::faultPoint(op, seq_, config_.rank);
}

void SocketTransport::sendFrame(int peer, Op op, const void* payload,
                                std::size_t bytes) {
    const IoCtx ctx{opName_, seq_, opDeadlineMs_};
    binio::Writer header;
    header.u32(kFrameMagic);
    header.u32(makeTagImpl(static_cast<std::uint8_t>(op), seq_));
    header.u64(bytes);
    sendAll(fdFor(peer), header.buffer().data(), header.size(), ctx, peer);
    if (bytes > 0) sendAll(fdFor(peer), payload, bytes, ctx, peer);
}

std::vector<std::byte> SocketTransport::recvFrame(int peer, Op op) {
    const IoCtx ctx{opName_, seq_, opDeadlineMs_};
    std::array<std::byte, kHeaderBytes> raw{};
    recvAll(fdFor(peer), raw.data(), raw.size(), ctx, peer);
    binio::Reader header(raw);
    GEO_CHECK(header.u32() == kFrameMagic, "bad frame magic (stream corrupt)");
    const std::uint32_t tag = header.u32();
    const std::uint32_t expected = makeTagImpl(static_cast<std::uint8_t>(op), seq_);
    GEO_CHECK(tag == expected,
              "collective desync: peer " + std::to_string(peer) + " sent tag " +
                  std::to_string(tag) + ", expected " + std::to_string(expected));
    const std::uint64_t len = header.u64();
    GEO_CHECK(len <= kMaxFrameBytes, "frame length exceeds protocol cap");
    std::vector<std::byte> payload(static_cast<std::size_t>(len));
    if (len > 0) recvAll(fdFor(peer), payload.data(), payload.size(), ctx, peer);
    return payload;
}

std::vector<std::byte> SocketTransport::exchangeFrames(int sendPeer, Op sendOp,
                                                       const void* sendPayload,
                                                       std::size_t sendBytes,
                                                       int recvPeer, Op recvOp) {
    const IoCtx ctx{opName_, seq_, opDeadlineMs_};
    const int sendFd = fdFor(sendPeer);
    const int recvFd = fdFor(recvPeer);

    binio::Writer headerW;
    headerW.u32(kFrameMagic);
    headerW.u32(makeTagImpl(static_cast<std::uint8_t>(sendOp), seq_));
    headerW.u64(sendBytes);
    const std::vector<std::byte>& sendHeader = headerW.buffer();
    const auto* sendBody = static_cast<const std::byte*>(sendPayload);
    std::size_t sendOff = 0;  // linear over header then payload
    const std::size_t sendTotal = kHeaderBytes + sendBytes;

    std::array<std::byte, kHeaderBytes> recvHeader{};
    std::size_t recvOff = 0;  // linear over header then payload
    std::size_t recvTotal = kHeaderBytes;  // extended once the header arrives
    bool recvHeaderParsed = false;
    std::vector<std::byte> recvPayload;

    Deadline dl = Deadline::after(opDeadlineMs_);
    while (sendOff < sendTotal || recvOff < recvTotal) {
        // Pump the send side until the kernel buffer is full.
        while (sendOff < sendTotal) {
            const void* p;
            std::size_t n;
            if (sendOff < kHeaderBytes) {
                p = sendHeader.data() + sendOff;
                n = kHeaderBytes - sendOff;
            } else {
                p = sendBody + (sendOff - kHeaderBytes);
                n = sendBytes - (sendOff - kHeaderBytes);
            }
            const ssize_t w = ::send(sendFd, p, n, MSG_NOSIGNAL | MSG_DONTWAIT);
            if (w > 0) {
                sendOff += static_cast<std::size_t>(w);
                dl.reset();
                continue;
            }
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (w < 0 && errno == EINTR) continue;
            ioFail("send", ctx, sendPeer);
        }
        // Pump the receive side until the kernel buffer is drained.
        while (recvOff < recvTotal) {
            void* p;
            std::size_t n;
            if (recvOff < kHeaderBytes) {
                p = recvHeader.data() + recvOff;
                n = kHeaderBytes - recvOff;
            } else {
                p = recvPayload.data() + (recvOff - kHeaderBytes);
                n = recvPayload.size() - (recvOff - kHeaderBytes);
            }
            const ssize_t r = ::recv(recvFd, p, n, MSG_DONTWAIT);
            if (r > 0) {
                recvOff += static_cast<std::size_t>(r);
                dl.reset();
                if (!recvHeaderParsed && recvOff == kHeaderBytes) {
                    binio::Reader header(recvHeader);
                    GEO_CHECK(header.u32() == kFrameMagic,
                              "bad frame magic (stream corrupt)");
                    const std::uint32_t expected = makeTagImpl(
                        static_cast<std::uint8_t>(recvOp), seq_);
                    GEO_CHECK(header.u32() == expected,
                              "collective desync in pairwise exchange");
                    const std::uint64_t len = header.u64();
                    GEO_CHECK(len <= kMaxFrameBytes,
                              "frame length exceeds protocol cap");
                    recvPayload.resize(static_cast<std::size_t>(len));
                    recvTotal = kHeaderBytes + recvPayload.size();
                    recvHeaderParsed = true;
                }
                continue;
            }
            if (r == 0)
                throw TransportError(TransportErrorKind::PeerClosed, recvPeer,
                                     ctx.op, ctx.seq,
                                     "peer closed connection (EOF)");
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            ioFail("recv", ctx, recvPeer);
        }
        if (sendOff >= sendTotal && recvOff >= recvTotal) break;

        // Block until either side can make progress. Full-duplex: two
        // ranks streaming large payloads at each other both keep
        // draining their receive side, so filled send buffers always
        // empty eventually — no deadlock.
        pollfd fds[2];
        nfds_t nfds = 0;
        if (sendFd == recvFd) {
            fds[0].fd = sendFd;
            fds[0].events = static_cast<short>(
                (sendOff < sendTotal ? POLLOUT : 0) |
                (recvOff < recvTotal ? POLLIN : 0));
            fds[0].revents = 0;
            nfds = 1;
        } else {
            if (sendOff < sendTotal) {
                fds[nfds].fd = sendFd;
                fds[nfds].events = POLLOUT;
                fds[nfds].revents = 0;
                ++nfds;
            }
            if (recvOff < recvTotal) {
                fds[nfds].fd = recvFd;
                fds[nfds].events = POLLIN;
                fds[nfds].revents = 0;
                ++nfds;
            }
        }
        const int rc = ::poll(fds, nfds, dl.pollMs());
        if (rc == 0)
            ioTimeout("pairwise exchange", ctx,
                      recvOff < recvTotal ? recvPeer : sendPeer, dl);
        if (rc < 0 && errno != EINTR) ioFail("poll", ctx, recvPeer);
    }
    return recvPayload;
}

SocketTransport::SocketTransport(const SocketConfig& config) : config_(config) {
    GEO_REQUIRE(config_.ranks >= 1, "need at least one rank");
    GEO_REQUIRE(config_.rank >= 0 && config_.rank < config_.ranks,
                "rank out of range");
    opDeadlineMs_ = defaultCommTimeoutMs();
    connectDeadlineMs_ = defaultConnectTimeoutMs();
    peerFd_.assign(static_cast<std::size_t>(config_.ranks), -1);
    if (config_.ranks == 1) return;
    // A peer that dies mid-collective turns our next send into SIGPIPE;
    // MSG_NOSIGNAL covers sends, this covers any stragglers.
    std::signal(SIGPIPE, SIG_IGN);
    connectMesh();
}

SocketTransport::~SocketTransport() {
    for (const int fd : peerFd_)
        if (fd >= 0) ::close(fd);
    if (listenFd_ >= 0) ::close(listenFd_);
    if (!config_.tcp && config_.ranks > 1 && !config_.dir.empty())
        ::unlink(unixPath(config_.dir, config_.rank).c_str());
}

int SocketTransport::fdFor(int peer) const {
    GEO_CHECK(peer >= 0 && peer < config_.ranks && peer != config_.rank,
              "no connection to that peer");
    const int fd = peerFd_[static_cast<std::size_t>(peer)];
    GEO_CHECK(fd >= 0, "peer not connected");
    return fd;
}

void SocketTransport::connectMesh() {
    const int p = config_.ranks;
    const int self = config_.rank;
    support::faultPoint("handshake", 0, self);

    // 1. Bind the own endpoint first so every peer's dial lands in the
    //    listen backlog no matter how process startup interleaves.
    if (config_.tcp) {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0) sysFail("socket");
        const int one = 1;
        (void)setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(config_.portBase + self));
        if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
            sysFail("bind");
    } else {
        GEO_REQUIRE(!config_.dir.empty(), "unix socket transport needs a directory");
        const std::string path = unixPath(config_.dir, self);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        GEO_REQUIRE(path.size() < sizeof(addr.sun_path),
                    "socket directory path too long");
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        ::unlink(path.c_str());
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0) sysFail("socket");
        if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
            sysFail("bind");
    }
    if (::listen(listenFd_, p) < 0) sysFail("listen");

    const auto helloPayload = [&](int fromRank) {
        binio::Writer w;
        w.u32(kWireVersion);
        w.u32(static_cast<std::uint32_t>(p));
        w.u32(static_cast<std::uint32_t>(fromRank));
        return std::move(w).take();
    };
    const auto parseHello = [&](std::vector<std::byte> payload) {
        binio::Reader r(payload);
        GEO_CHECK(r.u32() == kWireVersion, "handshake wire version mismatch");
        GEO_CHECK(r.u32() == static_cast<std::uint32_t>(p),
                  "handshake rank-count mismatch (mixed launches?)");
        const int from = static_cast<int>(r.u32());
        r.expectEnd("handshake frame");
        GEO_CHECK(from >= 0 && from < p && from != self, "handshake rank out of range");
        return from;
    };

    // 2. Dial every lower rank (bounded retry until its listener is bound).
    for (int peer = 0; peer < self; ++peer) {
        const Deadline dl = Deadline::after(connectDeadlineMs_);
        int fd = -1;
        int attempt = 0;
        for (;;) {
            fd = ::socket(config_.tcp ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0) sysFail("socket");
            int rc;
            if (config_.tcp) {
                sockaddr_in addr{};
                addr.sin_family = AF_INET;
                addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
                addr.sin_port =
                    htons(static_cast<std::uint16_t>(config_.portBase + peer));
                rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
            } else {
                const std::string path = unixPath(config_.dir, peer);
                sockaddr_un addr{};
                addr.sun_family = AF_UNIX;
                GEO_REQUIRE(path.size() < sizeof(addr.sun_path),
                            "socket directory path too long");
                std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
                rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
            }
            if (rc == 0) break;
            const int err = errno;
            ::close(fd);
            fd = -1;
            const bool retryable = err == ECONNREFUSED || err == ENOENT ||
                                   err == EAGAIN || err == EINTR;
            if (!retryable || dl.expired())
                throw TransportError(
                    TransportErrorKind::ConnectFailed, peer, "handshake", 0,
                    std::string("connect: ") + std::strerror(err) + " after " +
                        std::to_string(attempt + 1) + " attempt(s) (deadline " +
                        std::to_string(connectDeadlineMs_) + " ms)");
            // Exponential backoff with deterministic per-rank jitter: many
            // ranks re-dialing one slow starter spread out instead of
            // stampeding in lockstep, yet the schedule is reproducible.
            const int base = 1 << std::min(attempt, 6);  // 1..64 ms
            const auto hash = static_cast<std::uint32_t>(self * 64 + attempt) *
                              0x9E3779B9u;
            int sleepMs = base + static_cast<int>(hash >> 24) % (base + 1);
            const int remaining = dl.pollMs();
            if (remaining >= 0) sleepMs = std::min(sleepMs, std::max(remaining, 1));
            ::usleep(static_cast<useconds_t>(sleepMs) * 1000);
            ++attempt;
        }
        setNoDelay(fd);
        peerFd_[static_cast<std::size_t>(peer)] = fd;
        const auto hello = helloPayload(self);
        sendFrame(peer, Op::Hello, hello.data(), hello.size());
        GEO_CHECK(parseHello(recvFrame(peer, Op::Hello)) == peer,
                  "connected to the wrong peer endpoint");
    }

    // 3. Accept every higher rank; the handshake identifies which one each
    //    accepted connection belongs to (arrival order is arbitrary). One
    //    deadline bounds the WHOLE accept phase: an absent rank — crashed
    //    before dialing, never launched — turns into a typed Timeout here
    //    instead of an indefinite accept() hang.
    const IoCtx acceptCtx{"handshake", 0, connectDeadlineMs_};
    const Deadline acceptDl = Deadline::after(connectDeadlineMs_);
    if (p - 1 - self > 0) setNonBlocking(listenFd_, true);
    for (int pending = p - 1 - self; pending > 0; --pending) {
        int fd;
        for (;;) {
            fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd >= 0) break;
            if (errno == EINTR || errno == ECONNABORTED) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                waitReady(listenFd_, POLLIN, acceptDl, acceptCtx, -1, "accept");
                continue;
            }
            sysFail("accept");
        }
        setNonBlocking(fd, false);
        setNoDelay(fd);
        // Read the handshake directly on the fd — the peer's rank is not
        // known until the hello payload arrives.
        std::array<std::byte, kHeaderBytes> raw{};
        recvAll(fd, raw.data(), raw.size(), acceptCtx, -1);
        binio::Reader header(raw);
        GEO_CHECK(header.u32() == kFrameMagic, "bad handshake magic");
        GEO_CHECK(header.u32() == makeTagImpl(static_cast<std::uint8_t>(Op::Hello), 0),
                  "bad handshake tag");
        const std::uint64_t len = header.u64();
        GEO_CHECK(len <= 64, "handshake frame oversized");
        std::vector<std::byte> payload(static_cast<std::size_t>(len));
        recvAll(fd, payload.data(), payload.size(), acceptCtx, -1);
        const int from = parseHello(std::move(payload));
        GEO_CHECK(from > self, "handshake from unexpected direction");
        GEO_CHECK(peerFd_[static_cast<std::size_t>(from)] < 0,
                  "duplicate connection from peer");
        peerFd_[static_cast<std::size_t>(from)] = fd;
        const auto hello = helloPayload(self);
        sendFrame(from, Op::Hello, hello.data(), hello.size());
    }

    ::close(listenFd_);
    listenFd_ = -1;
}

std::vector<std::vector<std::byte>> SocketTransport::gatherToRoot(ConstBuf mine) {
    const int p = config_.ranks;
    const int self = config_.rank;

    // Accumulated entry list: [u32 origin][u64 len][bytes] per entry.
    // Internal tree nodes merge children by concatenating entry bytes —
    // payloads are never decoded until the root.
    std::uint32_t count = 1;
    binio::Writer body;
    body.u32(static_cast<std::uint32_t>(self));
    body.u64(mine.bytes);
    body.bytes(mine.data, mine.bytes);

    for (int mask = 1; mask < p; mask <<= 1) {
        if (self & mask) {
            const int parent = self - mask;
            binio::Writer frame;
            frame.u32(count);
            frame.bytes(body.buffer());
            sendFrame(parent, Op::Gather, frame.buffer().data(), frame.size());
            return {};
        }
        const int child = self + mask;
        if (child < p) {
            const std::vector<std::byte> payload = recvFrame(child, Op::Gather);
            binio::Reader r(payload);
            count += r.u32();
            body.bytes(r.rest());
        }
    }

    GEO_CHECK(self == 0 && count == static_cast<std::uint32_t>(p),
              "gather reached root with wrong entry count");
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
    std::vector<bool> seen(static_cast<std::size_t>(p), false);
    binio::Reader r(body.buffer());
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t origin = r.u32();
        GEO_CHECK(origin < static_cast<std::uint32_t>(p) && !seen[origin],
                  "gather entry with bad origin rank");
        seen[origin] = true;
        const std::uint64_t len = r.u64();
        out[origin] = r.bytes(static_cast<std::size_t>(len));
    }
    r.expectEnd("gather entry list");
    return out;
}

std::vector<std::byte> SocketTransport::bcastBytes(std::vector<std::byte> mine,
                                                   int root) {
    const int p = config_.ranks;
    const int self = config_.rank;
    const int rel = (self - root + p) % p;

    int mask = 1;
    for (; mask < p; mask <<= 1) {
        if (rel & mask) {
            int src = self - mask;
            if (src < 0) src += p;
            mine = recvFrame(src, Op::Bcast);
            break;
        }
    }
    for (mask >>= 1; mask > 0; mask >>= 1) {
        if (rel + mask < p) {
            int dst = self + mask;
            if (dst >= p) dst -= p;
            sendFrame(dst, Op::Bcast, mine.data(), mine.size());
        }
    }
    return mine;
}

void SocketTransport::barrier() {
    if (config_.ranks == 1) return;
    beginCollective("barrier");
    (void)gatherToRoot(ConstBuf{nullptr, 0});
    (void)bcastBytes({}, 0);
}

void SocketTransport::allreduce(void* inout, std::size_t count, DType type,
                                ReduceOp op) {
    const int p = config_.ranks;
    if (p == 1) return;
    beginCollective("allreduce");
    const std::size_t bytes = count * dtypeSize(type);

    // Tree gather moves the bytes; the FOLD stays sequential in rank order
    // 0..p-1 at the root — the same order and the same reduceInPlace kernel
    // as the simulator, so floating-point results agree bitwise.
    std::vector<std::vector<std::byte>> gathered =
        gatherToRoot(ConstBuf{inout, bytes});
    std::vector<std::byte> result;
    if (config_.rank == 0) {
        for (int r = 0; r < p; ++r)
            GEO_CHECK(gathered[static_cast<std::size_t>(r)].size() == bytes,
                      "allreduce contribution size mismatch");
        result = std::move(gathered[0]);
        for (int r = 1; r < p; ++r)
            reduceInPlace(type, op, result.data(),
                          gathered[static_cast<std::size_t>(r)].data(), count);
    }
    result = bcastBytes(std::move(result), 0);
    GEO_CHECK(result.size() == bytes, "allreduce result size mismatch");
    if (bytes > 0) std::memcpy(inout, result.data(), bytes);
}

void SocketTransport::broadcast(void* data, std::size_t bytes, int root) {
    const int p = config_.ranks;
    if (p == 1) return;
    GEO_REQUIRE(root >= 0 && root < p, "broadcast root out of range");
    beginCollective("broadcast");
    std::vector<std::byte> payload;
    if (config_.rank == root) {
        payload.resize(bytes);
        if (bytes > 0) std::memcpy(payload.data(), data, bytes);
    }
    payload = bcastBytes(std::move(payload), root);
    GEO_CHECK(payload.size() == bytes, "broadcast size mismatch across ranks");
    if (config_.rank != root && bytes > 0)
        std::memcpy(data, payload.data(), bytes);
}

std::vector<std::byte> SocketTransport::allgatherv(ConstBuf mine) {
    const int p = config_.ranks;
    if (p == 1) {
        std::vector<std::byte> out(mine.bytes);
        if (mine.bytes > 0) std::memcpy(out.data(), mine.data, mine.bytes);
        return out;
    }
    beginCollective("allgatherv");
    std::vector<std::vector<std::byte>> gathered = gatherToRoot(mine);
    std::vector<std::byte> concat;
    if (config_.rank == 0) {
        std::size_t total = 0;
        for (const auto& part : gathered) total += part.size();
        concat.reserve(total);
        for (const auto& part : gathered)
            concat.insert(concat.end(), part.begin(), part.end());
    }
    return bcastBytes(std::move(concat), 0);
}

std::vector<std::byte> SocketTransport::alltoallv(std::span<const ConstBuf> sendTo) {
    const int p = config_.ranks;
    GEO_REQUIRE(static_cast<int>(sendTo.size()) == p,
                "alltoallv needs one send buffer per rank");
    const int self = config_.rank;
    if (p == 1) {
        std::vector<std::byte> out(sendTo[0].bytes);
        if (sendTo[0].bytes > 0)
            std::memcpy(out.data(), sendTo[0].data, sendTo[0].bytes);
        return out;
    }
    beginCollective("alltoallv");

    std::vector<std::vector<std::byte>> fromRank(static_cast<std::size_t>(p));
    auto& selfPart = fromRank[static_cast<std::size_t>(self)];
    selfPart.resize(sendTo[static_cast<std::size_t>(self)].bytes);
    if (!selfPart.empty())
        std::memcpy(selfPart.data(), sendTo[static_cast<std::size_t>(self)].data,
                    selfPart.size());

    // Pairwise exchange: at step s this rank's send to (self+s) mod p is
    // exactly what that peer expects from us at its own step s, so every
    // frame pairs up with a matching receive in the same logical step.
    for (int s = 1; s < p; ++s) {
        const int sendPeer = (self + s) % p;
        const int recvPeer = (self - s + p) % p;
        const ConstBuf& out = sendTo[static_cast<std::size_t>(sendPeer)];
        fromRank[static_cast<std::size_t>(recvPeer)] = exchangeFrames(
            sendPeer, Op::Exchange, out.data, out.bytes, recvPeer, Op::Exchange);
    }

    std::size_t total = 0;
    for (const auto& part : fromRank) total += part.size();
    std::vector<std::byte> result;
    result.reserve(total);
    for (const auto& part : fromRank)
        result.insert(result.end(), part.begin(), part.end());
    return result;
}

std::optional<SocketConfig> workerSocketConfig() {
    const int rank = workerRank();
    if (rank < 0) return std::nullopt;
    SocketConfig cfg;
    cfg.rank = rank;
    cfg.ranks = defaultRanks();
    cfg.dir = support::env::parse("GEO_SOCKET_DIR", std::string{},
                                  [](const std::string& dir) { return dir; });
    cfg.portBase = support::env::integer("GEO_PORT_BASE", 0, 1, 65536 - cfg.ranks);
    cfg.tcp = cfg.portBase > 0;
    if (cfg.tcp == !cfg.dir.empty())
        throw std::invalid_argument(
            std::string("a geo_launch worker needs exactly one of GEO_SOCKET_DIR (Unix "
                        "sockets) and GEO_PORT_BASE (TCP); ") +
            (cfg.tcp ? "both are set" : "neither is set"));
    return cfg;
}

Transport* ensureWorkerTransport() {
    static std::mutex mutex;
    static std::unique_ptr<SocketTransport> worker;
    const std::lock_guard lock(mutex);
    if (!worker) {
        const auto cfg = workerSocketConfig();
        if (!cfg) return nullptr;
        worker = std::make_unique<SocketTransport>(*cfg);
        setProcessTransport(worker.get());
    }
    return worker.get();
}

}  // namespace geo::par
