#include "par/transport/transport.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "support/assert.hpp"
#include "support/env.hpp"

namespace geo::par {

const char* toString(TransportErrorKind kind) noexcept {
    switch (kind) {
        case TransportErrorKind::Timeout: return "timeout";
        case TransportErrorKind::PeerClosed: return "peer-closed";
        case TransportErrorKind::ConnectFailed: return "connect-failed";
        case TransportErrorKind::Protocol: return "protocol";
    }
    return "?";
}

namespace {

std::string formatTransportError(TransportErrorKind kind, int peer,
                                 const std::string& op, std::uint32_t seq,
                                 const std::string& detail) {
    std::string msg = "transport error: kind=";
    msg += toString(kind);
    msg += " op=" + op;
    msg += " seq=" + std::to_string(seq);
    if (peer >= 0) msg += " peer=" + std::to_string(peer);
    if (!detail.empty()) msg += " — " + detail;
    return msg;
}

constexpr int kMaxRanks = 1024;
constexpr int kMaxTimeoutMs = 1000 * 3600 * 24;  ///< one day

}  // namespace

TransportError::TransportError(TransportErrorKind kind_, int peer_, std::string op_,
                               std::uint32_t seq_, const std::string& detail)
    : std::runtime_error(formatTransportError(kind_, peer_, op_, seq_, detail)),
      kind(kind_),
      peer(peer_),
      op(std::move(op_)),
      seq(seq_) {}

int defaultCommTimeoutMs() {
    return support::env::integer("GEO_COMM_TIMEOUT_MS", 30000, 0, kMaxTimeoutMs);
}

int defaultConnectTimeoutMs() {
    return support::env::integer("GEO_CONNECT_TIMEOUT_MS", 30000, 0, kMaxTimeoutMs);
}

int defaultRanks() { return support::env::integer("GEO_RANKS", 1, 1, kMaxRanks); }

int workerRank() {
    return support::env::parse("GEO_RANK", -1, [](const std::string& value) {
        return support::env::parseInteger(value, 0, defaultRanks() - 1);
    });
}

std::size_t dtypeSize(DType type) noexcept {
    switch (type) {
        case DType::U8: return 1;
        case DType::I32:
        case DType::U32:
        case DType::F32: return 4;
        case DType::I64:
        case DType::U64:
        case DType::F64: return 8;
    }
    return 0;
}

namespace {

template <typename T>
void reduceTyped(ReduceOp op, void* accRaw, const void* otherRaw, std::size_t count) {
    auto* acc = static_cast<T*>(accRaw);
    const auto* other = static_cast<const T*>(otherRaw);
    switch (op) {
        case ReduceOp::Sum:
            for (std::size_t i = 0; i < count; ++i) acc[i] += other[i];
            break;
        case ReduceOp::Min:
            for (std::size_t i = 0; i < count; ++i)
                if (other[i] < acc[i]) acc[i] = other[i];
            break;
        case ReduceOp::Max:
            for (std::size_t i = 0; i < count; ++i)
                if (acc[i] < other[i]) acc[i] = other[i];
            break;
    }
}

}  // namespace

void reduceInPlace(DType type, ReduceOp op, void* acc, const void* other,
                   std::size_t count) {
    switch (type) {
        case DType::U8: return reduceTyped<std::uint8_t>(op, acc, other, count);
        case DType::I32: return reduceTyped<std::int32_t>(op, acc, other, count);
        case DType::U32: return reduceTyped<std::uint32_t>(op, acc, other, count);
        case DType::I64: return reduceTyped<std::int64_t>(op, acc, other, count);
        case DType::U64: return reduceTyped<std::uint64_t>(op, acc, other, count);
        case DType::F32: return reduceTyped<float>(op, acc, other, count);
        case DType::F64: return reduceTyped<double>(op, acc, other, count);
    }
}

namespace {

Transport* g_processTransport = nullptr;
bool g_processTransportLeased = false;

}  // namespace

void setProcessTransport(Transport* transport) noexcept {
    g_processTransport = transport;
    g_processTransportLeased = false;
}

Transport* processTransport() noexcept { return g_processTransport; }

Transport* acquireProcessTransport(int ranks) noexcept {
    if (!g_processTransport || g_processTransportLeased ||
        g_processTransport->size() != ranks)
        return nullptr;
    g_processTransportLeased = true;
    return g_processTransport;
}

void releaseProcessTransport() noexcept { g_processTransportLeased = false; }

void Transport::exscanSum(void* inout, DType type) {
    const std::size_t bytes = dtypeSize(type);
    if (size() == 1) {
        std::memset(inout, 0, bytes);  // arithmetic zero for every DType
        return;
    }
    const std::vector<std::byte> all = allgatherv(ConstBuf{inout, bytes});
    GEO_CHECK(all.size() == bytes * static_cast<std::size_t>(size()),
              "exscan gather size mismatch");
    std::memset(inout, 0, bytes);
    for (int r = 0; r < rank(); ++r)
        reduceInPlace(type, ReduceOp::Sum, inout,
                      all.data() + static_cast<std::size_t>(r) * bytes, 1);
}

}  // namespace geo::par
