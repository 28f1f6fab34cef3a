#include "support/fault.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "par/transport/transport.hpp"
#include "support/env.hpp"

namespace geo::support {

std::optional<FaultSpec> parseFaultSpec(const char* spec) {
    if (!spec || *spec == '\0') return std::nullopt;
    const std::string text(spec);

    FaultSpec out;
    std::size_t pos = text.find(':');
    const std::string action = text.substr(0, pos);
    if (action == "kill") {
        out.action = FaultSpec::Action::Kill;
    } else if (action == "exit") {
        out.action = FaultSpec::Action::Exit;
    } else if (action == "delay") {
        out.action = FaultSpec::Action::Delay;
    } else if (action == "drop") {
        out.action = FaultSpec::Action::Drop;
    } else {
        throw std::invalid_argument("unknown action '" + action +
                                    "' (use kill, exit, delay, or drop)");
    }

    while (pos != std::string::npos) {
        const std::size_t start = pos + 1;
        pos = text.find(':', start);
        const std::string field = text.substr(
            start, pos == std::string::npos ? std::string::npos : pos - start);
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("field '" + field + "' is not key=value");
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        const auto number = [&](auto lo, auto hi) {
            try {
                return env::parseInteger(value, lo, hi);
            } catch (const std::invalid_argument& e) {
                throw std::invalid_argument("bad " + key + " '" + value + "': " + e.what());
            }
        };
        if (key == "rank") {
            out.rank = number(0, std::numeric_limits<int>::max());
        } else if (key == "op") {
            out.op = value;
        } else if (key == "seq") {
            out.seq = number(std::uint64_t{0}, FaultSpec::kAnySeq - 1);
        } else if (key == "code") {
            out.exitCode = number(0, 255);
        } else if (key == "ms") {
            out.delayMs = number(0, 3600 * 1000);
        } else if (key == "once") {
            out.onceMarker = value;
        } else {
            throw std::invalid_argument("unknown key '" + key + "'");
        }
    }
    return out;
}

std::optional<FaultSpec> envFaultSpec() {
    return env::parse("GEO_FAULT", std::optional<FaultSpec>{},
                      [](const std::string& spec) { return parseFaultSpec(spec.c_str()); });
}

namespace {

/// Returns true when this process claims the one-shot marker (file absent
/// and created now); O_EXCL makes the claim atomic across ranks sharing a
/// marker path.
bool claimOnceMarker(const std::string& path) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) return false;  // already claimed (or unreachable path)
    ::close(fd);
    return true;
}

}  // namespace

void faultPoint(const char* op, std::uint64_t seq, int rank) {
    const auto spec = envFaultSpec();
    if (!spec) return;
    if (spec->rank >= 0 && spec->rank != rank) return;
    if (!spec->op.empty() && spec->op != op) return;
    if (spec->seq != FaultSpec::kAnySeq && spec->seq != seq) return;
    if (!spec->onceMarker.empty() && !claimOnceMarker(spec->onceMarker)) return;

    std::fprintf(stderr, "[geo-fault] firing at rank=%d op=%s seq=%llu\n", rank, op,
                 static_cast<unsigned long long>(seq));
    std::fflush(stderr);
    switch (spec->action) {
        case FaultSpec::Action::Kill:
            ::raise(SIGKILL);
            return;  // unreachable
        case FaultSpec::Action::Exit:
            ::_exit(spec->exitCode);
        case FaultSpec::Action::Delay:
            ::usleep(static_cast<useconds_t>(spec->delayMs) * 1000);
            return;
        case FaultSpec::Action::Drop:
            // Wedge without closing anything: peers see silence, not EOF,
            // and must fall back on their deadlines. The supervision layer
            // (or the test harness) is responsible for reaping us.
            for (;;) ::pause();
    }
}

void faultPoint(const char* op, std::uint64_t seq) {
    faultPoint(op, seq, par::workerRank());
}

}  // namespace geo::support
