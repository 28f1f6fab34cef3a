// Process memory introspection + memory-budget parsing.
//
// The assignment engine's point mirror (core/assign_kernel.hpp) is budgeted
// in bytes; this header supplies the two sides of that contract: reading the
// budget (Settings::memoryBudgetBytes / GEO_MEM_BUDGET, with K/M/G suffixes)
// and observing what the process actually used (peak RSS), which
// the BENCH_*.json writers record so the CI bench trajectory can assert a
// budgeted run stayed under its cap.
#pragma once

#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/env.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace geo::support {

/// Peak resident set size of this process in bytes (high-water mark since
/// process start — getrusage ru_maxrss, which Linux reports in KiB and
/// macOS in bytes). 0 on platforms without getrusage.
[[nodiscard]] inline std::uint64_t peakRssBytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
#else
    return 0;
#endif
}

/// Parse a byte count with an optional binary suffix: "0", "1048576",
/// "64K", "512M", "2G" (case-insensitive, optional trailing 'B').
/// Throws std::invalid_argument on anything else — a typoed budget must
/// fail loudly, not silently run unbudgeted.
[[nodiscard]] inline std::uint64_t parseMemBytes(std::string_view text) {
    std::size_t pos = 0;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos])) != 0)
        ++pos;
    if (pos == 0)
        throw std::invalid_argument("memory size must start with digits: '" +
                                    std::string(text) + "'");
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < pos; ++i) {
        const auto digit = static_cast<std::uint64_t>(text[i] - '0');
        if (value > (UINT64_MAX - digit) / 10)
            throw std::invalid_argument("memory size overflows: '" +
                                        std::string(text) + "'");
        value = value * 10 + digit;
    }
    std::string_view suffix = text.substr(pos);
    std::uint64_t multiplier = 1;
    if (!suffix.empty()) {
        switch (std::tolower(static_cast<unsigned char>(suffix[0]))) {
            case 'k': multiplier = std::uint64_t{1} << 10; break;
            case 'm': multiplier = std::uint64_t{1} << 20; break;
            case 'g': multiplier = std::uint64_t{1} << 30; break;
            default:
                throw std::invalid_argument("unknown memory suffix: '" +
                                            std::string(text) + "'");
        }
        suffix.remove_prefix(1);
        if (!suffix.empty() &&
            (suffix.size() > 1 ||
             std::tolower(static_cast<unsigned char>(suffix[0])) != 'b'))
            throw std::invalid_argument("unknown memory suffix: '" +
                                        std::string(text) + "'");
    }
    if (multiplier > 1 && value > UINT64_MAX / multiplier)
        throw std::invalid_argument("memory size overflows: '" +
                                    std::string(text) + "'");
    return value * multiplier;
}

/// GEO_MEM_BUDGET as bytes (parseMemBytes syntax); 0 (= unlimited) when
/// unset, and std::invalid_argument on a malformed value (support/env.hpp).
[[nodiscard]] inline std::uint64_t envMemoryBudget() {
    return env::parse("GEO_MEM_BUDGET", std::uint64_t{0}, parseMemBytes);
}

}  // namespace geo::support
