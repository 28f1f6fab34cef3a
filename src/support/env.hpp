// The one rule for reading GEO_* environment variables.
//
// Every runtime setting that comes from the environment (threads, ranks,
// transport, deadlines, memory budget, fault injection, the geo_launch
// worker rendezvous; README "Environment variables" lists them) is read
// through this header, and this is the only file under src/ or bench/ that
// touches the environment. One rule applies to every variable:
//   * unset or empty means the caller's default;
//   * any other value must parse completely and lie in range, or the read
//     throws std::invalid_argument naming the variable and the value;
//   * nothing is cached, so every read sees the current environment.
#pragma once

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace geo::support::env {

/// Parse all of `text` as a decimal integer in [lo, hi]. Throws
/// std::invalid_argument on anything else: empty text, a '+' sign or
/// whitespace, trailing characters, or a value outside the range
/// (including one that overflows T).
template <typename T>
[[nodiscard]] T parseInteger(std::string_view text, T lo, T hi) {
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec == std::errc::invalid_argument || end != last)
        throw std::invalid_argument("not a decimal integer");
    if (ec == std::errc::result_out_of_range || value < lo || value > hi)
        throw std::invalid_argument("out of range [" + std::to_string(lo) + ", " +
                                    std::to_string(hi) + "]");
    return value;
}

/// `parser(value)` when `name` is set, `fallback` when it is unset or empty.
/// A std::invalid_argument from `parser` is rethrown with the variable's
/// name and value in front of its message.
template <typename T, typename Parser>
[[nodiscard]] T parse(const char* name, T fallback, Parser&& parser) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    const std::string value(raw);  // a later setenv may free `raw`
    try {
        return parser(value);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string(name) + "='" + value + "': " + e.what());
    }
}

/// A decimal integer variable in [lo, hi]; `fallback` when unset or empty.
template <typename T>
[[nodiscard]] T integer(const char* name, T fallback, T lo, T hi) {
    return parse(name, fallback,
                 [&](const std::string& value) { return parseInteger<T>(value, lo, hi); });
}

}  // namespace geo::support::env
