// Minimal JSON emission for reports and trace files (no parsing needed).
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace perfbench {

inline std::string jsonString(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

/// Full round-trip precision; non-finite values become null.
inline std::string jsonNumber(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// Builds one JSON object by appending members in order.
class JsonObject {
public:
    template <typename T>
    JsonObject& add(std::string_view key, const T& value) {
        if constexpr (std::is_same_v<T, bool>) {
            return raw(key, value ? "true" : "false");
        } else if constexpr (std::is_integral_v<T>) {
            return raw(key, std::to_string(value));
        } else if constexpr (std::is_floating_point_v<T>) {
            return raw(key, jsonNumber(static_cast<double>(value)));
        } else {
            return raw(key, jsonString(value));
        }
    }
    /// Append a member whose value is already JSON text.
    JsonObject& raw(std::string_view key, std::string_view json) {
        body_ += body_.empty() ? "" : ",";
        body_ += jsonString(key);
        body_ += ':';
        body_ += json;
        return *this;
    }
    [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

}  // namespace perfbench
