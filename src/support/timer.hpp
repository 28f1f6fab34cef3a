// Wall-clock timing helpers used by the benchmark harness and the
// component-breakdown instrumentation (§5.3.2 of the paper).
#pragma once

#include <chrono>

namespace geo {

/// Simple monotonic stopwatch.
class Timer {
public:
    Timer() noexcept : start_(Clock::now()) {}

    void reset() noexcept { start_ = Clock::now(); }

    /// Elapsed seconds since construction or last reset().
    [[nodiscard]] double seconds() const noexcept {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

}  // namespace geo
