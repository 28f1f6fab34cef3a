// Scoped environment override for tests: sets (or unsets) one variable and
// restores its previous value, or its absence, when the scope ends — also
// when an assertion fails and the test returns early.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace geo::test {

class ScopedEnv {
public:
    /// Set `name` to `value` for this scope; nullptr unsets it.
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) saved_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ScopedEnv(const char* name, const std::string& value) : ScopedEnv(name, value.c_str()) {}
    ~ScopedEnv() {
        if (saved_)
            ::setenv(name_.c_str(), saved_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    std::string name_;
    std::optional<std::string> saved_;
};

}  // namespace geo::test
