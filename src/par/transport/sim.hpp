// In-process thread-SPMD simulator backend.
//
// The original runtime (pre-transport-refactor src/par/comm.hpp) ran every
// logical rank as a thread and moved collective data through per-rank
// publication slots around a central barrier. That engine lives here now,
// type-erased behind the Transport interface; the Machine in par/comm keeps
// spawning one thread per rank and hands each a SimTransport over one
// shared SimShared.
//
// Data races are prevented by the same two-phase publish/read protocol:
// every rank publishes a pointer, a barrier makes all publications visible,
// every rank reads what it needs, and a second barrier releases the
// publications before any rank can reuse its buffer.
//
// This backend is the determinism ORACLE: reductions fold in rank order
// 0..p-1 through the shared reduceInPlace kernel, and the conformance suite
// holds the socket backend to bitwise-equal results.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "par/transport/transport.hpp"

namespace geo::par {

namespace detail {

/// Central sense-reversing barrier (condition-variable based, so waiting
/// ranks release the core — essential when simulating many ranks on few
/// cores). Abortable: once a rank of the run has failed, abort() wakes
/// every waiter and each one — like every later arrival — throws instead
/// of waiting for a rank that will never come.
class Barrier {
public:
    explicit Barrier(int parties) : parties_(parties) {}

    void arriveAndWait() {
        std::unique_lock lock(mutex_);
        if (aborted_) throwAborted();
        const std::uint64_t gen = generation_;
        if (++arrived_ == parties_) {
            arrived_ = 0;
            ++generation_;
            cv_.notify_all();
        } else {
            cv_.wait(lock, [&] { return generation_ != gen || aborted_; });
            if (generation_ == gen) throwAborted();
        }
    }

    void abort() {
        const std::lock_guard lock(mutex_);
        aborted_ = true;
        cv_.notify_all();
    }

private:
    [[noreturn]] static void throwAborted() {
        throw std::runtime_error("SPMD run aborted: another rank failed");
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    int parties_;
    int arrived_ = 0;
    std::uint64_t generation_ = 0;
    bool aborted_ = false;
};

}  // namespace detail

/// Shared state of one simulated machine run: publication slots + barrier.
struct SimShared {
    explicit SimShared(int ranks)
        : size(ranks), barrier(ranks), slots(static_cast<std::size_t>(ranks)) {}

    int size;
    detail::Barrier barrier;
    std::vector<const void*> slots;  ///< per-rank published pointer
};

/// One rank's view of a simulated machine.
class SimTransport final : public Transport {
public:
    SimTransport(int rank, SimShared& shared) : rank_(rank), shared_(&shared) {}

    [[nodiscard]] int rank() const noexcept override { return rank_; }
    [[nodiscard]] int size() const noexcept override { return shared_->size; }
    [[nodiscard]] const char* name() const noexcept override { return "sim"; }
    [[nodiscard]] bool crossProcess() const noexcept override { return false; }

    void barrier() override { shared_->barrier.arriveAndWait(); }

    void allreduce(void* inout, std::size_t count, DType type, ReduceOp op) override;
    void broadcast(void* data, std::size_t bytes, int root) override;
    [[nodiscard]] std::vector<std::byte> allgatherv(ConstBuf mine) override;
    [[nodiscard]] std::vector<std::byte> alltoallv(
        std::span<const ConstBuf> sendTo) override;

private:
    void publish(const void* ptr) noexcept {
        shared_->slots[static_cast<std::size_t>(rank_)] = ptr;
    }
    [[nodiscard]] const void* slot(int r) const noexcept {
        return shared_->slots[static_cast<std::size_t>(r)];
    }

    int rank_;
    SimShared* shared_;
};

}  // namespace geo::par
