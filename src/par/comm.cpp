#include "par/comm.hpp"

#include <algorithm>
#include <ctime>
#include <exception>
#include <mutex>
#include <thread>

#include "par/transport/sim.hpp"
#include "par/transport/socket.hpp"

namespace geo::par {

namespace detail {

double threadCpuSeconds() noexcept {
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace detail

namespace {

/// Sim-backend run: one thread per logical rank over shared slots.
RunStats runSim(int ranks, const CostModel& model,
                const std::function<void(Comm&)>& body) {
    SimShared shared(ranks);
    std::vector<CommStats> stats(static_cast<std::size_t>(ranks));
    std::vector<double> cpuSeconds(static_cast<std::size_t>(ranks), 0.0);

    if (ranks == 1) {
        // Serial fast path: no thread spawn; keeps unit tests and examples
        // cheap and debuggable.
        SimTransport transport(0, shared);
        Comm comm(transport, model, stats[0]);
        const double cpu0 = detail::threadCpuSeconds();
        body(comm);
        cpuSeconds[0] = detail::threadCpuSeconds() - cpu0;
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(ranks));
        std::mutex errorMutex;
        std::exception_ptr firstError;
        for (int r = 0; r < ranks; ++r) {
            threads.emplace_back([&, r] {
                SimTransport transport(r, shared);
                Comm comm(transport, model, stats[static_cast<std::size_t>(r)]);
                const double cpu0 = detail::threadCpuSeconds();
                try {
                    body(comm);
                } catch (...) {
                    // Record before aborting: the peers' own throws come
                    // only after abort() wakes them, so the first recorded
                    // exception is always a rank's original failure.
                    {
                        const std::lock_guard lock(errorMutex);
                        if (!firstError) firstError = std::current_exception();
                    }
                    shared.barrier.abort();
                }
                cpuSeconds[static_cast<std::size_t>(r)] =
                    detail::threadCpuSeconds() - cpu0;
            });
        }
        for (auto& t : threads) t.join();
        if (firstError) std::rethrow_exception(firstError);
    }

    RunStats out;
    for (int r = 0; r < ranks; ++r) {
        const auto& s = stats[static_cast<std::size_t>(r)];
        out.maxCpuSeconds = std::max(out.maxCpuSeconds, cpuSeconds[static_cast<std::size_t>(r)]);
        out.maxModeledCommSeconds = std::max(out.maxModeledCommSeconds, s.modeledCommSeconds);
        out.totalBytes += s.bytesSent;
        out.collectives = std::max(out.collectives, s.collectives);
    }
    return out;
}

/// Process-backend run: the body executes ONCE here, on this process's
/// rank; peer processes run their own copies. RunStats are then combined
/// across processes through raw (unaccounted) transport reductions so every
/// process reports the same aggregate, just like the simulator does.
RunStats runProcess(Transport& transport, const CostModel& model,
                    const std::function<void(Comm&)>& body) {
    struct Lease {
        ~Lease() { releaseProcessTransport(); }
    } lease;

    CommStats stats;
    Comm comm(transport, model, stats);
    const double cpu0 = detail::threadCpuSeconds();
    body(comm);
    const double cpu = detail::threadCpuSeconds() - cpu0;

    RunStats out;
    out.maxCpuSeconds = cpu;
    out.maxModeledCommSeconds = stats.modeledCommSeconds;
    out.totalBytes = stats.bytesSent;
    out.collectives = stats.collectives;
    out.transport = transport.name();
    transport.allreduce(&out.maxCpuSeconds, 1, DType::F64, ReduceOp::Max);
    transport.allreduce(&out.maxModeledCommSeconds, 1, DType::F64, ReduceOp::Max);
    transport.allreduce(&out.totalBytes, 1, DType::U64, ReduceOp::Sum);
    transport.allreduce(&out.collectives, 1, DType::U64, ReduceOp::Max);
    return out;
}

}  // namespace

Machine::Machine(int ranks, CostModel model) : ranks_(ranks), model_(model) {
    GEO_REQUIRE(ranks >= 1, "need at least one rank");
}

RunStats Machine::run(const std::function<void(Comm&)>& body) {
    ensureWorkerTransport();  // no-op outside a geo_launch worker
    if (Transport* transport = acquireProcessTransport(ranks_))
        return runProcess(*transport, model_, body);
    // No mesh of this width free (not a geo_launch worker, another width,
    // or an enclosing run holds the lease): simulate. Nested
    // sub-communicators land here by design.
    return runSim(ranks_, model_, body);
}

RunStats runSpmd(int ranks, const std::function<void(Comm&)>& body, CostModel model) {
    Machine machine(ranks, model);
    return machine.run(body);
}

}  // namespace geo::par
