#include "spmv/dist_spmv.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <unordered_map>
#include <vector>

#include "support/assert.hpp"

namespace geo::spmv {

namespace {

/// Deterministic initial vector entry (shared with the plan-based runner's
/// spirit: bounded values so 100 iterations stay finite).
double initialValue(graph::Vertex v) {
    return 1.0 + 0.001 * static_cast<double>(v % 1000);
}

struct RankState {
    std::vector<graph::Vertex> owned;               ///< global ids of owned vertices
    std::unordered_map<graph::Vertex, std::size_t> globalToLocal;
    std::vector<double> x;                          ///< values of owned vertices
    // Halo: for each peer rank, the global ids we must send / receive.
    std::vector<std::vector<graph::Vertex>> sendIds;  ///< indexed by peer rank
    std::vector<std::vector<graph::Vertex>> recvIds;
    std::unordered_map<graph::Vertex, double> ghostValues;
};

}  // namespace

DistSpmvTiming runSpmvDistributed(const graph::CsrGraph& g, const graph::Partition& part,
                                  std::int32_t k, int ranks, int iterations,
                                  const par::CostModel& model) {
    graph::validatePartition(g, part, k);
    GEO_REQUIRE(ranks >= 1, "need at least one rank");
    GEO_REQUIRE(iterations >= 1, "need at least one iteration");

    auto ownerOf = [&](graph::Vertex v) {
        return static_cast<int>(part[static_cast<std::size_t>(v)] % ranks);
    };

    DistSpmvTiming timing;
    timing.iterations = iterations;

    par::Machine machine(ranks, model);
    machine.run([&](par::Comm& comm) {
        const int r = comm.rank();
        const int p = comm.size();

        // Build the local subdomain: owned vertices, halo send/recv lists.
        const double cpu0 = comm.cpuSeconds();
        RankState st;
        st.sendIds.resize(static_cast<std::size_t>(p));
        st.recvIds.resize(static_cast<std::size_t>(p));
        for (graph::Vertex v = 0; v < g.numVertices(); ++v) {
            if (ownerOf(v) != r) continue;
            st.globalToLocal.emplace(v, st.owned.size());
            st.owned.push_back(v);
            st.x.push_back(initialValue(v));
        }
        // Receive list: foreign neighbors of owned vertices, by owner.
        for (const auto v : st.owned) {
            for (const auto u : g.neighbors(v)) {
                const int owner = ownerOf(u);
                if (owner != r) st.recvIds[static_cast<std::size_t>(owner)].push_back(u);
            }
        }
        for (auto& ids : st.recvIds) {
            std::sort(ids.begin(), ids.end());
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        }
        // Send lists are the transpose of receive lists: exchange requests.
        {
            std::vector<std::vector<graph::Vertex>> requests(static_cast<std::size_t>(p));
            for (int peer = 0; peer < p; ++peer)
                requests[static_cast<std::size_t>(peer)] =
                    st.recvIds[static_cast<std::size_t>(peer)];
            // Tag each request with the requester: flatten as (requester, id)
            // pairs via alltoallv.
            struct Req {
                std::int32_t requester;
                graph::Vertex id;
            };
            std::vector<std::vector<Req>> outbound(static_cast<std::size_t>(p));
            for (int peer = 0; peer < p; ++peer)
                for (const auto id : requests[static_cast<std::size_t>(peer)])
                    outbound[static_cast<std::size_t>(peer)].push_back(Req{r, id});
            const auto inbound = comm.alltoallv(outbound);
            for (const auto& req : inbound)
                st.sendIds[static_cast<std::size_t>(req.requester)].push_back(req.id);
        }

        std::int64_t myGhosts = 0;
        for (const auto& ids : st.recvIds) myGhosts += static_cast<std::int64_t>(ids.size());

        // Iterate: halo exchange + local multiply.
        std::uint64_t myHaloBytes = 0;
        std::vector<double> y(st.x.size());
        for (int iter = 0; iter < iterations; ++iter) {
            std::vector<std::vector<double>> outbound(static_cast<std::size_t>(p));
            for (int peer = 0; peer < p; ++peer) {
                for (const auto id : st.sendIds[static_cast<std::size_t>(peer)])
                    outbound[static_cast<std::size_t>(peer)].push_back(
                        st.x[st.globalToLocal.at(id)]);
                if (peer != r)
                    myHaloBytes += st.sendIds[static_cast<std::size_t>(peer)].size() *
                                   sizeof(double);
            }
            const auto inbound = comm.alltoallv(outbound);
            // inbound concatenates, in rank order, the values each peer sent
            // us — matching the order of our recvIds lists.
            std::size_t cursor = 0;
            st.ghostValues.clear();
            for (int peer = 0; peer < p; ++peer)
                for (const auto id : st.recvIds[static_cast<std::size_t>(peer)])
                    st.ghostValues[id] = inbound[cursor++];
            GEO_CHECK(cursor == inbound.size(), "halo exchange size mismatch");

            for (std::size_t i = 0; i < st.owned.size(); ++i) {
                const auto v = st.owned[i];
                double acc = 0.0;
                for (const auto u : g.neighbors(v)) {
                    const auto it = st.globalToLocal.find(u);
                    acc += it != st.globalToLocal.end() ? st.x[it->second]
                                                        : st.ghostValues.at(u);
                }
                y[i] = acc / static_cast<double>(std::max<std::int64_t>(g.degree(v), 1));
            }
            std::swap(st.x, y);
        }

        double checksum = 0.0;
        for (const auto v : st.x) checksum += v;

        // Snapshot this rank's cost before the closing reductions, which
        // are bookkeeping, not SpMV; they fold in rank order, so the sums
        // equal the serial accumulation over ranks bitwise.
        std::array<double, 2> maxima{comm.cpuSeconds() - cpu0,
                                     comm.stats().modeledCommSeconds};
        std::array<std::int64_t, 2> sums{static_cast<std::int64_t>(myHaloBytes), myGhosts};
        comm.allreduceMax(std::span<double>(maxima));
        checksum = comm.allreduceSum(checksum);
        comm.allreduceSum(std::span<std::int64_t>(sums));
        if (!par::ownsResult(comm)) return;

        timing.computeSecondsPerIteration = maxima[0] / iterations;
        timing.commSecondsPerIteration = maxima[1] / iterations;
        timing.checksum = checksum;
        timing.haloBytesPerIteration =
            static_cast<std::uint64_t>(sums[0]) / static_cast<std::uint64_t>(iterations);
        timing.totalGhosts = sums[1];
    });
    return timing;
}

}  // namespace geo::spmv
