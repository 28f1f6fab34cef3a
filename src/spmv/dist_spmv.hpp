// SPMD distributed SpMV over the message-passing runtime.
//
// The paper measures SpMV communication time with real MPI ranks: the graph
// is redistributed according to the partition, each process owns the rows
// of its blocks, and every multiplication starts with a halo exchange of
// ghost values. This module reproduces that setup end-to-end on par::Comm —
// the simulator, or real processes under geo_launch: blocks are mapped to
// ranks, each rank extracts its local subgraph, halos move through
// Comm::alltoallv, and the per-rank CPU and modeled network times are
// reduced through Comm, so every backend reports the same figures — the
// distributed counterpart of the plan-based `runSpmv`.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "graph/metrics.hpp"
#include "par/comm.hpp"

namespace geo::spmv {

struct DistSpmvTiming {
    double commSecondsPerIteration = 0.0;     ///< modeled network time (max rank)
    double computeSecondsPerIteration = 0.0;  ///< max-rank CPU time
    std::uint64_t haloBytesPerIteration = 0;  ///< total ghost bytes moved
    std::int64_t totalGhosts = 0;
    int iterations = 0;
    double checksum = 0.0;  ///< sum of the result vector (correctness probe)
};

/// Run `iterations` distributed SpMVs with `ranks` SPMD processes; block b
/// of the partition is owned by rank b % ranks. Deterministic.
DistSpmvTiming runSpmvDistributed(const graph::CsrGraph& g, const graph::Partition& part,
                                  std::int32_t k, int ranks, int iterations = 100,
                                  const par::CostModel& model = {});

}  // namespace geo::spmv
