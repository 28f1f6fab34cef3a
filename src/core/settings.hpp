// Tuning parameters of balanced k-means / Geographer (§4 of the paper).
//
// Every switch the paper describes as a "tuning parameter" or optimization
// is independently toggleable so the ablation benches can quantify it. The
// runtime settings (threads, ranks, transport, memory budget) fall back to
// their GEO_* variables when unset, read under the support/env.hpp rule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "par/thread_pool.hpp"
#include "par/transport/transport.hpp"
#include "support/mem.hpp"

namespace geo::core {

/// Space-filling curve used for the sort/redistribution and center seeding.
/// The paper uses Hilbert; Morton is provided for the curve ablation.
enum class Curve { Hilbert, Morton };

struct Settings {
    /// Maximum allowed imbalance ε (paper uses 0.03 / 0.05).
    double epsilon = 0.03;

    /// Which space-filling curve drives phase 1 (§4.1).
    Curve curve = Curve::Hilbert;

    /// Outer iterations: center-movement rounds (Alg. 2 maxIter).
    int maxIterations = 50;

    /// Balance iterations between center movements (Alg. 1 maxBalanceIter).
    int maxBalanceIterations = 20;

    /// Convergence: stop when the largest center movement falls below this
    /// fraction of the expected cluster radius (bbox diagonal / k^(1/d)).
    double deltaThresholdFactor = 5e-3;

    /// Maximum relative influence change per balance step (paper: 5%).
    double influenceChangeCap = 0.05;

    /// Influence erosion on center movement (Eq. 2–3).
    bool influenceErosion = true;

    /// Hamerly-style distance bounds adapted to effective distances (§4.3).
    bool hamerlyBounds = true;

    /// Bounding-box center pruning (§4.4).
    bool boundingBoxPruning = true;

    /// Assign points via a kd-tree over the centers instead of the linear
    /// scan — the alternative §4.3 dismisses ("kd-trees are outperformed by
    /// simpler distance bounds"); kept for the ablation that verifies the
    /// claim. Composes with hamerlyBounds (the skip test still applies).
    bool useKdTree = false;

    /// Sampled initialization: start with 100 random points per rank and
    /// double each round (§4.5 "random initialization").
    bool sampledInitialization = true;
    int initialSampleSize = 100;

    /// Intra-rank worker threads for every O(n) pipeline phase: SFC keying
    /// and bounds, the rank-local sort inside par::sampleSort, the
    /// assignment sweep and center update (core/assign_kernel), and the
    /// graph metrics. Results are bitwise identical at every thread count:
    /// work is split at fixed cache-block boundaries and reduced in block
    /// order (DESIGN.md "Threading model"). 0 = unset: fall back to
    /// GEO_THREADS, then 1. Callers read the resolved value via
    /// resolvedThreads().
    int threads = 0;

    /// The thread count every phase actually uses: `threads` if set, else
    /// par::defaultThreads() (GEO_THREADS or 1).
    [[nodiscard]] int resolvedThreads() const {
        if (threads >= 1) return threads;
        return par::defaultThreads();
    }

    /// SPMD rank count for entry points that own their Machine (examples,
    /// benches, serve tooling). 0 = unset: fall back to GEO_RANKS, then 1.
    /// Mirrors the `threads`/GEO_THREADS pattern — and inside a geo_launch
    /// worker GEO_RANKS is exactly the mesh size, so a Settings-driven run
    /// automatically matches the launched process count.
    int ranks = 0;

    /// Transport backend for the SPMD runs this Settings drives. Auto =
    /// unset: fall back to GEO_TRANSPORT, then the simulator. Socket/Tcp
    /// only take effect inside a geo_launch worker whose mesh size matches
    /// the Machine's rank count; anything else simulates (par::Machine).
    par::TransportKind transport = par::TransportKind::Auto;

    /// The rank count actually used: `ranks` if set, else GEO_RANKS, else 1.
    [[nodiscard]] int resolvedRanks() const {
        if (ranks >= 1) return ranks;
        return par::defaultRanks();
    }

    /// The transport actually used: `transport` if set, else GEO_TRANSPORT,
    /// else the simulator. Never returns Auto.
    [[nodiscard]] par::TransportKind resolvedTransport() const {
        if (transport != par::TransportKind::Auto) return transport;
        return par::envTransportKind();
    }

    /// Byte budget for the tiled point mirror every assignment sweep and
    /// center update runs over (core::PointStore). 0 = unset: fall back to
    /// GEO_MEM_BUDGET, then unlimited (the whole active set stays resident,
    /// exactly the pre-budget behavior). A positive budget caps the mirror:
    /// the store materializes the active set in budget-sized waves of fixed
    /// 1024-point tiles and regenerates them from the caller's points on
    /// every pass. Results are bitwise identical at every budget — wave
    /// boundaries fall on the same fixed tile grid the threading contract
    /// already reduces over (DESIGN.md "Memory model & tiling"). Budgets
    /// smaller than one tile clamp up to one tile.
    std::uint64_t memoryBudgetBytes = 0;

    /// The byte budget actually used: `memoryBudgetBytes` if set, else
    /// GEO_MEM_BUDGET, else 0 (= unlimited).
    [[nodiscard]] std::uint64_t resolvedMemoryBudget() const {
        if (memoryBudgetBytes > 0) return memoryBudgetBytes;
        return support::envMemoryBudget();
    }

    /// RNG seed for the sampling permutation.
    std::uint64_t seed = 1;

    /// Warm-start influence values paired with the initial centers (one per
    /// block, all positive), e.g. carried over from the previous timestep by
    /// the repartitioning subsystem (src/repart). Empty = all ones (cold
    /// start). Must be replicated identically on every rank, like the
    /// centers.
    std::vector<double> initialInfluence;

    /// Optional non-uniform block size targets (paper footnote 1:
    /// "when partitioning for heterogeneous architectures, this can easily
    /// be adapted"). Empty = uniform; otherwise one positive fraction per
    /// block, normalized internally.
    std::vector<double> targetFractions;
};

/// Counters recorded inside the assignment loop; basis for the paper's
/// "inner loop skipped in about 80% of the cases" claim and the ablation
/// benches.
struct KMeansCounters {
    std::uint64_t pointEvaluations = 0;  ///< points visited in assignment loops
    std::uint64_t boundSkips = 0;        ///< skipped entirely via ub < lb
    std::uint64_t distanceCalcs = 0;     ///< effective-distance evaluations
    std::uint64_t bboxBreaks = 0;        ///< inner loops cut short by bbox pruning
    std::uint64_t balanceIterations = 0; ///< total assign-and-balance sweeps
    std::uint64_t epochBoundApplications = 0;  ///< lazy Hamerly epochs applied on touch
    std::uint64_t batchedDistanceCalcs = 0;    ///< distances evaluated by the SoA batch kernel
    std::uint64_t keyedPoints = 0;       ///< points run through SFC keying (phase 1)
    std::uint64_t sortedRecords = 0;     ///< records owned after the global sort (phase 2)
    std::uint64_t peakTileBytes = 0;     ///< high-water tile-storage bytes (PointStore)
    std::uint64_t residentBytes = 0;     ///< tile-storage bytes held at sweep end
    std::uint64_t spilledTiles = 0;      ///< tile refills beyond each tile's first fill
    int outerIterations = 0;             ///< center-movement rounds

    [[nodiscard]] double skipFraction() const noexcept {
        return pointEvaluations == 0
                   ? 0.0
                   : static_cast<double>(boundSkips) / static_cast<double>(pointEvaluations);
    }

    void merge(const KMeansCounters& o) noexcept {
        pointEvaluations += o.pointEvaluations;
        boundSkips += o.boundSkips;
        distanceCalcs += o.distanceCalcs;
        bboxBreaks += o.bboxBreaks;
        balanceIterations += o.balanceIterations;
        epochBoundApplications += o.epochBoundApplications;
        batchedDistanceCalcs += o.batchedDistanceCalcs;
        keyedPoints += o.keyedPoints;
        sortedRecords += o.sortedRecords;
        // Memory counters: peaks/resident take the max (they describe one
        // store's high-water mark, not additive work), spills accumulate.
        peakTileBytes = std::max(peakTileBytes, o.peakTileBytes);
        residentBytes = std::max(residentBytes, o.residentBytes);
        spilledTiles += o.spilledTiles;
        outerIterations = std::max(outerIterations, o.outerIterations);
    }
};

}  // namespace geo::core
