// Point-to-center assignment engine for balanced k-means.
//
// Every subsystem (one-shot partitioner, repart warm restarts, hier
// per-node solves) funnels into the assignment sweep of Algorithm 1/2; this
// engine owns that hot path. Four ideas:
//
//   1. Squared effective-distance domain. Candidates are compared as
//      dist²(p,c) · (1/influence(c)²) by the shared tile kernel
//      (core/tile_kernel.hpp); x ↦ x² is monotone on non-negative
//      effective distances, so the argmin (and the bbox-pruning break) are
//      unchanged while the per-candidate sqrt disappears. Only when a point
//      is actually (re)assigned are its Hamerly bounds materialized — at
//      most two sqrts per assigned point, computed with the seed
//      algorithm's expression `distance(p,c)/influence(c)`, so ub/lb stay
//      bitwise equal to the seed's.
//   2. Lazy epoch-based bounds. Influence adaptation and center movement no
//      longer sweep all n points to relax ub/lb; they append one epoch
//      (per-cluster ratio/shift + the min-ratio/max-shift scalars) to a log,
//      and a point replays the epochs it missed when it is next touched.
//      Each balance round costs O(active points) instead of O(n) — the big
//      win for sampled initialization and warm-started repartitioning.
//      Sequential replay applies the identical multiply/add per round the
//      eager sweeps performed, so bound values are bitwise unchanged.
//   3. Slot-ordered state, budgeted SoA mirror (core::PointStore) and a
//      cache-blocked batch kernel. The engine takes the active order once,
//      at construction; slot s names point order[s] for the engine's whole
//      lifetime, and every per-point array (assignment, ub, lb, epoch) is
//      indexed by slot, not by point id. setActive(count) moves the end of
//      the active prefix and hands it to a PointStore, which mirrors the
//      active points into per-dimension arrays in slot order when they fit
//      the byte budget of Settings::memoryBudgetBytes / GEO_MEM_BUDGET
//      (unlimited, or kBytesPerPoint · active ≤ budget), and holds no
//      mirror otherwise. The sweep walks fixed 1024-slot blocks; one pass
//      over a block's contiguous slot range replays missed epochs, skips
//      what the bounds allow, and writes the slot and coordinates of every
//      other point into contiguous lanes — from the mirror, or without one
//      straight from the caller's points through the order — then folds
//      the centers into the lanes one at a time, in ascending (pruning
//      key, id) order, tracking best and second best per lane. A block's
//      bounds, sizes and mirror rows are one contiguous slot range, so a
//      sampled (randomly ordered) sweep reads and writes its state
//      sequentially and two workers share a cache line only at a block
//      edge. Weighted cluster sizes are accumulated per block and reduced
//      in block order.
//   4. Intra-rank threading (Settings::threads) via par::parallelFor over
//      whole blocks. Blocks run a fixed number at a time (a chunk); each
//      chunk's per-block partials are folded serially in ascending block
//      order before the next chunk starts — one left fold over all blocks,
//      whatever the chunking — and block and chunk boundaries depend only
//      on the active count, so results are bitwise identical at every
//      thread count AND every memory budget. The same contract covers
//      updateCenters(), the threaded Alg. 2 line-13 reduction.
//
// Bounds and bbox pruning can be switched off through Settings
// (hamerlyBounds, boundingBoxPruning) for the ablation benches; either way
// the tile kernel is the engine's only way to scan centers. The oracle
// lives in the tests: tests/test_kmeans.cpp embeds the seed algorithm and
// checks that the engine reproduces it exactly.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/point_store.hpp"
#include "core/settings.hpp"
#include "geometry/box.hpp"
#include "geometry/point.hpp"

namespace geo::core {

template <int D>
class AssignEngine {
public:
    /// Slots per cache block. Fixed (never derived from the thread count or
    /// the budget) so the per-block partials — and with them every
    /// floating-point sum the sweep and the center update produce — are
    /// identical at any Settings::threads and memory budget.
    static constexpr std::size_t kBlockSlots = 1024;

    /// Blocks per chunk. The sweep and the center update run this many
    /// blocks at a time and fold each chunk's partials in ascending block
    /// order before the next chunk starts: the same left fold over all
    /// blocks as one chunk would give, so the constant changes no bit. It
    /// bounds the partial storage at kChunkBlocks · k · (D + 1) doubles
    /// however many points are active.
    static constexpr std::size_t kChunkBlocks = 256;

    /// `points`/`weights`/`order` must outlive the engine (weights may be
    /// empty = unit). `order` lists point ids in active order: slot s is
    /// point order[s] for the engine's whole lifetime, so it is referenced,
    /// not copied, and must not change. `k` is the number of clusters.
    AssignEngine(std::span<const Point<D>> points, std::span<const double> weights,
                 std::span<const std::size_t> order, const Settings& settings,
                 std::int32_t k);

    /// Declare the active prefix, slots [0, activeCount) — the PointStore
    /// recomputes the active bounding box and (budget permitting) mirrors
    /// the points. Called once per assignAndBalance (the active set only
    /// changes between calls); only the end of the prefix moves. A store
    /// whose prefix length is unchanged is already current, so that call
    /// does nothing.
    void setActive(std::size_t activeCount);

    /// Bounding box of the active points (invalid when none are active).
    [[nodiscard]] const Box<D>& activeBox() const noexcept {
        return store_.activeBox();
    }

    /// Start one assignment round against `centers`/`influence` (replicated
    /// state; spans must stay valid until the next beginRound). Recomputes
    /// the bbox-pruning candidate order from `activeBox` — pruning keys are
    /// only ever consulted when they were computed in *this* round, so a
    /// round whose box is invalid can never scan against stale keys.
    void beginRound(std::span<const Point<D>> centers, std::span<const double> influence,
                    const Box<D>& activeBox);

    /// One assignment sweep over the active points: replay missed bound
    /// epochs, skip via ub < lb, (re)assign the rest, and write the
    /// deterministic per-cluster weighted sizes into `localSizes` (k wide).
    void sweep(std::span<double> localSizes);

    /// Weighted per-cluster coordinate/weight sums over the active points —
    /// the Alg. 2 line-13 center-update reduction. `sums` is k·(D+1) wide:
    /// D coordinate sums then the weight per cluster. Runs over the same
    /// fixed 1024-slot blocks as sweep(), with per-block partials reduced
    /// serially in block order, so the result is bitwise identical at every
    /// Settings::threads value (and to the block-ordered serial sum).
    void updateCenters(std::span<double> sums);

    /// Influence changed from I to I' (ratio = I/I'): ub scales by its own
    /// cluster's ratio, lb by the smallest ratio. O(k), applied lazily.
    void pushInfluenceEpoch(std::span<const double> ratio);

    /// Centers moved by delta (shift = delta/I') and influence possibly
    /// eroded (ratio = I/I'): Eq. 4–5 relaxation, O(k), applied lazily.
    void pushMoveEpoch(std::span<const double> ratio, std::span<const double> shift);

    /// Forget all bounds (ub = ∞, lb = 0) and mark every point current.
    void resetBounds();

    /// The partition by point id, one entry per point: an O(n) scatter of
    /// the slot-indexed state through the order, −1 for every point whose
    /// slot was never active.
    [[nodiscard]] std::vector<std::int32_t> assignment() const;
    [[nodiscard]] const KMeansCounters& counters() const noexcept { return counters_; }

private:
    struct Epoch {
        std::vector<double> ratio;  ///< per-cluster I/I'
        std::vector<double> shift;  ///< per-cluster delta/I' (move epochs only)
        double minRatio = 1.0;
        double maxShift = 0.0;
        bool move = false;

        /// Relax the bounds of a point assigned to cluster c (Eq. 4–5).
        void replay(std::size_t c, double& ub, double& lb) const noexcept {
            if (move) {
                ub = ub * ratio[c] + shift[c];
                lb = std::max(0.0, lb * minRatio - maxShift);
            } else {
                ub *= ratio[c];
                lb *= minRatio;
            }
        }
    };

    /// Per-worker scratch, one block wide: gathered coordinates + kernel
    /// state (the lanes of core::TileLanes; center ids travel as doubles,
    /// materialization narrows them).
    struct Scratch {
        std::vector<std::size_t> slots;  ///< active slot per gathered lane
        std::array<std::vector<double>, static_cast<std::size_t>(D)> gx;
        std::vector<double> best2, second2, bestC, secondC;
        KMeansCounters counters;
    };

    template <typename BlockFn>
    void foldBlocks(int threads, std::vector<double>& partials, std::span<double> out,
                    BlockFn&& blockFn);
    void processBlock(std::size_t s0, std::size_t s1,
                      const typename PointStore<D>::Mirror& mirror, Scratch& scratch,
                      double* blockSizes);
    void batchKernel(Scratch& scratch, std::size_t m);
    [[nodiscard]] std::uint32_t currentEpoch() const noexcept {
        return static_cast<std::uint32_t>(epochs_.size());
    }

    std::span<const Point<D>> points_;
    std::span<const double> weights_;
    std::span<const std::size_t> order_;
    const Settings& settings_;
    std::int32_t k_;

    // Persistent per-point state, indexed by active slot (slot s holds the
    // state of point order_[s]); sized on the first setActive.
    std::vector<std::int32_t> assignment_;
    std::vector<double> ub_, lb_;
    std::vector<std::uint32_t> epoch_;
    std::vector<Epoch> epochs_;

    // Active bounding box and, when it fits the budget, the SoA mirror.
    PointStore<D> store_;

    // Round state.
    std::span<const Point<D>> centers_;
    std::span<const double> influence_;
    std::vector<double> invInfluence2_;
    std::vector<std::int32_t> sortedCenters_;
    std::vector<double> centerKey_;
    bool keysValid_ = false;  ///< pruning keys were computed this round

    std::vector<double> blockSizes_;  ///< one chunk's per-block weighted cluster sizes
    std::vector<double> blockSums_;   ///< one chunk's per-block center-update partials
    std::vector<Scratch> scratch_;
    KMeansCounters counters_;
};

extern template class AssignEngine<2>;
extern template class AssignEngine<3>;

}  // namespace geo::core
