// Immutable, versioned partition snapshots for online point→block serving.
//
// The balanced k-means output is exactly a multiplicatively-weighted Voronoi
// diagram: the (centers, influence) pair determines which block owns ANY
// point in space, not just the inputs the partitioner saw. A
// PartitionSnapshot freezes that state into a read-only query structure:
//   * SoA center coordinates plus precomputed 1/influence² per block, so
//     lookups run the assignment engine's sqrt-free squared-effective-
//     distance comparison — batched lookups through the same tile kernel,
//     core/tile_kernel.hpp, folding the centers into a tile of points,
//   * a core::CenterKdTree over the centers of a flat snapshot with
//     k >= kKdTreeFromK blocks, answering the same squared-domain argmin,
//     with the same tie rule, without scanning every center,
//   * for hierarchical runs, one weighted-Voronoi diagram per topology node
//     (HierResult::nodeDiagrams): a lookup descends the levels, picking the
//     argmin child at each node, and the mixed-radix child digits ARE the
//     depth-first leaf id — the flat block id of hier::HierResult,
//   * an optional block → topology-leaf and block → serving-rank mapping,
//   * binary save/load, so a serving process can restart from disk.
//
// Exactness contract: a snapshot built from a GeographerResult routes every
// input point of that run to exactly the block `partition` records, because
// it snapshots `assignmentInfluence` — the influence the final assignment
// sweep actually used (see GeographerResult).
//
// Ties: a point can be exactly equidistant (in effective distance) from two
// centers — duplicated centers (an empty cluster keeps its seeded center),
// or a point on a bisector. Every lookup path resolves a tie to the lowest
// block id: the linear-scan and descent paths visit centers in id order
// with a strict `<`, and the kd-tree compares ids on equal distances. The
// assignment engine visits centers in ascending (pruning key, id) order, so
// it agrees whenever the tied centers' keys are equal — in particular when
// both lie inside the rank's active box, where every key is 0. Tied centers
// whose keys differ (one of them outside the active box, as happens with
// several ranks or warm starts) may still resolve differently.
//
// Snapshots are immutable after construction; every member function is
// const and safe to call from any number of threads concurrently. The
// Router (router.hpp) swaps shared_ptrs to snapshots atomically on top of
// this guarantee.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/center_tree.hpp"
#include "core/geographer.hpp"
#include "geometry/point.hpp"
#include "hier/hier_partition.hpp"
#include "hier/topology.hpp"
#include "repart/repartition.hpp"

namespace geo::serve {

template <int D>
class PartitionSnapshot {
public:
    /// A flat (depth-1) snapshot with at least this many blocks builds a
    /// core::CenterKdTree over its centers; single-point and batched
    /// lookups then go through the tree instead of scanning all centers.
    static constexpr std::int32_t kKdTreeFromK = 128;

    /// One level of the routing hierarchy. A flat k-block snapshot is one
    /// level with a single node of branching k. Entries are node-major:
    /// node n's child c lives at slot n * branching + c.
    struct Level {
        std::int32_t branching = 0;
        /// SoA center coordinates, one array per dimension.
        std::array<std::vector<double>, static_cast<std::size_t>(D)> cx;
        std::vector<double> influence;
        std::vector<double> invInfluence2;  ///< derived: 1/influence²
    };

    /// Flat snapshot from a completed (or warm-repartitioned) run. Uses
    /// `assignmentInfluence` (exact for `result.partition`; see the header
    /// comment), falling back to `influence` when absent. `ranks >= 1`
    /// additionally records the contiguous block → rank split of
    /// par::blockRange; 0 leaves the snapshot without a rank map.
    static PartitionSnapshot fromResult(const core::GeographerResult& result,
                                        std::uint64_t version = 0, int ranks = 0);

    /// Flat snapshot from carried repartitioning state. RepartState holds
    /// the *post-adaptation* influence (the right warm start for the next
    /// timestep), so routes may differ from the producing run's partition
    /// near block boundaries whenever the two influence vectors differ —
    /// prefer fromResult when exact reproduction matters.
    static PartitionSnapshot fromState(const repart::RepartState<D>& state,
                                       std::uint64_t version = 0, int ranks = 0);

    /// Hierarchical snapshot: replays the per-node diagrams of a
    /// hier::partitionHierarchical / repartitionHierarchical run level by
    /// level and maps blocks to topology leaves (identity, recorded
    /// explicitly) and, when `ranks >= 1`, to serving ranks via
    /// Topology::leafRankMap.
    static PartitionSnapshot fromHierResult(const hier::HierResult& result,
                                            const hier::Topology& topo,
                                            std::uint64_t version = 0, int ranks = 0);

    /// Raw flat builder over replicated centers + the influence the served
    /// partition is exact for.
    static PartitionSnapshot fromCenters(std::span<const Point<D>> centers,
                                         std::span<const double> influence,
                                         std::uint64_t version = 0, int ranks = 0);

    [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
    [[nodiscard]] std::int32_t blockCount() const noexcept { return k_; }
    [[nodiscard]] int depth() const noexcept { return static_cast<int>(levels_.size()); }
    [[nodiscard]] bool usesKdTree() const noexcept { return tree_.has_value(); }
    [[nodiscard]] bool hasRankMap() const noexcept { return !blockRank_.empty(); }

    /// Topology leaf of `block` (identity when the snapshot carries no
    /// explicit mapping — the hier convention block id == leaf id).
    [[nodiscard]] std::int32_t leafOf(std::int32_t block) const;
    /// Serving rank of `block`; -1 when the snapshot has no rank map.
    [[nodiscard]] std::int32_t rankOf(std::int32_t block) const;

    /// Block owning `p`: the argmin of dist²(p, center) · 1/influence² per
    /// level (low-latency single-point path). Throws std::invalid_argument
    /// when a coordinate is NaN or infinite.
    [[nodiscard]] std::int32_t blockOf(const Point<D>& p) const;

    /// Batched lookup: `blocks[i]` = block of `points[i]`. Serial but
    /// cache-blocked — fixed 1024-point tiles through the branchless
    /// centers-outer / points-inner tile kernel (the Router fans tiles out
    /// over its worker threads). Per-point results are independent, so any
    /// split of the input produces identical output. Throws
    /// std::invalid_argument when a coordinate is NaN or infinite; the
    /// blocks of tiles before the offending one are already written.
    void blockOf(std::span<const Point<D>> points,
                 std::span<std::int32_t> blocks) const;

    /// Serialize to a raw little-endian binary stream (centers and
    /// influence bit-exact, so a reloaded snapshot routes identically).
    void save(std::ostream& out) const;
    void save(const std::string& path) const;
    static PartitionSnapshot load(std::istream& in);
    static PartitionSnapshot load(const std::string& path);

private:
    PartitionSnapshot() = default;
    void finalize();  ///< derived state + checks
    void routeTile(const Point<D>* pts, std::size_t count, std::int32_t* out) const;

    std::uint64_t version_ = 0;
    std::int32_t k_ = 0;
    std::vector<Level> levels_;
    std::vector<std::int32_t> blockLeaf_;  ///< empty = identity
    std::vector<std::int32_t> blockRank_;  ///< empty = no rank map
    std::optional<core::CenterKdTree<D>> tree_;  ///< flat snapshots, k >= kKdTreeFromK
};

extern template class PartitionSnapshot<2>;
extern template class PartitionSnapshot<3>;

}  // namespace geo::serve
