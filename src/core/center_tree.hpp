// kd-tree over cluster centers for nearest-effective-distance queries.
//
// §4.3 of the paper: "Nearest-neighbor data structures like kd-trees are
// outperformed by simpler distance bounds in most published experiments."
// This structure exists to reproduce that comparison (ablation_kdtree
// bench): it answers argmin_c dist(p, center(c))/influence(c) queries with
// branch-and-bound pruning, correctly handling the multiplicative weights
// by tracking the maximum influence per subtree.
//
// queryNearestIds() works in the squared effective-distance domain: it
// computes and prunes on dist²·(1/influence²), so no sqrt is taken anywhere
// on the path, and returns only the best / second-best center ids (the
// assignment engine materializes the Hamerly bounds itself). x ↦ x² is
// monotone on the non-negative effective distances, so this is the same
// argmin as the sqrt-domain definition. Candidates are visited in tree
// order, so an exact tie may resolve to either center.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"

namespace geo::core {

template <int D>
class CenterKdTree {
public:
    /// Build over replicated centers + influence values.
    CenterKdTree(std::span<const Point<D>> centers, std::span<const double> influence);

    /// Default-constructed empty tree; call rebuild() before querying.
    CenterKdTree() = default;

    /// Rebuild in place over new centers/influence (called every balance
    /// round — reuses all node/order/center storage instead of reallocating).
    void rebuild(std::span<const Point<D>> centers, std::span<const double> influence);

    struct IdResult {
        std::int32_t best = -1;
        std::int32_t second = -1;  ///< -1 when the tree holds a single center
    };

    /// Best and second-best cluster ids, computed entirely in the squared
    /// effective-distance domain (no sqrt).
    [[nodiscard]] IdResult queryNearestIds(const Point<D>& p) const;

    [[nodiscard]] std::int32_t size() const noexcept {
        return static_cast<std::int32_t>(centers_.size());
    }

private:
    struct Node {
        Box<D> bounds;            ///< bounding box of centers in this subtree
        double invMaxInfluence2;  ///< pruning bound: eff² >= minDist² · this
        std::int32_t left = -1, right = -1;  ///< children; -1 = leaf
        std::int32_t begin = 0, end = 0;     ///< center range (leaf)
    };

    std::int32_t build(std::int32_t begin, std::int32_t end, int depth);
    void searchSquared(std::int32_t nodeId, const Point<D>& p, IdResult& out,
                       double& best2, double& second2) const;

    std::vector<Point<D>> centers_;
    std::vector<double> invInfluence2_;  ///< 1/influence² per center
    std::vector<std::int32_t> order_;  ///< center ids, permuted by the build
    std::vector<Node> nodes_;
    std::int32_t root_ = -1;
};

extern template class CenterKdTree<2>;
extern template class CenterKdTree<3>;

}  // namespace geo::core
