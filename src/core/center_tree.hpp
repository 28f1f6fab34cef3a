// kd-tree over cluster centers for a serving snapshot's lookups.
//
// serve::PartitionSnapshot answers the lookups of a flat snapshot with
// k >= PartitionSnapshot::kKdTreeFromK blocks through this tree. It finds
// what the tile kernel (core/tile_kernel.hpp) finds: the smallest squared
// effective distance dist²(p, c) · (1/influence(c)²), computed with the
// kernel's arithmetic, and among exact ties the lowest id (id 0 when every
// distance overflows to +inf). A subtree is skipped only when its bound
// minSquaredDistance(p, box) · (1/maxInfluence²) is greater than the best
// distance so far: rounding is monotone, so the bound never exceeds the
// distance of a center in the box, and a tied lower id is never pruned.
//
// The k-means engine has no tree path: §4.3 of the paper finds kd-trees
// "outperformed by simpler distance bounds" (DESIGN.md "No kd-tree in the
// engine" keeps the measurement).
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
    /// Build over the centers and one positive influence value per center.
    CenterKdTree(std::span<const Point<D>> centers, std::span<const double> influence);

    /// Id of the center with the smallest squared effective distance to
    /// `p`; exact ties go to the lowest id.
    [[nodiscard]] std::int32_t nearest(const Point<D>& p) const;

private:
    /// One center, stored in tree order so a leaf's centers are contiguous.
    struct Item {
        Point<D> center;
        double invInfluence2;  ///< 1/influence²
        std::int32_t id;
    };

    struct Node {
        Box<D> bounds;            ///< bounding box of centers in this subtree
        double invMaxInfluence2;  ///< pruning bound: eff² >= minDist² · this
        std::int32_t left = -1, right = -1;  ///< children; -1 = leaf
        std::int32_t begin = 0, end = 0;     ///< item range
    };

    /// The running answer of one query.
    struct Best {
        double e2;
        std::int32_t id;
    };

    std::int32_t build(std::int32_t begin, std::int32_t end, int depth);
    [[nodiscard]] double bound(std::int32_t nodeId, const Point<D>& p) const;
    void search(std::int32_t nodeId, double bound2, const Point<D>& p, Best& best) const;

    std::vector<Item> items_;
    std::vector<Node> nodes_;
};

extern template class CenterKdTree<2>;
extern template class CenterKdTree<3>;

}  // namespace geo::core
