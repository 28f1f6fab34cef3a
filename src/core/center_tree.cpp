#include "core/center_tree.hpp"

#include <algorithm>
#include <limits>

#include "support/assert.hpp"

namespace geo::core {

namespace {
constexpr std::int32_t kLeafSize = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();
}

template <int D>
CenterKdTree<D>::CenterKdTree(std::span<const Point<D>> centers,
                              std::span<const double> influence) {
    GEO_REQUIRE(!centers.empty(), "kd-tree needs at least one center");
    GEO_REQUIRE(centers.size() == influence.size(), "one influence per center");
    items_.reserve(centers.size());
    for (std::size_t c = 0; c < centers.size(); ++c)
        items_.push_back(Item{centers[c], 1.0 / (influence[c] * influence[c]),
                              static_cast<std::int32_t>(c)});
    nodes_.reserve(2 * items_.size() / kLeafSize + 2);
    build(0, static_cast<std::int32_t>(items_.size()), 0);
}

template <int D>
std::int32_t CenterKdTree<D>::build(std::int32_t begin, std::int32_t end, int depth) {
    Node node;
    node.bounds = Box<D>::empty();
    // 1/x² rounds monotonically, so the smallest 1/influence² is exactly
    // 1/maxInfluence².
    node.invMaxInfluence2 = kInf;
    for (std::int32_t i = begin; i < end; ++i) {
        const Item& item = items_[static_cast<std::size_t>(i)];
        node.bounds.extend(item.center);
        node.invMaxInfluence2 = std::min(node.invMaxInfluence2, item.invInfluence2);
    }
    node.begin = begin;
    node.end = end;

    const auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(node);
    if (end - begin > kLeafSize) {
        const int axis = depth % D;
        const std::int32_t mid = (begin + end) / 2;
        std::nth_element(items_.begin() + begin, items_.begin() + mid, items_.begin() + end,
                         [&](const Item& a, const Item& b) {
                             return a.center[axis] < b.center[axis];
                         });
        // Children are built after the parent; store indices post hoc.
        const auto left = build(begin, mid, depth + 1);
        const auto right = build(mid, end, depth + 1);
        nodes_[static_cast<std::size_t>(id)].left = left;
        nodes_[static_cast<std::size_t>(id)].right = right;
    }
    return id;
}

/// Lower bound on the squared effective distance of any center in the
/// subtree.
template <int D>
double CenterKdTree<D>::bound(std::int32_t nodeId, const Point<D>& p) const {
    const Node& node = nodes_[static_cast<std::size_t>(nodeId)];
    return node.bounds.minSquaredDistance(p) * node.invMaxInfluence2;
}

template <int D>
void CenterKdTree<D>::search(std::int32_t nodeId, double bound2, const Point<D>& p,
                             Best& best) const {
    if (bound2 > best.e2) return;
    const Node& node = nodes_[static_cast<std::size_t>(nodeId)];
    if (node.left < 0) {
        for (std::int32_t i = node.begin; i < node.end; ++i) {
            const Item& item = items_[static_cast<std::size_t>(i)];
            const double e2 = squaredDistance(p, item.center) * item.invInfluence2;
            if (e2 < best.e2 || (e2 == best.e2 && item.id < best.id)) best = {e2, item.id};
        }
        return;
    }
    const double dl = bound(node.left, p);
    const double dr = bound(node.right, p);
    if (dl <= dr) {
        search(node.left, dl, p, best);
        search(node.right, dr, p, best);
    } else {
        search(node.right, dr, p, best);
        search(node.left, dl, p, best);
    }
}

template <int D>
std::int32_t CenterKdTree<D>::nearest(const Point<D>& p) const {
    // Starting from (+inf, id 0) makes an all-+inf query answer id 0, as
    // the id-ordered scans do.
    Best best{kInf, 0};
    search(0, 0.0, p, best);
    return best.id;
}

template class CenterKdTree<2>;
template class CenterKdTree<3>;

}  // namespace geo::core
