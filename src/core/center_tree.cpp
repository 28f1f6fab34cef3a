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
    rebuild(centers, influence);
}

template <int D>
void CenterKdTree<D>::rebuild(std::span<const Point<D>> centers,
                              std::span<const double> influence) {
    GEO_REQUIRE(!centers.empty(), "kd-tree needs at least one center");
    GEO_REQUIRE(centers.size() == influence.size(), "one influence per center");
    centers_.assign(centers.begin(), centers.end());
    invInfluence2_.resize(influence.size());
    for (std::size_t c = 0; c < influence.size(); ++c)
        invInfluence2_[c] = 1.0 / (influence[c] * influence[c]);
    order_.resize(centers_.size());
    for (std::size_t i = 0; i < order_.size(); ++i)
        order_[i] = static_cast<std::int32_t>(i);
    nodes_.clear();
    nodes_.reserve(2 * centers_.size() / kLeafSize + 2);
    root_ = build(0, static_cast<std::int32_t>(centers_.size()), 0);
}

template <int D>
std::int32_t CenterKdTree<D>::build(std::int32_t begin, std::int32_t end, int depth) {
    Node node;
    node.bounds = Box<D>::empty();
    // 1/x² rounds monotonically, so the smallest 1/influence² is exactly
    // 1/maxInfluence².
    node.invMaxInfluence2 = kInf;
    for (std::int32_t i = begin; i < end; ++i) {
        const auto c = static_cast<std::size_t>(order_[static_cast<std::size_t>(i)]);
        node.bounds.extend(centers_[c]);
        node.invMaxInfluence2 = std::min(node.invMaxInfluence2, invInfluence2_[c]);
    }
    node.begin = begin;
    node.end = end;

    const auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(node);
    if (end - begin > kLeafSize) {
        const int axis = depth % D;
        const std::int32_t mid = (begin + end) / 2;
        std::nth_element(order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
                         [&](std::int32_t a, std::int32_t b) {
                             return centers_[static_cast<std::size_t>(a)][axis] <
                                    centers_[static_cast<std::size_t>(b)][axis];
                         });
        // Children are built after the parent; store indices post hoc.
        const auto left = build(begin, mid, depth + 1);
        const auto right = build(mid, end, depth + 1);
        nodes_[static_cast<std::size_t>(id)].left = left;
        nodes_[static_cast<std::size_t>(id)].right = right;
    }
    return id;
}

template <int D>
void CenterKdTree<D>::searchSquared(std::int32_t nodeId, const Point<D>& p,
                                    IdResult& out, double& best2,
                                    double& second2) const {
    const Node& node = nodes_[static_cast<std::size_t>(nodeId)];
    // Squared-domain lower bound on any effective distance in this subtree.
    const double bound2 = node.bounds.minSquaredDistance(p) * node.invMaxInfluence2;
    if (bound2 >= second2) return;

    if (node.left < 0) {
        for (std::int32_t i = node.begin; i < node.end; ++i) {
            const auto c = order_[static_cast<std::size_t>(i)];
            const double eff2 = squaredDistance(p, centers_[static_cast<std::size_t>(c)]) *
                                invInfluence2_[static_cast<std::size_t>(c)];
            if (eff2 < best2) {
                second2 = best2;
                out.second = out.best;
                best2 = eff2;
                out.best = c;
            } else if (eff2 < second2) {
                second2 = eff2;
                out.second = c;
            }
        }
        return;
    }
    const auto& l = nodes_[static_cast<std::size_t>(node.left)];
    const auto& r = nodes_[static_cast<std::size_t>(node.right)];
    const double dl = l.bounds.minSquaredDistance(p) * l.invMaxInfluence2;
    const double dr = r.bounds.minSquaredDistance(p) * r.invMaxInfluence2;
    if (dl <= dr) {
        searchSquared(node.left, p, out, best2, second2);
        searchSquared(node.right, p, out, best2, second2);
    } else {
        searchSquared(node.right, p, out, best2, second2);
        searchSquared(node.left, p, out, best2, second2);
    }
}

template <int D>
typename CenterKdTree<D>::IdResult CenterKdTree<D>::queryNearestIds(
    const Point<D>& p) const {
    IdResult out;
    double best2 = kInf, second2 = kInf;
    searchSquared(root_, p, out, best2, second2);
    GEO_CHECK(out.best >= 0, "kd-tree query found no center");
    return out;
}

template class CenterKdTree<2>;
template class CenterKdTree<3>;

}  // namespace geo::core
