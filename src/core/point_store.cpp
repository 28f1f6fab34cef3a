#include "core/point_store.hpp"

#include <algorithm>

#include "par/parallel_for.hpp"
#include "support/assert.hpp"

namespace geo::core {

template <int D>
PointStore<D>::PointStore(std::span<const Point<D>> points,
                          std::span<const double> weights, std::uint64_t budgetBytes)
    : points_(points), weights_(weights), budget_(budgetBytes) {
    GEO_REQUIRE(weights_.empty() || weights_.size() == points_.size(),
                "weights must be empty or match points");
}

template <int D>
void PointStore<D>::setActive(std::span<const std::size_t> order,
                              std::size_t activeCount, int threads) {
    GEO_REQUIRE(activeCount <= order.size() && activeCount <= points_.size(),
                "active count exceeds available points");
    const auto active = order.first(activeCount);
    active_ = activeCount;

    // Active bounding box: per-worker partial boxes merged serially — box
    // merge is exact coordinate min/max, so the result is thread-count
    // independent.
    box_ = Box<D>::empty();
    if (active_ > 0) {
        std::vector<Box<D>> partial(static_cast<std::size_t>(std::max(1, threads)),
                                    Box<D>::empty());
        par::parallelFor(threads, active_,
                         [&](std::size_t i0, std::size_t i1, int worker) {
                             Box<D> bb = Box<D>::empty();
                             for (std::size_t i = i0; i < i1; ++i)
                                 bb.extend(points_[active[i]]);
                             partial[static_cast<std::size_t>(worker)] = bb;
                         });
        for (const auto& bb : partial)
            if (bb.valid()) box_.extend(bb);
    }

    resident_ = budget_ == 0 || kBytesPerPoint * active_ <= budget_;
    if (resident_) {
        for (auto& x : sx_) x.resize(active_);
        sw_.resize(active_);
        par::parallelFor(threads, active_, [&](std::size_t s0, std::size_t s1, int) {
            for (std::size_t s = s0; s < s1; ++s) {
                const std::size_t p = active[s];
                for (int d = 0; d < D; ++d)
                    sx_[static_cast<std::size_t>(d)][s] = points_[p][d];
                sw_[s] = weights_.empty() ? 1.0 : weights_[p];
            }
        });
    } else {
        for (auto& x : sx_) std::vector<double>().swap(x);
        std::vector<double>().swap(sw_);
    }
    acc_.residentBytes = resident_ ? kBytesPerPoint * active_ : 0;
    acc_.peakResidentBytes = std::max(acc_.peakResidentBytes, acc_.residentBytes);
}

template <int D>
typename PointStore<D>::Mirror PointStore<D>::mirror() const noexcept {
    Mirror m;
    if (!resident_) return m;
    for (int d = 0; d < D; ++d)
        m.x[static_cast<std::size_t>(d)] = sx_[static_cast<std::size_t>(d)].data();
    m.weight = sw_.data();
    return m;
}

template class PointStore<2>;
template class PointStore<3>;

}  // namespace geo::core
