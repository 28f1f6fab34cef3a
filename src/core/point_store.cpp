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
    order_ = order.first(activeCount);
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
                                 bb.extend(points_[order_[i]]);
                             partial[static_cast<std::size_t>(worker)] = bb;
                         });
        for (const auto& bb : partial)
            if (bb.valid()) box_.extend(bb);
    }

    // Wave geometry: whole set resident when it fits the budget; otherwise
    // budget-sized waves rounded down to whole tiles (clamped up to one
    // tile, so a sub-tile budget still makes progress).
    resident_ = budget_ == 0 || budget_ >= kBytesPerPoint * active_;
    if (resident_) {
        wavePoints_ = active_;
    } else {
        const auto budgetPoints = static_cast<std::size_t>(budget_ / kBytesPerPoint);
        wavePoints_ = std::max(kTilePoints, budgetPoints / kTilePoints * kTilePoints);
    }
    waveCount_ = active_ == 0 || wavePoints_ == 0
                     ? 0
                     : (active_ + wavePoints_ - 1) / wavePoints_;
    loadedWave_ = kNoWave;
    waveFilled_.assign(waveCount_, 0);

    const std::size_t capacity = std::min(wavePoints_, active_);
    for (int d = 0; d < D; ++d) sx_[static_cast<std::size_t>(d)].resize(capacity);
    sw_.resize(capacity);
    acc_.residentBytes = kBytesPerPoint * capacity;
    acc_.peakResidentBytes = std::max(acc_.peakResidentBytes, acc_.residentBytes);

    if (resident_ && active_ > 0) {
        fill(0, active_, threads);
        waveFilled_[0] = 1;
        loadedWave_ = 0;
    }
}

template <int D>
typename PointStore<D>::WaveView PointStore<D>::wave(std::size_t w, int threads) {
    GEO_REQUIRE(w < waveCount_, "wave index out of range");
    const std::size_t begin = w * wavePoints_;
    const std::size_t count = std::min(active_ - begin, wavePoints_);
    if (loadedWave_ != w) {
        fill(begin, count, threads);
        if (waveFilled_[w] != 0) acc_.spilledTiles += (count + kTilePoints - 1) / kTilePoints;
        waveFilled_[w] = 1;
        loadedWave_ = w;
    }
    WaveView view;
    view.begin = begin;
    view.count = count;
    for (int d = 0; d < D; ++d)
        view.x[static_cast<std::size_t>(d)] = sx_[static_cast<std::size_t>(d)].data();
    view.weight = sw_.data();
    return view;
}

template <int D>
void PointStore<D>::fill(std::size_t begin, std::size_t count, int threads) {
    par::parallelFor(threads, count, [&](std::size_t j0, std::size_t j1, int) {
        for (std::size_t j = j0; j < j1; ++j) {
            const std::size_t p = order_[begin + j];
            const Point<D>& pt = points_[p];
            for (int d = 0; d < D; ++d) sx_[static_cast<std::size_t>(d)][j] = pt[d];
            sw_[j] = weights_.empty() ? 1.0 : weights_[p];
        }
    });
}

template class PointStore<2>;
template class PointStore<3>;

}  // namespace geo::core
