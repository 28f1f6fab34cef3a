// Budgeted, tiled SoA mirror of an active point set — the one shared point
// representation every per-layer private copy funnels into.
//
// The assignment engine (and before this store, the SFC keying and the
// snapshot build too) used to mirror all n active points into its own
// unbounded SoA arrays; at n = 10⁸ those duplicated mirrors — not the
// algorithm — are the memory wall. A PointStore materializes the active
// set in fixed 1024-point tiles grouped into budget-sized *waves*:
//
//   * budget = 0 (unlimited): one wave holds the whole active set,
//     gathered once per setActive — exactly the pre-budget behavior.
//   * budget > 0: a wave holds floor(budget / bytesPerPoint) points,
//     rounded down to a whole number of tiles (clamped up to one tile —
//     a budget smaller than one tile still makes progress). Each sweep
//     walks the waves in order; requesting a wave regenerates it from the
//     caller's points/weights via the active order (an O(wave) gather),
//     so only one wave's storage is ever allocated.
//
// Determinism contract (DESIGN.md "Memory model & tiling"): wave
// boundaries are multiples of the tile size, which equals the assignment
// engine's fixed cache block. The engine's reductions are left folds over
// per-block partials in ascending global block order; grouping blocks
// into waves and folding wave-by-wave (waves ascending, blocks within a
// wave ascending) is the same left fold — so chunked results are bitwise
// identical to the resident path at every budget and thread count.
//
// Accounting: residentBytes (tile storage currently allocated),
// peakResidentBytes (its high-water mark) and spilledTiles (refills beyond
// each tile's first fill — the price of running under budget). The engine
// surfaces these through KMeansCounters.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"

namespace geo::core {

template <int D>
class PointStore {
public:
    /// Points per tile. Matches the assignment engine's cache block (1024)
    /// so wave boundaries always fall on block boundaries; a static_assert
    /// in assign_kernel.cpp keeps the two in sync.
    static constexpr std::size_t kTilePoints = 1024;

    /// Storage bytes one point occupies: D coordinates + one weight.
    static constexpr std::uint64_t kBytesPerPoint = (D + 1) * sizeof(double);

    /// `points`/`weights` must outlive the store (weights may be empty =
    /// unit). `budgetBytes` = 0 means unlimited.
    PointStore(std::span<const Point<D>> points, std::span<const double> weights,
               std::uint64_t budgetBytes);

    /// Declare the active prefix order[0..activeCount): recompute the
    /// active bounding box, the wave geometry, and (when the budget allows
    /// residency) gather the whole set once. Unlike the pre-store engine,
    /// `order` is referenced, not copied — a chunked store regenerates
    /// waves from it on every pass, so it must stay valid and unchanged
    /// until the next setActive.
    void setActive(std::span<const std::size_t> order, std::size_t activeCount,
                   int threads);

    [[nodiscard]] std::size_t activeCount() const noexcept { return active_; }
    [[nodiscard]] const Box<D>& activeBox() const noexcept { return box_; }

    /// Whole active set resident in one always-loaded wave (budget 0 or
    /// large enough)?
    [[nodiscard]] bool resident() const noexcept { return resident_; }

    /// Wave capacity in points (a multiple of kTilePoints, or the whole
    /// active set when resident) and the number of waves covering the
    /// active set (0 when nothing is active).
    [[nodiscard]] std::size_t wavePoints() const noexcept { return wavePoints_; }
    [[nodiscard]] std::size_t waveCount() const noexcept { return waveCount_; }

    /// One materialized wave: slot j holds active index begin + j, i.e.
    /// point order[begin + j]. Pointers stay valid until the next wave()
    /// or setActive call.
    struct WaveView {
        std::size_t begin = 0;  ///< first active slot; multiple of kTilePoints
        std::size_t count = 0;
        std::array<const double*, static_cast<std::size_t>(D)> x{};
        const double* weight = nullptr;
    };

    /// Materialize wave `w` (gathering over `threads` workers when it is
    /// not already loaded) and return its view.
    [[nodiscard]] WaveView wave(std::size_t w, int threads);

    struct Accounting {
        std::uint64_t residentBytes = 0;      ///< tile storage currently held
        std::uint64_t peakResidentBytes = 0;  ///< high-water mark of the above
        std::uint64_t spilledTiles = 0;       ///< refills beyond each tile's first fill
    };
    [[nodiscard]] const Accounting& accounting() const noexcept { return acc_; }

private:
    void fill(std::size_t begin, std::size_t count, int threads);

    std::span<const Point<D>> points_;
    std::span<const double> weights_;
    std::uint64_t budget_ = 0;

    std::span<const std::size_t> order_;
    std::size_t active_ = 0;
    Box<D> box_ = Box<D>::empty();

    std::array<std::vector<double>, static_cast<std::size_t>(D)> sx_;
    std::vector<double> sw_;
    std::size_t wavePoints_ = 0;
    std::size_t waveCount_ = 0;
    std::size_t loadedWave_ = kNoWave;
    bool resident_ = true;
    std::vector<char> waveFilled_;  ///< per wave: gathered at least once

    Accounting acc_;

    static constexpr std::size_t kNoWave = static_cast<std::size_t>(-1);
};

extern template class PointStore<2>;
extern template class PointStore<3>;

}  // namespace geo::core
