// Budgeted SoA mirror of an active point set, and its bounding box.
//
// The assignment engine (and before this store, the SFC keying and the
// snapshot build too) used to mirror all n active points into its own
// unbounded SoA arrays; at n = 10⁸ those duplicated mirrors — not the
// algorithm — are the memory wall. A PointStore holds the mirror only when
// it fits the byte budget:
//
//   * budget = 0 (unlimited), or kBytesPerPoint · active ≤ budget: the
//     active set is gathered once per setActive into per-dimension arrays
//     in active order (slot s holds point order[s]) — the pre-budget
//     behavior. A random (sampled) order is read through the mirror
//     sequentially instead of scattered across the caller's points.
//   * any larger active set: no mirror at all. The engine reads the
//     weights of each block, and the coordinates of only the points its
//     bounds cannot skip, straight from the caller's points/weights through
//     the order, so a pass copies no point it does not scan.
//
// Determinism contract (DESIGN.md "Memory model & tiling"): the mirror
// holds the caller's doubles unchanged, so both sources hand the engine the
// same bits, and the engine folds its per-block partials in the same order
// either way — results are bitwise identical at every budget and thread
// count.
//
// Accounting: residentBytes (mirror bytes currently held, 0 without one)
// and peakResidentBytes (its high-water mark). The engine surfaces these
// through KMeansCounters.
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
    /// Storage bytes one point occupies: D coordinates + one weight.
    static constexpr std::uint64_t kBytesPerPoint = (D + 1) * sizeof(double);

    /// `points`/`weights` must outlive the store (weights may be empty =
    /// unit). `budgetBytes` = 0 means unlimited.
    PointStore(std::span<const Point<D>> points, std::span<const double> weights,
               std::uint64_t budgetBytes);

    /// Declare the active prefix order[0..activeCount): recompute the
    /// active bounding box and, when the prefix fits the budget, gather the
    /// mirror; otherwise release any mirror held.
    void setActive(std::span<const std::size_t> order, std::size_t activeCount,
                   int threads);

    [[nodiscard]] std::size_t activeCount() const noexcept { return active_; }
    [[nodiscard]] const Box<D>& activeBox() const noexcept { return box_; }

    /// Does the store hold a mirror of the active set (budget 0, or
    /// kBytesPerPoint · active ≤ budget)?
    [[nodiscard]] bool resident() const noexcept { return resident_; }

    /// The mirror in active order: x[d][s] and weight[s] belong to point
    /// order[s]. All pointers are null when the store is not resident.
    /// Valid until the next setActive.
    struct Mirror {
        std::array<const double*, static_cast<std::size_t>(D)> x{};
        const double* weight = nullptr;
    };
    [[nodiscard]] Mirror mirror() const noexcept;

    struct Accounting {
        std::uint64_t residentBytes = 0;      ///< mirror bytes currently held
        std::uint64_t peakResidentBytes = 0;  ///< high-water mark of the above
    };
    [[nodiscard]] const Accounting& accounting() const noexcept { return acc_; }

private:
    std::span<const Point<D>> points_;
    std::span<const double> weights_;
    std::uint64_t budget_ = 0;

    std::size_t active_ = 0;
    Box<D> box_ = Box<D>::empty();

    std::array<std::vector<double>, static_cast<std::size_t>(D)> sx_;
    std::vector<double> sw_;
    bool resident_ = true;

    Accounting acc_;
};

extern template class PointStore<2>;
extern template class PointStore<3>;

}  // namespace geo::core
