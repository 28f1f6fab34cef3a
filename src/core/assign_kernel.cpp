#include "core/assign_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/tile_kernel.hpp"
#include "par/parallel_for.hpp"
#include "support/assert.hpp"

namespace geo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Points per cache block. Fixed (never derived from the thread count) so
/// the per-block size partials — and with them every floating-point sum the
/// sweep and the center update produce — are identical at any
/// Settings::threads. Must equal the PointStore tile so wave boundaries
/// always fall on block boundaries (the chunked-path bitwise guarantee).
constexpr std::size_t kAssignBlock = 1024;
static_assert(kAssignBlock == PointStore<2>::kTilePoints &&
              kAssignBlock == PointStore<3>::kTilePoints);

}  // namespace

template <int D>
AssignEngine<D>::AssignEngine(std::span<const Point<D>> points,
                              std::span<const double> weights,
                              std::span<const std::size_t> order,
                              const Settings& settings, std::int32_t k)
    : points_(points),
      weights_(weights),
      order_(order),
      settings_(settings),
      k_(k),
      store_(points, weights, settings.resolvedMemoryBudget()) {
    GEO_REQUIRE(k_ >= 1, "need at least one center");
    GEO_REQUIRE(weights_.empty() || weights_.size() == points_.size(),
                "weights must be empty or match points");
    GEO_REQUIRE(order_.size() <= points_.size(), "order lists more slots than points");
    scratch_.resize(static_cast<std::size_t>(settings_.resolvedThreads()));
}

template <int D>
void AssignEngine<D>::setActive(std::size_t activeCount) {
    // The per-slot state is allocated on the first activation, not in the
    // constructor: the same bytes, but placed so that a process running many
    // k-means calls kept the smaller heap of the point-id layout (DESIGN.md
    // "Per-point state in slot order").
    if (assignment_.size() != order_.size()) {
        assignment_.assign(order_.size(), -1);
        ub_.assign(order_.size(), kInf);
        lb_.assign(order_.size(), 0.0);
        epoch_.assign(order_.size(), 0);
    }
    // The points and the order are fixed for the engine's lifetime, so a
    // resident store already holding this prefix has its mirror and box
    // current: skip the O(active) re-gather. A budgeted store goes through
    // setActive every time, which keeps its spill accounting as it was.
    if (store_.resident() && store_.activeCount() == activeCount) return;
    store_.setActive(order_, activeCount, settings_.resolvedThreads());
    recordStoreCounters();
}

template <int D>
std::vector<std::int32_t> AssignEngine<D>::assignment() const {
    std::vector<std::int32_t> byPoint(points_.size(), -1);
    for (std::size_t s = 0; s < assignment_.size(); ++s) byPoint[order_[s]] = assignment_[s];
    return byPoint;
}

/// Surface the store's accounting through KMeansCounters. The store totals
/// are cumulative over its lifetime, so they are assigned (peaks via max),
/// not added — merge() across engines then maxes peaks and sums spills.
template <int D>
void AssignEngine<D>::recordStoreCounters() {
    const auto& acc = store_.accounting();
    counters_.peakTileBytes = std::max(counters_.peakTileBytes, acc.peakResidentBytes);
    counters_.residentBytes = acc.residentBytes;
    counters_.spilledTiles = acc.spilledTiles;
}

template <int D>
void AssignEngine<D>::beginRound(std::span<const Point<D>> centers,
                                 std::span<const double> influence,
                                 const Box<D>& activeBox) {
    GEO_REQUIRE(static_cast<std::int32_t>(centers.size()) == k_ &&
                    static_cast<std::int32_t>(influence.size()) == k_,
                "need one center and one influence value per cluster");
    centers_ = centers;
    influence_ = influence;
    invInfluence2_.resize(static_cast<std::size_t>(k_));
    for (std::int32_t c = 0; c < k_; ++c) {
        const double inf = influence_[static_cast<std::size_t>(c)];
        invInfluence2_[static_cast<std::size_t>(c)] = 1.0 / (inf * inf);
    }
    sortedCenters_.resize(static_cast<std::size_t>(k_));
    std::iota(sortedCenters_.begin(), sortedCenters_.end(), 0);
    // The stale-key guard: keys are valid only when computed *this round*
    // against *this round's* box. A round with an invalid box (e.g. no
    // active points) must fall back to the unpruned scan — consulting keys
    // left over from an earlier round against the freshly reset identity
    // order would break the "remaining centers cannot win" argument and can
    // assign a point to the wrong cluster.
    keysValid_ = false;
    if (settings_.boundingBoxPruning && activeBox.valid()) {
        centerKey_.resize(static_cast<std::size_t>(k_));
        for (std::int32_t c = 0; c < k_; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            centerKey_[ci] = activeBox.minSquaredDistance(centers_[ci]) * invInfluence2_[ci];
        }
        // Ascending (key, id): every center inside the active box has key 0,
        // and the batch kernel keeps the first of exactly tied candidates,
        // so ordering equal keys by id is what makes a tie among them
        // resolve to the lowest id — the snapshot's rule.
        std::sort(sortedCenters_.begin(), sortedCenters_.end(),
                  [&](std::int32_t a, std::int32_t b) {
                      const double ka = centerKey_[static_cast<std::size_t>(a)];
                      const double kb = centerKey_[static_cast<std::size_t>(b)];
                      return ka < kb || (ka == kb && a < b);
                  });
        keysValid_ = true;
    }
}

template <int D>
void AssignEngine<D>::sweep(std::span<double> localSizes) {
    GEO_REQUIRE(static_cast<std::int32_t>(localSizes.size()) == k_,
                "localSizes must have one entry per cluster");
    std::fill(localSizes.begin(), localSizes.end(), 0.0);
    const std::size_t active = store_.activeCount();
    if (active == 0) return;
    GEO_CHECK(!centers_.empty(), "beginRound must precede sweep");

    const auto stride = static_cast<std::size_t>(k_);
    const std::size_t waveBlocks =
        (std::min(store_.wavePoints(), active) + kAssignBlock - 1) / kAssignBlock;
    blockSizes_.resize(waveBlocks * stride);
    const int threads = settings_.resolvedThreads();
    if (scratch_.size() < static_cast<std::size_t>(threads))
        scratch_.resize(static_cast<std::size_t>(threads));

    // Waves in ascending order, each wave's blocks in parallel; folding the
    // per-block partials wave-by-wave in ascending block order is the same
    // left fold the resident single-wave path performs, so localSizes is
    // bitwise identical at every budget and thread count.
    for (std::size_t w = 0; w < store_.waveCount(); ++w) {
        const auto wave = store_.wave(w, threads);
        const std::size_t blocks = (wave.count + kAssignBlock - 1) / kAssignBlock;
        par::parallelFor(threads, blocks,
                         [&](std::size_t b0, std::size_t b1, int worker) {
                             auto& scratch = scratch_[static_cast<std::size_t>(worker)];
                             for (std::size_t b = b0; b < b1; ++b)
                                 processBlock(wave, b, scratch, &blockSizes_[b * stride]);
                         });
        for (std::size_t b = 0; b < blocks; ++b)
            for (std::size_t c = 0; c < stride; ++c)
                localSizes[c] += blockSizes_[b * stride + c];
    }
    // Counter merges are integer sums — order-independent.
    for (auto& scratch : scratch_) {
        counters_.merge(scratch.counters);
        scratch.counters = KMeansCounters{};
    }
    recordStoreCounters();
}

template <int D>
void AssignEngine<D>::updateCenters(std::span<double> sums) {
    const auto stride = static_cast<std::size_t>(k_) * (D + 1);
    GEO_REQUIRE(sums.size() == stride, "sums must be k*(D+1) wide");
    std::fill(sums.begin(), sums.end(), 0.0);
    const std::size_t active = store_.activeCount();
    if (active == 0) return;

    const std::size_t waveBlocks =
        (std::min(store_.wavePoints(), active) + kAssignBlock - 1) / kAssignBlock;
    blockSums_.resize(waveBlocks * stride);
    const int threads = settings_.resolvedThreads();
    // Same wave-then-block left fold as sweep(): bitwise identical at every
    // budget and thread count.
    for (std::size_t w = 0; w < store_.waveCount(); ++w) {
        const auto wave = store_.wave(w, threads);
        const std::size_t blocks = (wave.count + kAssignBlock - 1) / kAssignBlock;
        par::parallelFor(
            threads, blocks, [&](std::size_t b0, std::size_t b1, int) {
                for (std::size_t b = b0; b < b1; ++b) {
                    double* partial = &blockSums_[b * stride];
                    std::fill(partial, partial + stride, 0.0);
                    const std::size_t j0 = b * kAssignBlock;
                    const std::size_t j1 = std::min(wave.count, j0 + kAssignBlock);
                    for (std::size_t j = j0; j < j1; ++j) {
                        const auto c =
                            static_cast<std::size_t>(assignment_[wave.begin + j]);
                        const double weight = wave.weight[j];
                        double* row = partial + c * (D + 1);
                        for (int d = 0; d < D; ++d)
                            row[d] += weight * wave.x[static_cast<std::size_t>(d)][j];
                        row[D] += weight;
                    }
                }
            });
        for (std::size_t b = 0; b < blocks; ++b)
            for (std::size_t c = 0; c < stride; ++c)
                sums[c] += blockSums_[b * stride + c];
    }
    recordStoreCounters();
}

template <int D>
void AssignEngine<D>::processBlock(const typename PointStore<D>::WaveView& wave,
                                   std::size_t block, Scratch& scratch,
                                   double* blockSizes) {
    const std::size_t j0 = block * kAssignBlock;
    const std::size_t j1 = std::min(wave.count, j0 + kAssignBlock);
    scratch.slots.clear();
    for (int d = 0; d < D; ++d) scratch.gx[static_cast<std::size_t>(d)].clear();

    // Tile lane j is active slot wave.begin + j: the block's bounds,
    // epochs and assignments are one contiguous slot range.
    for (std::size_t j = j0; j < j1; ++j) {
        const std::size_t slot = wave.begin + j;
        scratch.counters.pointEvaluations++;
        if (settings_.hamerlyBounds && assignment_[slot] >= 0) {
            applyEpochs(slot, scratch.counters);
            if (ub_[slot] < lb_[slot]) {
                scratch.counters.boundSkips++;  // membership provably unchanged
                continue;
            }
        }
        scratch.slots.push_back(slot);
        for (int d = 0; d < D; ++d)
            scratch.gx[static_cast<std::size_t>(d)].push_back(
                wave.x[static_cast<std::size_t>(d)][j]);
    }

    if (!scratch.slots.empty()) batchKernel(scratch, scratch.slots.size());

    // Per-block weighted sizes, accumulated in slot order within the block.
    for (std::int32_t c = 0; c < k_; ++c) blockSizes[c] = 0.0;
    for (std::size_t j = j0; j < j1; ++j)
        blockSizes[assignment_[wave.begin + j]] += wave.weight[j];
}

namespace {
/// How many sorted centers the batch kernel scans between lane-retirement
/// passes. A lane (point) is finished as soon as the next center's pruning
/// key exceeds its second-best — the seed algorithm's per-point break — so
/// the interval only bounds how many extra candidates a finished lane may
/// see before it is compacted away.
constexpr std::size_t kRetireInterval = 4;
}  // namespace

/// Centers-outer, lanes-inner squared-domain scan over one gathered block:
/// the shared tile kernel (core/tile_kernel.hpp) folds each sorted center
/// into the live lanes, tracking best and runner-up. Lanes whose per-point
/// pruning break has fired are materialized and compacted out every
/// kRetireInterval centers, keeping the live lanes contiguous; the pass
/// runs only when the next center's pruning key is positive.
template <int D>
void AssignEngine<D>::batchKernel(Scratch& scratch, std::size_t m) {
    scratch.best2.assign(m, kInf);
    scratch.second2.assign(m, kInf);
    scratch.bestC.assign(m, -1.0);
    scratch.secondC.assign(m, -1.0);
    const std::uint32_t cur = currentEpoch();

    // Materialize one lane: recompute the Hamerly bounds in the sqrt
    // domain with the seed algorithm's expression distance(p,c)/influence(c)
    // — never from the squared values, which can differ in the last ulp —
    // so ub/lb stay bitwise equal to the seed's (the only sqrts on this
    // path, at most two per assigned point). p is the lane's gathered
    // copy of the point: the same doubles, so the same bits.
    const auto materialize = [&](std::size_t j) {
        const std::size_t slot = scratch.slots[j];
        Point<D> p;
        for (int d = 0; d < D; ++d) p[d] = scratch.gx[static_cast<std::size_t>(d)][j];
        const auto bc = static_cast<std::int32_t>(scratch.bestC[j]);
        GEO_CHECK(bc >= 0, "assignment found no center");
        assignment_[slot] = bc;
        ub_[slot] = distance(p, centers_[static_cast<std::size_t>(bc)]) /
                    influence_[static_cast<std::size_t>(bc)];
        const auto sc = static_cast<std::int32_t>(scratch.secondC[j]);
        lb_[slot] = sc >= 0 ? distance(p, centers_[static_cast<std::size_t>(sc)]) /
                                  influence_[static_cast<std::size_t>(sc)]
                            : kInf;
        epoch_[slot] = cur;
    };

    TileLanes<D> lanes;
    for (int d = 0; d < D; ++d)
        lanes.x[static_cast<std::size_t>(d)] = scratch.gx[static_cast<std::size_t>(d)].data();
    lanes.best2 = scratch.best2.data();
    lanes.bestC = scratch.bestC.data();
    lanes.second2 = scratch.second2.data();
    lanes.secondC = scratch.secondC.data();

    std::size_t live = m;
    const std::size_t kCount = sortedCenters_.size();
    for (std::size_t ci = 0; ci < kCount && live > 0; ++ci) {
        const auto c = static_cast<std::size_t>(sortedCenters_[ci]);
        foldCenter<D, true>(lanes, live, centers_[c], invInfluence2_[c],
                            static_cast<double>(c));
        scratch.counters.distanceCalcs += live;
        scratch.counters.batchedDistanceCalcs += live;

        // Retire finished lanes. Keys are sorted ascending, so once
        // key[next] > second2[lane] holds, no remaining center can displace
        // the lane's best or runner-up: both are final. second2 is never
        // negative, so a pass against a key that is not positive (every
        // center inside the active box has key 0) retires nothing and is
        // skipped.
        const bool retireStep =
            keysValid_ && ci + 1 < kCount &&
            ((ci % kRetireInterval) == kRetireInterval - 1 || ci + 2 == kCount);
        const double nextKey =
            retireStep ? centerKey_[static_cast<std::size_t>(sortedCenters_[ci + 1])] : 0.0;
        if (nextKey > 0.0) {
            std::size_t w = 0;
            for (std::size_t j = 0; j < live; ++j) {
                if (nextKey > scratch.second2[j]) {
                    scratch.counters.bboxBreaks++;
                    materialize(j);
                    continue;
                }
                if (w != j) {
                    scratch.slots[w] = scratch.slots[j];
                    for (int d = 0; d < D; ++d)
                        scratch.gx[static_cast<std::size_t>(d)][w] =
                            scratch.gx[static_cast<std::size_t>(d)][j];
                    scratch.best2[w] = scratch.best2[j];
                    scratch.second2[w] = scratch.second2[j];
                    scratch.bestC[w] = scratch.bestC[j];
                    scratch.secondC[w] = scratch.secondC[j];
                }
                ++w;
            }
            live = w;
        }
    }
    for (std::size_t j = 0; j < live; ++j) materialize(j);
}

template <int D>
void AssignEngine<D>::applyEpochs(std::size_t slot, KMeansCounters& counters) {
    const std::uint32_t cur = currentEpoch();
    std::uint32_t e = epoch_[slot];
    if (e == cur) return;
    const auto c = static_cast<std::size_t>(assignment_[slot]);
    double ub = ub_[slot], lb = lb_[slot];
    counters.epochBoundApplications += cur - e;
    for (; e < cur; ++e) {
        const Epoch& ep = epochs_[e];
        if (ep.move) {
            ub = ub * ep.ratio[c] + ep.shift[c];
            lb = std::max(0.0, lb * ep.minRatio - ep.maxShift);
        } else {
            ub *= ep.ratio[c];
            lb *= ep.minRatio;
        }
    }
    ub_[slot] = ub;
    lb_[slot] = lb;
    epoch_[slot] = cur;
}

template <int D>
void AssignEngine<D>::pushInfluenceEpoch(std::span<const double> ratio) {
    if (!settings_.hamerlyBounds) return;
    GEO_REQUIRE(static_cast<std::int32_t>(ratio.size()) == k_,
                "need one ratio per cluster");
    Epoch epoch;
    epoch.ratio.assign(ratio.begin(), ratio.end());
    epoch.minRatio = *std::min_element(ratio.begin(), ratio.end());
    epoch.move = false;
    epochs_.push_back(std::move(epoch));
}

template <int D>
void AssignEngine<D>::pushMoveEpoch(std::span<const double> ratio,
                                    std::span<const double> shift) {
    if (!settings_.hamerlyBounds) return;
    GEO_REQUIRE(static_cast<std::int32_t>(ratio.size()) == k_ &&
                    static_cast<std::int32_t>(shift.size()) == k_,
                "need one ratio and shift per cluster");
    Epoch epoch;
    epoch.ratio.assign(ratio.begin(), ratio.end());
    epoch.shift.assign(shift.begin(), shift.end());
    epoch.minRatio = *std::min_element(ratio.begin(), ratio.end());
    epoch.maxShift = *std::max_element(shift.begin(), shift.end());
    epoch.move = true;
    epochs_.push_back(std::move(epoch));
}

template <int D>
void AssignEngine<D>::resetBounds() {
    std::fill(ub_.begin(), ub_.end(), kInf);
    std::fill(lb_.begin(), lb_.end(), 0.0);
    // Every point is now current, so no logged epoch can ever be replayed
    // again — drop the log instead of retaining O(rounds · k) dead state.
    epochs_.clear();
    std::fill(epoch_.begin(), epoch_.end(), 0u);
}

template class AssignEngine<2>;
template class AssignEngine<3>;

}  // namespace geo::core
