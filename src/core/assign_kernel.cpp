#include "core/assign_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/tile_kernel.hpp"
#include "par/parallel_for.hpp"
#include "support/assert.hpp"

namespace geo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// How many sorted centers the batch kernel scans between lane-retirement
/// passes. A lane (point) is finished as soon as the next center's pruning
/// key exceeds its second-best — the seed algorithm's per-point break — so
/// the interval only bounds how many extra candidates a finished lane may
/// see before it is compacted away.
constexpr std::size_t kRetireInterval = 4;

}  // namespace

template <int D>
AssignEngine<D>::AssignEngine(std::span<const Point<D>> points,
                              std::span<const double> weights,
                              std::vector<std::size_t> order,
                              const Settings& settings, std::int32_t k)
    : points_(points),
      weights_(weights),
      order_(std::move(order)),
      settings_(settings),
      k_(k),
      budget_(settings.resolvedMemoryBudget()) {
    GEO_REQUIRE(k_ >= 1, "need at least one center");
    GEO_REQUIRE(weights_.empty() || weights_.size() == points_.size(),
                "weights must be empty or match points");
    GEO_REQUIRE(order_.size() <= points_.size(), "order lists more slots than points");
}

template <int D>
void AssignEngine<D>::setActive(std::size_t activeCount) {
    GEO_REQUIRE(activeCount <= order_.size(), "active count exceeds the order");
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
    // The points and the order are fixed for the engine's lifetime, so an
    // unchanged prefix has its box (and mirror, if any) current: skip the
    // O(active) pass over the points.
    if (active_ == activeCount) return;
    active_ = activeCount;
    const int threads = settings_.resolvedThreads();

    // Active bounding box: per-worker partial boxes merged serially — box
    // merge is exact coordinate min/max, so the result is thread-count
    // independent.
    box_ = Box<D>::empty();
    if (active_ > 0) {
        std::vector<Box<D>> partial(static_cast<std::size_t>(std::max(1, threads)),
                                    Box<D>::empty());
        par::parallelFor(threads, active_, [&](std::size_t s0, std::size_t s1, int worker) {
            Box<D> bb = Box<D>::empty();
            for (std::size_t s = s0; s < s1; ++s) bb.extend(points_[order_[s]]);
            partial[static_cast<std::size_t>(worker)] = bb;
        });
        for (const auto& bb : partial)
            if (bb.valid()) box_.extend(bb);
    }

    if (mirrored()) {
        for (auto& x : mirrorX_) x.resize(active_);
        mirrorW_.resize(active_);
        par::parallelFor(threads, active_, [&](std::size_t s0, std::size_t s1, int) {
            for (std::size_t s = s0; s < s1; ++s) {
                const std::size_t p = order_[s];
                for (int d = 0; d < D; ++d)
                    mirrorX_[static_cast<std::size_t>(d)][s] = points_[p][d];
                mirrorW_[s] = weights_.empty() ? 1.0 : weights_[p];
            }
        });
    } else {
        for (auto& x : mirrorX_) std::vector<double>().swap(x);
        std::vector<double>().swap(mirrorW_);
    }
    // merge() across engines maxes both mirror counters.
    counters_.residentBytes = mirrored() ? kBytesPerPoint * active_ : 0;
    counters_.peakTileBytes = std::max(counters_.peakTileBytes, counters_.residentBytes);
}

template <int D>
std::vector<std::int32_t> AssignEngine<D>::assignment() const {
    std::vector<std::int32_t> byPoint(points_.size(), -1);
    for (std::size_t s = 0; s < assignment_.size(); ++s) byPoint[order_[s]] = assignment_[s];
    return byPoint;
}

template <int D>
void AssignEngine<D>::beginRound(std::span<const Point<D>> centers,
                                 std::span<const double> influence) {
    GEO_REQUIRE(static_cast<std::int32_t>(centers.size()) == k_ &&
                    static_cast<std::int32_t>(influence.size()) == k_,
                "need one center and one influence value per cluster");
    centers_ = centers;
    influence_ = influence;
    const auto k = static_cast<std::size_t>(k_);
    const auto invInfluence2 = [&](std::size_t c) {
        const double inf = influence_[c];
        return 1.0 / (inf * inf);
    };
    run_.resize(k * (D + 2));
    sortedCenters_.resize(k);
    std::iota(sortedCenters_.begin(), sortedCenters_.end(), 0);
    // Keys are valid only when computed this round against this round's
    // box; without them (pruning off, or no active points) the kernel scans
    // every center in id order.
    keysValid_ = false;
    if (settings_.boundingBoxPruning && box_.valid()) {
        centerKey_.resize(k);
        for (std::int32_t c = 0; c < k_; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            centerKey_[ci] = box_.minSquaredDistance(centers_[ci]) * invInfluence2(ci);
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

    // The kernel's run form of the sorted centers, laid out once per round.
    for (std::size_t i = 0; i < k; ++i) {
        const auto c = static_cast<std::size_t>(sortedCenters_[i]);
        for (int d = 0; d < D; ++d) run_[static_cast<std::size_t>(d) * k + i] = centers_[c][d];
        run_[D * k + i] = invInfluence2(c);
        run_[(D + 1) * k + i] = static_cast<double>(c);
    }
}

/// The exclusive end of the run of sorted centers that starts at `begin`:
/// the batch kernel folds a run in one call and ends it where a
/// lane-retirement pass can retire anything. A pass follows every
/// kRetireInterval-th center and the second-to-last one; it retires a lane
/// once the next center's key exceeds the lane's second-best, which is
/// never negative, so only a pass whose next key is positive ends a run.
/// Keys ascend, so when every key is 0 — every center inside the active
/// box — all k centers are one run.
template <int D>
std::size_t AssignEngine<D>::runEnd(std::size_t begin) const {
    const auto k = static_cast<std::size_t>(k_);
    for (std::size_t ci = begin; keysValid_ && ci + 1 < k; ++ci) {
        const bool retireStep = (ci % kRetireInterval) == kRetireInterval - 1 || ci + 2 == k;
        if (retireStep && centerKey_[static_cast<std::size_t>(sortedCenters_[ci + 1])] > 0.0)
            return ci + 1;
    }
    return k;
}

/// Run `blockFn(s0, s1, worker, partial)` over every fixed block [s0, s1)
/// of the active slots, kChunkBlocks blocks at a time over `threads`
/// workers, and add each block's `out.size()`-wide partial into `out` in
/// ascending block order.
template <int D>
template <typename BlockFn>
void AssignEngine<D>::foldBlocks(int threads, std::vector<double>& partials,
                                 std::span<double> out, BlockFn&& blockFn) {
    const std::size_t stride = out.size();
    const std::size_t blocks = (active_ + kBlockSlots - 1) / kBlockSlots;
    partials.resize(std::min(blocks, kChunkBlocks) * stride);
    for (std::size_t first = 0; first < blocks; first += kChunkBlocks) {
        const std::size_t count = std::min(kChunkBlocks, blocks - first);
        par::parallelFor(threads, count, [&](std::size_t b0, std::size_t b1, int worker) {
            for (std::size_t b = b0; b < b1; ++b) {
                const std::size_t s0 = (first + b) * kBlockSlots;
                blockFn(s0, std::min(active_, s0 + kBlockSlots), worker,
                        &partials[b * stride]);
            }
        });
        for (std::size_t b = 0; b < count; ++b)
            for (std::size_t c = 0; c < stride; ++c) out[c] += partials[b * stride + c];
    }
}

template <int D>
void AssignEngine<D>::sweep(std::span<double> localSizes) {
    GEO_REQUIRE(static_cast<std::int32_t>(localSizes.size()) == k_,
                "localSizes must have one entry per cluster");
    std::fill(localSizes.begin(), localSizes.end(), 0.0);
    if (active_ == 0) return;
    GEO_CHECK(!centers_.empty(), "beginRound must precede sweep");

    const int threads = settings_.resolvedThreads();
    if (scratch_.size() < static_cast<std::size_t>(threads))
        scratch_.resize(static_cast<std::size_t>(threads));
    foldBlocks(threads, blockSizes_, localSizes,
               [&](std::size_t s0, std::size_t s1, int worker, double* blockSizes) {
                   processBlock(s0, s1, scratch_[static_cast<std::size_t>(worker)],
                                blockSizes);
               });
    // Counter merges are integer sums — order-independent.
    for (auto& scratch : scratch_) {
        counters_.merge(scratch.counters);
        scratch.counters = KMeansCounters{};
    }
}

template <int D>
void AssignEngine<D>::updateCenters(std::span<double> sums) {
    const auto stride = static_cast<std::size_t>(k_) * (D + 1);
    GEO_REQUIRE(sums.size() == stride, "sums must be k*(D+1) wide");
    std::fill(sums.begin(), sums.end(), 0.0);
    if (active_ == 0) return;

    const bool mirror = mirrored();
    foldBlocks(settings_.resolvedThreads(), blockSums_, sums,
               [&](std::size_t s0, std::size_t s1, int, double* partial) {
                   std::fill(partial, partial + stride, 0.0);
                   for (std::size_t s = s0; s < s1; ++s) {
                       double* row =
                           partial + static_cast<std::size_t>(assignment_[s]) * (D + 1);
                       if (mirror) {
                           const double weight = mirrorW_[s];
                           for (int d = 0; d < D; ++d)
                               row[d] += weight * mirrorX_[static_cast<std::size_t>(d)][s];
                           row[D] += weight;
                       } else {
                           const std::size_t p = order_[s];
                           const double weight = weights_.empty() ? 1.0 : weights_[p];
                           for (int d = 0; d < D; ++d) row[d] += weight * points_[p][d];
                           row[D] += weight;
                       }
                   }
               });
}

template <int D>
void AssignEngine<D>::processBlock(std::size_t s0, std::size_t s1, Scratch& scratch,
                                   double* blockSizes) {
    // Each worker sizes its own lanes, once, on its first block, so they sit
    // in that thread's malloc arena: sizing every worker's lanes on the
    // calling thread raised cold-mesh2d's set-up peak RSS by 0.6 MB.
    if (scratch.slots.empty()) {
        scratch.slots.resize(kBlockSlots);
        for (auto& x : scratch.gx) x.resize(kBlockSlots);
        for (auto* lane : {&scratch.best2, &scratch.second2, &scratch.bestC, &scratch.secondC})
            lane->resize(kBlockSlots);
    }
    const std::uint32_t cur = currentEpoch();
    const bool bounds = settings_.hamerlyBounds;
    const bool mirror = mirrored();
    const Epoch* epochs = epochs_.data();
    const std::int32_t* assignment = assignment_.data();
    double* ub = ub_.data();
    double* lb = lb_.data();
    std::uint32_t* epoch = epoch_.data();
    const std::size_t* order = order_.data();
    std::size_t* laneSlot = scratch.slots.data();
    std::array<double*, static_cast<std::size_t>(D)> gx;
    for (int d = 0; d < D; ++d)
        gx[static_cast<std::size_t>(d)] = scratch.gx[static_cast<std::size_t>(d)].data();

    // One pass over the block's slots: replay the epochs [seen, cur) a
    // point missed, in order (the same multiply/add per epoch the eager
    // sweeps performed), skip it when ub < lb proves its membership
    // unchanged, and queue every other point's slot in the next lane. The
    // queue write is unconditional and only the lane count depends on the
    // skip, so the loop has no branch on it.
    std::uint64_t skips = 0;
    std::uint64_t replays = 0;
    std::size_t m = 0;
    for (std::size_t s = s0; s < s1; ++s) {
        const std::int32_t c = assignment[s];
        bool skip = false;
        if (bounds && c >= 0) {
            const auto cluster = static_cast<std::size_t>(c);
            double u = ub[s];
            double l = lb[s];
            const std::uint32_t seen = epoch[s];
            if (seen != cur) {
                for (std::uint32_t e = seen; e < cur; ++e) epochs[e].replay(cluster, u, l);
                replays += cur - seen;
                ub[s] = u;
                lb[s] = l;
                epoch[s] = cur;
            }
            skip = u < l;
        }
        laneSlot[m] = s;
        m += !skip;
        skips += skip;
    }
    // The queued lanes' coordinates, from the mirror or from the caller's
    // points through the order.
    if (mirror) {
        for (int d = 0; d < D; ++d) {
            const double* src = mirrorX_[static_cast<std::size_t>(d)].data();
            double* dst = gx[static_cast<std::size_t>(d)];
            for (std::size_t j = 0; j < m; ++j) dst[j] = src[laneSlot[j]];
        }
    } else {
        for (std::size_t j = 0; j < m; ++j) {
            const Point<D>& p = points_[order[laneSlot[j]]];
            for (int d = 0; d < D; ++d) gx[static_cast<std::size_t>(d)][j] = p[d];
        }
    }
    scratch.counters.pointEvaluations += s1 - s0;
    scratch.counters.boundSkips += skips;
    scratch.counters.epochBoundApplications += replays;

    if (m > 0) batchKernel(scratch, m);

    // Per-block weighted sizes, accumulated in slot order within the block.
    std::fill(blockSizes, blockSizes + k_, 0.0);
    if (mirror) {
        const double* weight = mirrorW_.data();
        for (std::size_t s = s0; s < s1; ++s) blockSizes[assignment[s]] += weight[s];
    } else if (weights_.empty()) {
        for (std::size_t s = s0; s < s1; ++s) blockSizes[assignment[s]] += 1.0;
    } else {
        for (std::size_t s = s0; s < s1; ++s)
            blockSizes[assignment[s]] += weights_[order[s]];
    }
}

/// Centers-outer, lanes-inner squared-domain scan over one gathered block:
/// the shared tile kernel (core/tile_kernel.hpp) folds each run of sorted
/// centers (see runEnd) into the live lanes in one call, tracking best
/// and runner-up. After every run but the last, lanes whose per-point
/// pruning break has fired are materialized and compacted out, keeping the
/// live lanes contiguous.
template <int D>
void AssignEngine<D>::batchKernel(Scratch& scratch, std::size_t m) {
    std::fill_n(scratch.best2.begin(), m, kInf);
    std::fill_n(scratch.second2.begin(), m, kInf);
    std::fill_n(scratch.bestC.begin(), m, -1.0);
    std::fill_n(scratch.secondC.begin(), m, -1.0);
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

    const auto k = static_cast<std::size_t>(k_);
    std::size_t live = m;
    for (std::size_t begin = 0; live > 0;) {
        const std::size_t end = runEnd(begin);
        CenterRun<D> run;
        for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d)
            run.x[d] = run_.data() + d * k + begin;
        run.invInfluence2 = run_.data() + D * k + begin;
        run.id = run_.data() + (D + 1) * k + begin;
        run.size = end - begin;
        foldCenters<D, true>(lanes, live, run);
        scratch.counters.distanceCalcs += run.size * live;
        scratch.counters.batchedDistanceCalcs += run.size * live;
        if (end == k) break;
        begin = end;

        // Retire finished lanes. Keys are sorted ascending, so once
        // key[next] > second2[lane] holds, no remaining center can displace
        // the lane's best or runner-up: both are final.
        const double nextKey = centerKey_[static_cast<std::size_t>(sortedCenters_[end])];
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
    for (std::size_t j = 0; j < live; ++j) materialize(j);
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
