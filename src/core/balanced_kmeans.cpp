#include "core/balanced_kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/assign_kernel.hpp"
#include "geometry/box.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace geo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Convergence: the run stops once the largest center movement falls below
/// this fraction of the expected cluster radius (bbox diagonal / k^(1/d)).
constexpr double kDeltaThresholdFactor = 5e-3;

/// Points per rank in the first sampled-initialization round (§4.5); the
/// sample doubles every round.
constexpr std::size_t kInitialSampleSize = 100;

/// The local active order: identity, or a random permutation for the
/// sampled initialization (§4.5), whose growing prefix is the sample.
std::vector<std::size_t> activeOrder(std::size_t n, const Settings& settings, int rank) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (settings.sampledInitialization) {
        Xoshiro256 rng(settings.seed ^
                       (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rank + 1)));
        for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    }
    return order;
}

template <int D>
class BalancedKMeansRun {
public:
    BalancedKMeansRun(par::Comm& comm, std::span<const Point<D>> points,
                      std::span<const double> weights, std::vector<Point<D>> centers,
                      const Settings& settings)
        : comm_(comm),
          points_(points),
          weights_(weights),
          settings_(settings),
          k_(static_cast<std::int32_t>(centers.size())),
          centers_(std::move(centers)),
          engine_(points_, weights_, activeOrder(points.size(), settings, comm.rank()),
                  settings_, k_) {
        GEO_REQUIRE(k_ >= 1, "need at least one center");
        GEO_REQUIRE(weights_.empty() || weights_.size() == points_.size(),
                    "weights must be empty or match points");
        // Block size targets: uniform, or user-provided fractions
        // (heterogeneous architectures, paper footnote 1).
        if (settings_.targetFractions.empty()) {
            targetShare_.assign(static_cast<std::size_t>(k_),
                                1.0 / static_cast<double>(k_));
        } else {
            GEO_REQUIRE(static_cast<std::int32_t>(settings_.targetFractions.size()) == k_,
                        "need one target fraction per block");
            double sum = 0.0;
            for (const double f : settings_.targetFractions) {
                GEO_REQUIRE(f > 0.0, "target fractions must be positive");
                sum += f;
            }
            targetShare_.resize(static_cast<std::size_t>(k_));
            for (std::int32_t c = 0; c < k_; ++c)
                targetShare_[static_cast<std::size_t>(c)] =
                    settings_.targetFractions[static_cast<std::size_t>(c)] / sum;
        }
        const std::size_t n = points_.size();
        if (settings_.initialInfluence.empty()) {
            influence_.assign(static_cast<std::size_t>(k_), 1.0);
        } else {
            // Warm start: resume from the influence state of a previous run.
            GEO_REQUIRE(static_cast<std::int32_t>(settings_.initialInfluence.size()) == k_,
                        "need one initial influence value per block");
            for (const double inf : settings_.initialInfluence)
                GEO_REQUIRE(inf > 0.0, "initial influence values must be positive");
            influence_ = settings_.initialInfluence;
        }

        // Hoisted per-iteration buffers (reused across every round).
        const auto ks = static_cast<std::size_t>(k_);
        sums_.resize(ks * (D + 1));
        localSizes_.resize(ks);
        globalSizes_.resize(ks);
        delta_.resize(ks);
        ratio_.resize(ks);
        shift_.resize(ks);
        influenceBefore_.resize(ks);
        freshCenters_.resize(ks);

        // The sampled initialization starts from a prefix of the order.
        sampleSize_ = settings_.sampledInitialization ? std::min(kInitialSampleSize, n) : n;

        // Scale for the convergence threshold: expected cluster radius over
        // the global bounding box (some ranks may hold few/no points).
        const Box<D> globalBox = allreduceBox<D>(comm_, Box<D>::around(points_));
        clusterScale_ = expectedClusterRadius(globalBox.diagonal(), k_, D);
        deltaThreshold_ = kDeltaThresholdFactor * clusterScale_;
    }

    KMeansOutcome<D> run() {
        KMeansOutcome<D> out;
        const std::size_t n = points_.size();
        double imbalanceNow = kInf;
        bool converged = false;

        for (int iter = 0; iter < settings_.maxIterations; ++iter) {
            counters_.outerIterations = iter + 1;
            imbalanceNow = assignAndBalance();

            // New centers: weighted mean of assigned (active) points,
            // computed with one global reduction (Alg. 2 line 13). The
            // per-cluster sums run through the engine's threaded
            // block-ordered kernel over its SoA mirror of the active set.
            Timer updateTimer;
            engine_.updateCenters(sums_);
            comm_.allreduceSum(std::span<double>(sums_));

            freshCenters_ = centers_;
            std::fill(delta_.begin(), delta_.end(), 0.0);
            double maxDelta = 0.0;
            for (std::int32_t c = 0; c < k_; ++c) {
                const auto base = static_cast<std::size_t>(c) * (D + 1);
                const double w = sums_[base + D];
                if (w <= 0.0) continue;  // empty cluster keeps its center
                Point<D> fresh;
                for (int d = 0; d < D; ++d) fresh[d] = sums_[base + static_cast<std::size_t>(d)] / w;
                delta_[static_cast<std::size_t>(c)] =
                    distance(fresh, centers_[static_cast<std::size_t>(c)]);
                maxDelta = std::max(maxDelta, delta_[static_cast<std::size_t>(c)]);
                freshCenters_[static_cast<std::size_t>(c)] = fresh;
            }

            const bool sampleComplete = (comm_.allreduceMin<std::uint64_t>(
                                             sampleSize_ >= n ? 1 : 0) == 1);
            if (sampleComplete && maxDelta < deltaThreshold_) {
                // Alg. 2 line 14: return the assignment as produced by the
                // last AssignAndBalance, with the centers it used — the
                // assignment stays an exact weighted-Voronoi partition of
                // the returned (centers, influence) state.
                converged = true;
                updateSeconds_ += updateTimer.seconds();
                break;
            }
            std::swap(centers_, freshCenters_);

            // Influence erosion (Eq. 2–3): regress influence towards 1 as a
            // sigmoid of the moved distance over the mean cluster diameter.
            influenceBefore_ = influence_;
            if (settings_.influenceErosion) {
                const double beta = std::max(clusterScale_, 1e-300);
                for (std::int32_t c = 0; c < k_; ++c) {
                    const double x = delta_[static_cast<std::size_t>(c)] / beta;
                    const double alpha = 2.0 / (1.0 + std::exp(-x)) - 1.0;  // in [0, 1)
                    auto& inf = influence_[static_cast<std::size_t>(c)];
                    inf = std::exp((1.0 - alpha) * std::log(inf));
                }
            }

            // Centers moved by delta (and influence possibly eroded):
            // conservative Eq. 4–5 relaxation, O(k) — the per-point work
            // happens lazily when a point is next touched.
            for (std::int32_t c = 0; c < k_; ++c) {
                const auto ci = static_cast<std::size_t>(c);
                ratio_[ci] = influenceBefore_[ci] / influence_[ci];
                shift_[ci] = delta_[ci] / influence_[ci];
            }
            engine_.pushMoveEpoch(ratio_, shift_);
            updateSeconds_ += updateTimer.seconds();

            if (sampleSize_ < n) sampleSize_ = std::min(n, sampleSize_ * 2);
        }

        // Grow to the full point set if sampling never got there and do one
        // final assign-and-balance so every point has a block and balance is
        // enforced on the complete input.
        if (sampleSize_ < n) {
            sampleSize_ = n;
            engine_.resetBounds();
            imbalanceNow = assignAndBalance();
        } else if (!converged) {
            imbalanceNow = assignAndBalance();
        }

        counters_.merge(engine_.counters());
        out.assignment = engine_.assignment();
        out.centers = std::move(centers_);
        out.influence = std::move(influence_);
        out.assignmentInfluence = std::move(lastSweepInfluence_);
        out.imbalance = imbalanceNow;
        out.converged = converged;
        out.counters = counters_;
        out.assignSeconds = assignSeconds_;
        out.updateSeconds = updateSeconds_;
        return out;
    }

private:
    /// Algorithm 1: repeated assignment sweeps with influence adaptation
    /// until balance or maxBalanceIterations. Returns achieved imbalance.
    double assignAndBalance() {
        const Timer assignTimer;
        // Mirror the *active* local points into the engine's SoA arrays and
        // compute their bounding box (§4.4) — once per call, like the seed.
        engine_.setActive(sampleSize_);

        double imb = kInf;
        for (int round = 0; round < settings_.maxBalanceIterations; ++round) {
            counters_.balanceIterations++;

            engine_.beginRound(centers_, influence_);
            engine_.sweep(localSizes_);
            // The influence this sweep ran against — when the loop below
            // exits by exhaustion, adaptInfluence has already moved
            // influence_ past the state the (surviving) assignment is an
            // exact Voronoi partition of. KMeansOutcome reports both.
            lastSweepInfluence_.assign(influence_.begin(), influence_.end());

            globalSizes_ = localSizes_;
            comm_.allreduceSum(std::span<double>(globalSizes_));
            imb = imbalanceOf(globalSizes_);
            if (imb <= settings_.epsilon) break;

            adaptInfluence(globalSizes_);
        }
        assignSeconds_ += assignTimer.seconds();
        return imb;
    }

    /// Imbalance against the (possibly non-uniform) block size targets:
    /// max_c size_c / target_c − 1, with the paper's ceil rounding in the
    /// uniform case.
    double imbalanceOf(std::span<const double> globalSizes) const {
        const double total = std::accumulate(globalSizes.begin(), globalSizes.end(), 0.0);
        if (total <= 0.0) return 0.0;
        double worst = 0.0;
        const bool uniform = settings_.targetFractions.empty();
        for (std::int32_t c = 0; c < k_; ++c) {
            const double target =
                uniform ? std::ceil(total / static_cast<double>(k_))
                        : targetShare_[static_cast<std::size_t>(c)] * total;
            worst = std::max(worst, globalSizes[static_cast<std::size_t>(c)] /
                                        std::max(target, 1e-300));
        }
        return worst - 1.0;
    }

    /// Eq. 1 with the 5% cap: influence scales with the d-th root of the
    /// target/current size ratio. Replicated deterministically on all ranks.
    void adaptInfluence(std::span<const double> globalSizes) {
        const double total = std::accumulate(globalSizes.begin(), globalSizes.end(), 0.0);
        const double cap = settings_.influenceChangeCap;
        for (std::int32_t c = 0; c < k_; ++c) {
            const double target = targetShare_[static_cast<std::size_t>(c)] * total;
            const double size = globalSizes[static_cast<std::size_t>(c)];
            double factor;
            if (size <= 0.0) {
                factor = 1.0 + cap;  // empty cluster: attract as fast as allowed
            } else {
                const double gamma = target / size;
                factor = std::clamp(std::pow(gamma, 1.0 / static_cast<double>(D)),
                                    1.0 - cap, 1.0 + cap);
            }
            const double before = influence_[static_cast<std::size_t>(c)];
            influence_[static_cast<std::size_t>(c)] = before * factor;
            ratio_[static_cast<std::size_t>(c)] = before / influence_[static_cast<std::size_t>(c)];
        }
        engine_.pushInfluenceEpoch(ratio_);
    }

    par::Comm& comm_;
    std::span<const Point<D>> points_;
    std::span<const double> weights_;
    const Settings& settings_;
    std::int32_t k_;
    std::vector<double> targetShare_;
    std::vector<Point<D>> centers_;
    std::vector<double> influence_;
    AssignEngine<D> engine_;
    std::size_t sampleSize_ = 0;
    double clusterScale_ = 1.0;
    double deltaThreshold_ = 0.0;
    KMeansCounters counters_;
    double assignSeconds_ = 0.0;
    double updateSeconds_ = 0.0;

    // Hoisted buffers (one allocation for the whole run).
    std::vector<double> sums_, localSizes_, globalSizes_;
    std::vector<double> delta_, ratio_, shift_, influenceBefore_;
    std::vector<double> lastSweepInfluence_;
    std::vector<Point<D>> freshCenters_;
};

}  // namespace

template <int D>
KMeansOutcome<D> balancedKMeans(par::Comm& comm, std::span<const Point<D>> points,
                                std::span<const double> weights,
                                std::vector<Point<D>> centers, const Settings& settings) {
    BalancedKMeansRun<D> run(comm, points, weights, std::move(centers), settings);
    return run.run();
}

template KMeansOutcome<2> balancedKMeans<2>(par::Comm&, std::span<const Point2>,
                                            std::span<const double>, std::vector<Point2>,
                                            const Settings&);
template KMeansOutcome<3> balancedKMeans<3>(par::Comm&, std::span<const Point3>,
                                            std::span<const double>, std::vector<Point3>,
                                            const Settings&);

}  // namespace geo::core
