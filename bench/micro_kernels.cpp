// Google-benchmark micro-kernels for the hot paths: Hilbert indexing
// (phase 1 of Geographer), the balanced k-means assignment sweep with and
// without the geometric optimizations, distributed sample sort, and the
// baseline partitioners.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "baseline/hsfc.hpp"
#include "baseline/multijagged.hpp"
#include "baseline/rcb.hpp"
#include "core/assign_kernel.hpp"
#include "core/balanced_kmeans.hpp"
#include "geometry/box.hpp"
#include "par/comm.hpp"
#include "par/sort.hpp"
#include "sfc/hilbert.hpp"
#include "support/rng.hpp"

namespace {

using namespace geo;

std::vector<Point2> points2(std::int64_t n, std::uint64_t seed = 1) {
    Xoshiro256 rng(seed);
    std::vector<Point2> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        pts.push_back(Point2{{rng.uniform(), rng.uniform()}});
    return pts;
}

std::vector<Point3> points3(std::int64_t n, std::uint64_t seed = 1) {
    Xoshiro256 rng(seed);
    std::vector<Point3> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        pts.push_back(Point3{{rng.uniform(), rng.uniform(), rng.uniform()}});
    return pts;
}

void BM_HilbertIndex2D(benchmark::State& state) {
    const auto pts = points2(state.range(0));
    const auto bb = Box2::around(std::span<const Point2>(pts));
    for (auto _ : state) {
        std::uint64_t acc = 0;
        for (const auto& p : pts) acc ^= sfc::hilbertIndex<2>(p, bb);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HilbertIndex2D)->Arg(1 << 14)->Arg(1 << 17);

void BM_HilbertIndex3D(benchmark::State& state) {
    const auto pts = points3(state.range(0));
    const auto bb = Box3::around(std::span<const Point3>(pts));
    for (auto _ : state) {
        std::uint64_t acc = 0;
        for (const auto& p : pts) acc ^= sfc::hilbertIndex<3>(p, bb);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HilbertIndex3D)->Arg(1 << 14)->Arg(1 << 17);

void kmeansBench(benchmark::State& state, bool hamerly, bool bbox) {
    const auto pts = points2(state.range(0));
    Xoshiro256 rng(7);
    std::vector<Point2> centers;
    for (int c = 0; c < 16; ++c)
        centers.push_back(Point2{{rng.uniform(), rng.uniform()}});
    core::Settings s;
    s.hamerlyBounds = hamerly;
    s.boundingBoxPruning = bbox;
    s.sampledInitialization = false;
    for (auto _ : state) {
        par::runSpmd(1, [&](par::Comm& comm) {
            auto out = core::balancedKMeans<2>(comm, pts, {}, centers, s);
            benchmark::DoNotOptimize(out.assignment.data());
        });
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BalancedKMeans_Optimized(benchmark::State& state) {
    kmeansBench(state, true, true);
}
BENCHMARK(BM_BalancedKMeans_Optimized)->Arg(1 << 14);

void BM_BalancedKMeans_NoBounds(benchmark::State& state) {
    kmeansBench(state, false, false);
}
BENCHMARK(BM_BalancedKMeans_NoBounds)->Arg(1 << 14);

// ---------------------------------------------------------------------------
// Assignment-sweep kernels (core/assign_kernel): one full sweep of the
// active points against k = 64 centers, bounds reset each iteration so every
// point is (re)assigned through the squared-domain SoA batch kernel; the
// T2/T4 variants add intra-rank threads.
// ---------------------------------------------------------------------------

template <int DIM>
std::vector<Point<DIM>> randomPointsDim(std::int64_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Point<DIM>> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        Point<DIM> p;
        for (int d = 0; d < DIM; ++d) p[d] = rng.uniform();
        pts.push_back(p);
    }
    return pts;
}

template <int DIM>
void assignSweepBench(benchmark::State& state, int threads) {
    const auto n = static_cast<std::int64_t>(state.range(0));
    const std::int32_t k = 64;
    const auto pts = randomPointsDim<DIM>(n, 3);
    const auto centers = randomPointsDim<DIM>(k, 5);
    Xoshiro256 rng(7);
    std::vector<double> influence;
    for (std::int32_t c = 0; c < k; ++c) influence.push_back(rng.uniform(0.8, 1.25));

    core::Settings s;
    s.threads = threads;
    std::vector<std::size_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), std::size_t{0});
    core::AssignEngine<DIM> engine(pts, {}, order, s, k);
    engine.setActive(order.size());
    std::vector<double> sizes(static_cast<std::size_t>(k), 0.0);
    for (auto _ : state) {
        engine.resetBounds();
        engine.beginRound(centers, influence);
        engine.sweep(sizes);
        benchmark::DoNotOptimize(sizes.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}

void BM_AssignSweep2D_Fast(benchmark::State& state) { assignSweepBench<2>(state, 1); }
void BM_AssignSweep2D_FastT2(benchmark::State& state) { assignSweepBench<2>(state, 2); }
void BM_AssignSweep2D_FastT4(benchmark::State& state) { assignSweepBench<2>(state, 4); }
void BM_AssignSweep3D_Fast(benchmark::State& state) { assignSweepBench<3>(state, 1); }
void BM_AssignSweep3D_FastT2(benchmark::State& state) { assignSweepBench<3>(state, 2); }
void BM_AssignSweep3D_FastT4(benchmark::State& state) { assignSweepBench<3>(state, 4); }
BENCHMARK(BM_AssignSweep2D_Fast)->Arg(1 << 17)->Arg(1 << 20);
BENCHMARK(BM_AssignSweep2D_FastT2)->Arg(1 << 20);
BENCHMARK(BM_AssignSweep2D_FastT4)->Arg(1 << 20);
BENCHMARK(BM_AssignSweep3D_Fast)->Arg(1 << 17)->Arg(1 << 20);
BENCHMARK(BM_AssignSweep3D_FastT2)->Arg(1 << 20);
BENCHMARK(BM_AssignSweep3D_FastT4)->Arg(1 << 20);

// Whole algorithm across the scenario grid the engine serves: full vs
// sampled initialization, unit vs weighted points. The sampled T2 variant
// walks a random active order on two threads — the case whose per-point
// state layout the assignment sweeps above (identity order) cannot show.
void kmeansEngineBench(benchmark::State& state, bool sampled, bool weighted,
                       int threads = 1) {
    const auto n = state.range(0);
    const auto pts = points2(n);
    Xoshiro256 rng(11);
    std::vector<double> weights;
    if (weighted)
        for (std::int64_t i = 0; i < n; ++i) weights.push_back(rng.below(9) + 1.0);
    std::vector<Point2> centers;
    for (int c = 0; c < 64; ++c) centers.push_back(Point2{{rng.uniform(), rng.uniform()}});
    core::Settings s;
    s.sampledInitialization = sampled;
    s.threads = threads;
    for (auto _ : state) {
        par::runSpmd(1, [&](par::Comm& comm) {
            auto out = core::balancedKMeans<2>(comm, pts, weights, centers, s);
            benchmark::DoNotOptimize(out.assignment.data());
        });
    }
    state.SetItemsProcessed(state.iterations() * n);
}

void BM_KMeansFull_Fast(benchmark::State& state) { kmeansEngineBench(state, false, false); }
void BM_KMeansSampled_Fast(benchmark::State& state) { kmeansEngineBench(state, true, false); }
void BM_KMeansSampled_FastT2(benchmark::State& state) {
    kmeansEngineBench(state, true, false, 2);
}
void BM_KMeansWeighted_Fast(benchmark::State& state) { kmeansEngineBench(state, false, true); }
BENCHMARK(BM_KMeansFull_Fast)->Arg(1 << 16);
BENCHMARK(BM_KMeansSampled_Fast)->Arg(1 << 16);
BENCHMARK(BM_KMeansSampled_FastT2)->Arg(1 << 16);
BENCHMARK(BM_KMeansWeighted_Fast)->Arg(1 << 16);

void BM_SampleSort(benchmark::State& state) {
    const auto perRank = state.range(0);
    for (auto _ : state) {
        par::runSpmd(4, [&](par::Comm& comm) {
            Xoshiro256 rng(10 + static_cast<std::uint64_t>(comm.rank()));
            std::vector<par::KeyedRecord<std::uint64_t, std::int64_t>> local;
            for (std::int64_t i = 0; i < perRank; ++i)
                local.push_back({rng(), i});
            auto sorted = par::sampleSort(comm, std::move(local));
            benchmark::DoNotOptimize(sorted.data());
        });
    }
    state.SetItemsProcessed(state.iterations() * perRank * 4);
}
BENCHMARK(BM_SampleSort)->Arg(1 << 13);

void BM_Rcb(benchmark::State& state) {
    const auto pts = points2(state.range(0));
    for (auto _ : state) {
        auto part = baseline::rcb<2>(pts, {}, 64);
        benchmark::DoNotOptimize(part.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rcb)->Arg(1 << 16);

void BM_MultiJagged(benchmark::State& state) {
    const auto pts = points2(state.range(0));
    for (auto _ : state) {
        auto part = baseline::multiJagged<2>(pts, {}, 64);
        benchmark::DoNotOptimize(part.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MultiJagged)->Arg(1 << 16);

void BM_Hsfc(benchmark::State& state) {
    const auto pts = points2(state.range(0));
    for (auto _ : state) {
        auto part = baseline::hsfc<2>(pts, {}, 64);
        benchmark::DoNotOptimize(part.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Hsfc)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
