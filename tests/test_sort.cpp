#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "par/comm.hpp"
#include "par/sort.hpp"
#include "support/rng.hpp"

namespace {

using geo::par::Comm;
using geo::par::KeyedRecord;
using geo::par::runSpmd;

using Rec = KeyedRecord<std::uint64_t, int>;

/// Gather per-rank vectors into one global vector ordered by rank.
template <typename T>
std::vector<T> gatherAll(Comm& comm, const std::vector<T>& local) {
    return comm.allgatherv(std::span<const T>(local));
}

class SortParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(Shapes, SortParam,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(0, 1, 100, 1777)));

TEST_P(SortParam, ProducesGloballySortedPermutation) {
    const auto [p, perRank] = GetParam();
    runSpmd(p, [&](Comm& comm) {
        geo::Xoshiro256 rng(900 + static_cast<std::uint64_t>(comm.rank()));
        std::vector<Rec> local;
        for (int i = 0; i < perRank; ++i)
            local.push_back(Rec{rng(), comm.rank() * perRank + i});

        // Record the global multiset of inputs.
        auto inputAll = gatherAll(comm, local);

        auto sorted = geo::par::sampleSort(comm, local);
        EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));

        auto outputAll = gatherAll(comm, sorted);
        EXPECT_TRUE(std::is_sorted(outputAll.begin(), outputAll.end()));

        // Same multiset: sort both and compare keys+values.
        auto keyval = [](const Rec& r) { return std::pair(r.key, r.value); };
        std::sort(inputAll.begin(), inputAll.end(),
                  [&](const Rec& a, const Rec& b) { return keyval(a) < keyval(b); });
        std::sort(outputAll.begin(), outputAll.end(),
                  [&](const Rec& a, const Rec& b) { return keyval(a) < keyval(b); });
        ASSERT_EQ(inputAll.size(), outputAll.size());
        for (std::size_t i = 0; i < inputAll.size(); ++i) {
            EXPECT_EQ(inputAll[i].key, outputAll[i].key);
            EXPECT_EQ(inputAll[i].value, outputAll[i].value);
        }
    });
}

TEST(SampleSort, HandlesSkewedInput) {
    // All heavy keys on one rank; sort must still balance reasonably.
    const int p = 4, perRank = 2000;
    runSpmd(p, [&](Comm& comm) {
        geo::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(comm.rank()));
        std::vector<Rec> local;
        for (int i = 0; i < perRank; ++i) {
            // Rank 0 holds only small keys, others only large ones.
            const std::uint64_t key =
                comm.rank() == 0 ? rng.below(1000) : 1000000 + rng.below(1000000);
            local.push_back(Rec{key, i});
        }
        auto sorted = geo::par::sampleSort(comm, local);
        EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
        const auto total = comm.allreduceSum(static_cast<std::uint64_t>(sorted.size()));
        EXPECT_EQ(total, static_cast<std::uint64_t>(p * perRank));
        // No rank should hold everything (splitters must spread the data).
        EXPECT_LT(sorted.size(), static_cast<std::size_t>(p * perRank));
    });
}

TEST(SampleSort, AllEqualKeysDoNotCrash) {
    runSpmd(4, [&](Comm& comm) {
        std::vector<Rec> local(500, Rec{42, comm.rank()});
        auto sorted = geo::par::sampleSort(comm, local);
        const auto total = comm.allreduceSum(static_cast<std::uint64_t>(sorted.size()));
        EXPECT_EQ(total, 2000u);
        for (const auto& r : sorted) EXPECT_EQ(r.key, 42u);
    });
}

TEST(SampleSort, DuplicateHeavyKeysStaySpread) {
    // Regression for the degenerate-splitter skew: with heavily duplicated
    // keys, regular sampling used to produce equal splitters, and the
    // bucketing then sent every duplicate of a key — in the all-equal
    // extreme, the entire input — to one rank. Tie-breaking on
    // (key, origin rank, local index) lets splitters land *inside* a
    // duplicate run, so every rank keeps roughly its share.
    const int p = 4, perRank = 3000;
    runSpmd(p, [&](Comm& comm) {
        // All records share ONE key — the worst case.
        std::vector<Rec> local(perRank, Rec{7, comm.rank()});
        auto sorted = geo::par::sampleSort(comm, local);
        const auto total = comm.allreduceSum(static_cast<std::uint64_t>(sorted.size()));
        EXPECT_EQ(total, static_cast<std::uint64_t>(p * perRank));
        const double ideal = static_cast<double>(p * perRank) / p;
        EXPECT_LT(static_cast<double>(sorted.size()), 1.5 * ideal);
        EXPECT_GT(static_cast<double>(sorted.size()), 0.5 * ideal);

        // Few distinct keys, skewed multiplicities: still no starving rank.
        geo::Xoshiro256 rng(1200 + static_cast<std::uint64_t>(comm.rank()));
        std::vector<Rec> fewKeys;
        for (int i = 0; i < perRank; ++i) {
            const std::uint64_t key = rng.below(100) < 80 ? 5 : 5 + rng.below(3);
            fewKeys.push_back(Rec{key, comm.rank() * perRank + i});
        }
        auto spread = geo::par::sampleSort(comm, fewKeys);
        EXPECT_TRUE(std::is_sorted(spread.begin(), spread.end()));
        auto all = gatherAll(comm, spread);
        EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
        EXPECT_LT(static_cast<double>(spread.size()), 1.75 * ideal);
        EXPECT_GT(spread.size(), 0u);
    });
}

TEST(SampleSort, ThreadedSortBitwiseMatchesSerial) {
    // The tagged comparator is a strict total order, so the sorted
    // permutation is unique — the per-rank output must be identical at any
    // thread count, values included.
    const int p = 2, perRank = 20000;
    std::array<std::vector<Rec>, p> serial, threaded;
    for (const int threads : {1, 3}) {
        runSpmd(p, [&](Comm& comm) {
            geo::Xoshiro256 rng(1300 + static_cast<std::uint64_t>(comm.rank()));
            std::vector<Rec> local;
            for (int i = 0; i < perRank; ++i)
                local.push_back(Rec{rng.below(500), comm.rank() * perRank + i});
            auto sorted = geo::par::sampleSort(comm, local, 16, threads);
            auto& out = threads == 1 ? serial : threaded;
            out[static_cast<std::size_t>(comm.rank())] = std::move(sorted);
        });
    }
    for (int r = 0; r < p; ++r) {
        const auto& a = serial[static_cast<std::size_t>(r)];
        const auto& b = threaded[static_cast<std::size_t>(r)];
        ASSERT_EQ(a.size(), b.size()) << "rank " << r;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].key, b[i].key) << "rank " << r << " pos " << i;
            EXPECT_EQ(a[i].value, b[i].value) << "rank " << r << " pos " << i;
        }
    }
}

TEST(ParallelSort, UniqueOrderMatchesSerialSort) {
    // Direct unit test of the multiway mergesort: with a total order the
    // result equals std::sort bitwise at every thread count.
    using Item = std::pair<std::uint64_t, std::uint32_t>;
    geo::Xoshiro256 rng(1400);
    std::vector<Item> input;
    for (std::uint32_t i = 0; i < 60000; ++i)
        input.push_back({rng.below(1000), i});  // many duplicate keys, unique pairs
    auto expected = input;
    std::sort(expected.begin(), expected.end());
    for (const int threads : {1, 2, 5, 8}) {
        auto data = input;
        geo::par::parallelSort(threads, data);
        EXPECT_EQ(data, expected) << "threads " << threads;
    }
}

TEST(RebalanceSorted, EqualizesCounts) {
    const int p = 4;
    runSpmd(p, [&](Comm& comm) {
        // Wildly unequal sorted runs: rank r holds 100*(r+1)^2 records with
        // keys in its own disjoint range (already globally sorted).
        const int mine = 100 * (comm.rank() + 1) * (comm.rank() + 1);
        std::vector<Rec> local;
        for (int i = 0; i < mine; ++i)
            local.push_back(Rec{static_cast<std::uint64_t>(comm.rank()) * 1000000 +
                                    static_cast<std::uint64_t>(i),
                                comm.rank()});
        auto balanced = geo::par::rebalanceSorted(comm, local);
        const auto total = comm.allreduceSum(static_cast<std::uint64_t>(balanced.size()));
        const auto maxSize = comm.allreduceMax(static_cast<std::uint64_t>(balanced.size()));
        const auto minSize = comm.allreduceMin(static_cast<std::uint64_t>(balanced.size()));
        EXPECT_EQ(total, 100u * (1 + 4 + 9 + 16));
        EXPECT_LE(maxSize - minSize, 1u);
        // Global order is preserved.
        auto all = gatherAll(comm, balanced);
        EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    });
}

}  // namespace
