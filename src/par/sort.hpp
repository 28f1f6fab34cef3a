// Distributed sorting and redistribution over the simulated runtime.
//
// Geographer's first phase globally sorts all points by Hilbert index and
// redistributes them so each rank holds a contiguous curve segment (§4.1).
// The paper uses the schizophrenic quicksort of Axtmann et al.; we implement
// the classic sample sort with regular sampling, which has the same
// communication structure (one splitter allgather + one alltoallv).
//
// Two properties beyond the seed implementation:
//
//   * Total order via (key, origin rank, local index) tags. Regular
//     sampling over heavily duplicated keys used to produce equal splitters
//     and near-empty ranks (every duplicate of a key landed on one rank);
//     the tags make every record distinct, so splitters can land *inside* a
//     duplicate run and spread it across ranks. The tags also make the
//     output a deterministic function of the input alone.
//   * Rank-local sorting runs through `parallelSort` — per-thread sorted
//     runs merged by a co-ranked parallel merge. Because the tagged
//     comparator is a strict total order, the sorted permutation is unique,
//     so the result is bitwise identical at every thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "par/comm.hpp"
#include "par/parallel_for.hpp"
#include "support/assert.hpp"

namespace geo::par {

namespace detail {

/// Co-rank of diagonal d in the merge of sorted runs a and b: the number of
/// elements drawn from `a` among the first d outputs, with ties resolved
/// toward `a` (std::merge stability). Binary search, O(log min(na, nb)).
template <typename T, typename Cmp>
std::size_t coRank(std::size_t d, const T* a, std::size_t na, const T* b,
                   std::size_t nb, Cmp cmp) {
    std::size_t lo = d > nb ? d - nb : 0;
    std::size_t hi = std::min(d, na);
    while (lo < hi) {
        const std::size_t i = lo + (hi - lo) / 2;
        const std::size_t j = d - i;  // >= 1 and <= nb by the bracket above
        if (cmp(a[i], b[j - 1])) {
            lo = i + 1;  // a[i] belongs to the prefix
        } else {
            hi = i;
        }
    }
    return lo;
}

/// Merge sorted runs a and b into `out`, split over `threads` workers at
/// output diagonals found by co-ranking. Each worker produces a disjoint
/// contiguous slice of the output, so the merge parallelizes without
/// synchronization; with a strict total order the output is the unique
/// sorted sequence regardless of the split.
template <typename T, typename Cmp>
void parallelMerge(int threads, const T* a, std::size_t na, const T* b,
                   std::size_t nb, T* out, Cmp cmp) {
    parallelFor(threads, na + nb, [&](std::size_t o0, std::size_t o1, int) {
        std::size_t i = coRank(o0, a, na, b, nb, cmp);
        std::size_t j = o0 - i;
        for (std::size_t o = o0; o < o1; ++o) {
            if (j >= nb || (i < na && !cmp(b[j], a[i]))) {
                out[o] = a[i++];
            } else {
                out[o] = b[j++];
            }
        }
    });
}

}  // namespace detail

/// Parallel multiway mergesort: per-thread sorted runs (std::sort) merged
/// pairwise with co-ranked parallel merges, ping-ponging through one spare
/// buffer. `cmp` MUST induce a strict total order (no two elements
/// equivalent) for the output to be independent of the thread count — with
/// ties, which run an element lands in depends on the chunking. All callers
/// in this codebase tag records to guarantee totality.
template <typename T, typename Cmp = std::less<T>>
void parallelSort(int threads, std::vector<T>& data, Cmp cmp = {}) {
    const std::size_t n = data.size();
    // Below the cutoff the spawn/merge bookkeeping costs more than it saves.
    constexpr std::size_t kSerialCutoff = 1u << 13;
    if (threads <= 1 || n <= kSerialCutoff) {
        std::sort(data.begin(), data.end(), cmp);
        return;
    }
    const auto runs = static_cast<std::size_t>(threads);
    std::vector<std::size_t> bounds(runs + 1);
    for (std::size_t r = 0; r <= runs; ++r) bounds[r] = n * r / runs;
    parallelFor(threads, runs, [&](std::size_t r0, std::size_t r1, int) {
        for (std::size_t r = r0; r < r1; ++r)
            std::sort(data.begin() + static_cast<std::ptrdiff_t>(bounds[r]),
                      data.begin() + static_cast<std::ptrdiff_t>(bounds[r + 1]), cmp);
    });

    std::vector<T> buffer(n);
    T* src = data.data();
    T* dst = buffer.data();
    while (bounds.size() > 2) {
        std::vector<std::size_t> next;
        next.reserve(bounds.size() / 2 + 2);
        next.push_back(0);
        std::size_t r = 0;
        for (; r + 2 < bounds.size(); r += 2) {
            detail::parallelMerge(threads, src + bounds[r], bounds[r + 1] - bounds[r],
                                  src + bounds[r + 1], bounds[r + 2] - bounds[r + 1],
                                  dst + bounds[r], cmp);
            next.push_back(bounds[r + 2]);
        }
        if (r + 2 == bounds.size()) {  // odd run count: carry the last run over
            std::copy(src + bounds[r], src + bounds[r + 1], dst + bounds[r]);
            next.push_back(bounds[r + 1]);
        }
        std::swap(src, dst);
        bounds = std::move(next);
    }
    if (src != data.data()) std::copy(src, src + n, data.data());
}

/// Globally sort (key, value) records by key across all ranks.
/// On return, each rank holds a sorted run and rank r's largest key is
/// <= rank r+1's smallest key. Sizes may differ slightly between ranks
/// (splitter granularity), as with any sample sort. Records with equal keys
/// are ordered by (origin rank, original local index), which both fixes the
/// duplicate-key splitter skew and makes the output deterministic.
template <typename Key, typename Value>
struct KeyedRecord {
    Key key;
    Value value;
    friend bool operator<(const KeyedRecord& a, const KeyedRecord& b) {
        return a.key < b.key;
    }
};

template <typename Key, typename Value>
std::vector<KeyedRecord<Key, Value>> sampleSort(Comm& comm,
                                                std::vector<KeyedRecord<Key, Value>> local,
                                                int oversampling = 16, int threads = 1) {
    using Record = KeyedRecord<Key, Value>;
    GEO_REQUIRE(local.size() < static_cast<std::size_t>(UINT32_MAX),
                "per-rank input exceeds the 32-bit tag range");

    /// (key, origin, index) — the strict total order everything sorts by.
    struct Tag {
        Key key;
        std::uint32_t origin;
        std::uint32_t index;
    };
    struct TaggedRecord {
        Tag tag;
        Value value;
    };
    const auto tagLess = [](const Tag& a, const Tag& b) {
        if (a.key != b.key) return a.key < b.key;
        if (a.origin != b.origin) return a.origin < b.origin;
        return a.index < b.index;
    };
    const auto recordLess = [&](const TaggedRecord& a, const TaggedRecord& b) {
        return tagLess(a.tag, b.tag);
    };

    const int p = comm.size();
    const auto myRank = static_cast<std::uint32_t>(comm.rank());
    std::vector<TaggedRecord> tagged(local.size());
    parallelFor(threads, local.size(), [&](std::size_t i0, std::size_t i1, int) {
        for (std::size_t i = i0; i < i1; ++i)
            tagged[i] = TaggedRecord{Tag{local[i].key, myRank, static_cast<std::uint32_t>(i)},
                                     local[i].value};
    });
    local.clear();
    local.shrink_to_fit();
    parallelSort(threads, tagged, recordLess);

    if (p > 1) {
        // Regular sampling: each rank contributes `oversampling` evenly
        // spaced tags from its sorted run (fewer if it holds fewer records).
        std::vector<Tag> samples;
        const std::size_t n = tagged.size();
        const int s = std::min<std::size_t>(static_cast<std::size_t>(oversampling), n);
        samples.reserve(static_cast<std::size_t>(s));
        for (int i = 0; i < s; ++i) {
            const std::size_t idx = (n * static_cast<std::size_t>(2 * i + 1)) /
                                    static_cast<std::size_t>(2 * s);
            samples.push_back(tagged[idx].tag);
        }
        std::vector<Tag> allSamples = comm.allgatherv(std::span<const Tag>(samples));
        std::sort(allSamples.begin(), allSamples.end(), tagLess);

        // p-1 splitters at regular positions in the sample.
        std::vector<Tag> splitters;
        splitters.reserve(static_cast<std::size_t>(p - 1));
        if (!allSamples.empty()) {
            for (int i = 1; i < p; ++i) {
                const std::size_t idx =
                    std::min(allSamples.size() - 1,
                             (allSamples.size() * static_cast<std::size_t>(i)) /
                                 static_cast<std::size_t>(p));
                splitters.push_back(allSamples[idx]);
            }
        }

        // Bucket local records by destination rank.
        std::vector<std::vector<TaggedRecord>> sendTo(static_cast<std::size_t>(p));
        std::size_t begin = 0;
        for (int dest = 0; dest < p; ++dest) {
            std::size_t end = tagged.size();
            if (dest < p - 1 && !splitters.empty()) {
                end = static_cast<std::size_t>(
                    std::upper_bound(tagged.begin() + static_cast<std::ptrdiff_t>(begin),
                                     tagged.end(), splitters[static_cast<std::size_t>(dest)],
                                     [&](const Tag& tag, const TaggedRecord& rec) {
                                         return tagLess(tag, rec.tag);
                                     }) -
                    tagged.begin());
            }
            sendTo[static_cast<std::size_t>(dest)].assign(
                tagged.begin() + static_cast<std::ptrdiff_t>(begin),
                tagged.begin() + static_cast<std::ptrdiff_t>(end));
            begin = end;
        }

        tagged = comm.alltoallv(sendTo);
        parallelSort(threads, tagged, recordLess);
    }

    std::vector<Record> out(tagged.size());
    parallelFor(threads, tagged.size(), [&](std::size_t i0, std::size_t i1, int) {
        for (std::size_t i = i0; i < i1; ++i)
            out[i] = Record{tagged[i].tag.key, tagged[i].value};
    });
    return out;
}

/// Rebalance sorted runs so every rank holds exactly its block-distribution
/// share: rank r gets records [r*N/p, (r+1)*N/p) of the global order.
/// Precondition: runs are globally sorted (as produced by sampleSort).
template <typename Record>
std::vector<Record> rebalanceSorted(Comm& comm, std::vector<Record> local) {
    const int p = comm.size();
    if (p == 1) return local;
    const auto localCount = static_cast<std::uint64_t>(local.size());
    const std::uint64_t before = comm.exscanSum(localCount);
    const std::uint64_t total = comm.allreduceSum(localCount);

    auto targetStart = [&](int r) {
        return (total * static_cast<std::uint64_t>(r)) / static_cast<std::uint64_t>(p);
    };

    std::vector<std::vector<Record>> sendTo(static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < local.size(); ++i) {
        const std::uint64_t globalPos = before + i;
        // Destination rank: the unique r with targetStart(r) <= pos < targetStart(r+1).
        int r = static_cast<int>((globalPos * static_cast<std::uint64_t>(p)) / std::max<std::uint64_t>(total, 1));
        while (r > 0 && globalPos < targetStart(r)) --r;
        while (r < p - 1 && globalPos >= targetStart(r + 1)) ++r;
        sendTo[static_cast<std::size_t>(r)].push_back(local[i]);
    }
    return comm.alltoallv(sendTo);
}

}  // namespace geo::par
