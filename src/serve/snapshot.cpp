#include "serve/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#include "core/tile_kernel.hpp"
#include "par/comm.hpp"
#include "support/assert.hpp"
#include "support/binio.hpp"

namespace geo::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every lookup rejects a NaN or infinite coordinate: it has no effective
/// distance to compare, and the kernel would answer it with block 0.
constexpr const char* kNonFiniteQuery = "query point coordinates must be finite";

/// Points per batch tile — matches the assignment engine's cache block, so
/// the kernel's working set (SoA lanes + best/bestC) stays L1/L2 resident.
constexpr std::size_t kRouteTile = 1024;

constexpr char kMagic[8] = {'G', 'E', 'O', 'S', 'N', 'P', '0', '1'};

template <typename T>
void writeRaw(std::ostream& out, const T& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void writeVec(std::ostream& out, const std::vector<T>& v) {
    if (!v.empty())
        out.write(reinterpret_cast<const char*>(v.data()),
                  static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Hard ceiling on a snapshot file: 4 GiB holds > 10^8 blocks of a 3D
/// flat diagram, far past the serving tier's reach. readAll enforces it
/// while slurping, so an oversized (or unbounded, e.g. piped) stream fails
/// at the cap instead of after exhausting memory.
constexpr std::size_t kMaxSnapshotBytes = std::size_t{1} << 32;

}  // namespace

template <int D>
void PartitionSnapshot<D>::finalize() {
    GEO_REQUIRE(!levels_.empty(), "snapshot needs at least one level");
    std::int64_t nodes = 1;
    for (auto& level : levels_) {
        GEO_REQUIRE(level.branching >= 1, "level branching must be at least 1");
        const auto entries =
            static_cast<std::size_t>(nodes) * static_cast<std::size_t>(level.branching);
        GEO_REQUIRE(level.influence.size() == entries,
                    "level influence size does not match node count × branching");
        for (int d = 0; d < D; ++d)
            GEO_REQUIRE(level.cx[static_cast<std::size_t>(d)].size() == entries,
                        "level center coordinates do not match node count × branching");
        level.invInfluence2.resize(entries);
        for (std::size_t i = 0; i < entries; ++i) {
            const double inf = level.influence[i];
            GEO_REQUIRE(inf > 0.0, "influence values must be positive");
            level.invInfluence2[i] = 1.0 / (inf * inf);
        }
        nodes *= level.branching;
        GEO_REQUIRE(nodes <= (std::int64_t{1} << 30), "snapshot block count overflows");
    }
    k_ = static_cast<std::int32_t>(nodes);
    GEO_REQUIRE(blockLeaf_.empty() ||
                    blockLeaf_.size() == static_cast<std::size_t>(k_),
                "block → leaf map must cover every block");
    GEO_REQUIRE(blockRank_.empty() ||
                    blockRank_.size() == static_cast<std::size_t>(k_),
                "block → rank map must cover every block");
    // Value validation matters for load(): a corrupt-but-structurally-valid
    // stream must fail here, not hand a serving process garbage leaf/rank
    // ids to index its dispatch structures with.
    for (const std::int32_t leaf : blockLeaf_)
        GEO_REQUIRE(leaf >= 0 && leaf < k_, "block → leaf map entry out of range");
    for (const std::int32_t rank : blockRank_)
        GEO_REQUIRE(rank >= 0, "block → rank map entry out of range");

    if (depth() == 1 && k_ >= kKdTreeFromK) {
        const Level& flat = levels_.front();
        std::vector<Point<D>> centers(static_cast<std::size_t>(k_));
        for (std::int32_t c = 0; c < k_; ++c)
            for (int d = 0; d < D; ++d)
                centers[static_cast<std::size_t>(c)][d] =
                    flat.cx[static_cast<std::size_t>(d)][static_cast<std::size_t>(c)];
        tree_.emplace(centers, flat.influence);
    }
}

template <int D>
PartitionSnapshot<D> PartitionSnapshot<D>::fromCenters(
    std::span<const Point<D>> centers, std::span<const double> influence,
    std::uint64_t version, int ranks) {
    GEO_REQUIRE(!centers.empty(), "snapshot needs at least one center");
    GEO_REQUIRE(centers.size() == influence.size(),
                "need one influence value per center");
    PartitionSnapshot snap;
    snap.version_ = version;
    Level level;
    level.branching = static_cast<std::int32_t>(centers.size());
    for (int d = 0; d < D; ++d)
        level.cx[static_cast<std::size_t>(d)].resize(centers.size());
    for (std::size_t c = 0; c < centers.size(); ++c)
        for (int d = 0; d < D; ++d)
            level.cx[static_cast<std::size_t>(d)][c] = centers[c][d];
    level.influence.assign(influence.begin(), influence.end());
    snap.levels_.push_back(std::move(level));
    if (ranks >= 1)
        snap.blockRank_ =
            par::blockRankMap(static_cast<std::int64_t>(centers.size()), ranks);
    snap.finalize();
    return snap;
}

template <int D>
PartitionSnapshot<D> PartitionSnapshot<D>::fromResult(
    const core::GeographerResult& result, std::uint64_t version, int ranks) {
    const auto centers = core::unflattenCenters<D>(result.centerCoords);
    const auto& influence = result.assignmentInfluence.empty()
                                ? result.influence
                                : result.assignmentInfluence;
    return fromCenters(centers, influence, version, ranks);
}

template <int D>
PartitionSnapshot<D> PartitionSnapshot<D>::fromState(
    const repart::RepartState<D>& state, std::uint64_t version, int ranks) {
    return fromCenters(std::span<const Point<D>>(state.centers), state.influence,
                       version, ranks);
}

template <int D>
PartitionSnapshot<D> PartitionSnapshot<D>::fromHierResult(
    const hier::HierResult& result, const hier::Topology& topo, std::uint64_t version,
    int ranks) {
    topo.validate();
    const std::int32_t k = topo.leafCount();
    PartitionSnapshot snap;
    snap.version_ = version;

    // Breadth-first level offsets, mirroring the HierRun node numbering.
    std::size_t nodesAtLevel = 1;
    std::size_t offset = 0;
    for (int l = 0; l < topo.depth(); ++l) {
        const auto& tl = topo.levels[static_cast<std::size_t>(l)];
        const auto b = static_cast<std::size_t>(tl.branching);
        Level level;
        level.branching = tl.branching;
        const std::size_t entries = nodesAtLevel * b;
        for (int d = 0; d < D; ++d)
            level.cx[static_cast<std::size_t>(d)].resize(entries);
        level.influence.resize(entries);
        for (std::size_t node = 0; node < nodesAtLevel; ++node) {
            GEO_REQUIRE(offset + node < result.nodeDiagrams.size(),
                        "HierResult node diagrams do not cover the topology");
            const auto& diagram = result.nodeDiagrams[offset + node];
            GEO_REQUIRE(diagram.centerCoords.size() == b * D &&
                            diagram.influence.size() == b,
                        "node diagram does not match the level branching");
            for (std::size_t c = 0; c < b; ++c) {
                for (int d = 0; d < D; ++d)
                    level.cx[static_cast<std::size_t>(d)][node * b + c] =
                        diagram.centerCoords[c * D + static_cast<std::size_t>(d)];
                level.influence[node * b + c] = diagram.influence[c];
            }
        }
        snap.levels_.push_back(std::move(level));
        offset += nodesAtLevel;
        nodesAtLevel *= b;
    }

    snap.blockLeaf_ = result.blockLeaf;
    if (ranks >= 1) {
        const auto leafRank = topo.leafRankMap(ranks);
        snap.blockRank_.resize(static_cast<std::size_t>(k));
        for (std::int32_t blk = 0; blk < k; ++blk) {
            const std::int32_t leaf = snap.blockLeaf_.empty()
                                          ? blk
                                          : snap.blockLeaf_[static_cast<std::size_t>(blk)];
            snap.blockRank_[static_cast<std::size_t>(blk)] =
                leafRank[static_cast<std::size_t>(leaf)];
        }
    }
    snap.finalize();
    GEO_CHECK(snap.k_ == k, "snapshot block count must equal the topology leaf count");
    return snap;
}

template <int D>
std::int32_t PartitionSnapshot<D>::leafOf(std::int32_t block) const {
    GEO_REQUIRE(block >= 0 && block < k_, "block id out of range");
    return blockLeaf_.empty() ? block : blockLeaf_[static_cast<std::size_t>(block)];
}

template <int D>
std::int32_t PartitionSnapshot<D>::rankOf(std::int32_t block) const {
    GEO_REQUIRE(block >= 0 && block < k_, "block id out of range");
    return blockRank_.empty() ? -1 : blockRank_[static_cast<std::size_t>(block)];
}

/// Single-point lookup. A one-lane pass through the branchless tile kernel
/// would be latency-bound (each center's min/select waits on the last), so
/// this path scans with a predictable branch instead — the same e2
/// arithmetic, centers in id order, strict `<`: the tile kernel's answer
/// and tie rule.
template <int D>
std::int32_t PartitionSnapshot<D>::blockOf(const Point<D>& p) const {
    GEO_REQUIRE(core::detail::allFinite<D>(std::span<const Point<D>>(&p, 1), {}),
                kNonFiniteQuery);
    if (tree_) return tree_->nearest(p);
    std::int64_t node = 0;
    for (const Level& level : levels_) {
        const auto b = static_cast<std::size_t>(level.branching);
        const std::size_t base = static_cast<std::size_t>(node) * b;
        double best2 = kInf;
        std::size_t best = 0;
        for (std::size_t c = 0; c < b; ++c) {
            double d2 = 0.0;
            for (int d = 0; d < D; ++d) {
                const double diff = p[d] - level.cx[static_cast<std::size_t>(d)][base + c];
                d2 += diff * diff;
            }
            const double e2 = d2 * level.invInfluence2[base + c];
            if (e2 < best2) {
                best2 = e2;
                best = c;
            }
        }
        node = node * level.branching + static_cast<std::int64_t>(best);
    }
    return static_cast<std::int32_t>(node);
}

/// One tile of a flat linear-scan snapshot: the points are gathered into SoA
/// lanes and the shared tile kernel (core/tile_kernel.hpp) folds every
/// center into them in id order, so an exact tie resolves to the lowest id.
/// Tree and hierarchical snapshots answer point by point.
template <int D>
void PartitionSnapshot<D>::routeTile(const Point<D>* pts, std::size_t count,
                                     std::int32_t* out) const {
    if (tree_ || depth() > 1) {
        for (std::size_t i = 0; i < count; ++i) out[i] = blockOf(pts[i]);
        return;
    }
    double gx[static_cast<std::size_t>(D)][kRouteTile];
    double best2[kRouteTile];
    double bestC[kRouteTile];
    bool finite = true;
    for (std::size_t i = 0; i < count; ++i) {
        for (int d = 0; d < D; ++d) {
            gx[static_cast<std::size_t>(d)][i] = pts[i][d];
            finite &= std::isfinite(pts[i][d]);
        }
        best2[i] = kInf;
        bestC[i] = 0.0;
    }
    GEO_REQUIRE(finite, kNonFiniteQuery);
    core::TileLanes<D> lanes;
    for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d) lanes.x[d] = gx[d];
    lanes.best2 = best2;
    lanes.bestC = bestC;
    const Level& flat = levels_.front();
    for (std::size_t c = 0; c < static_cast<std::size_t>(flat.branching); ++c) {
        Point<D> center;
        for (int d = 0; d < D; ++d) center[d] = flat.cx[static_cast<std::size_t>(d)][c];
        core::foldCenter<D, false>(lanes, count, center, flat.invInfluence2[c],
                                   static_cast<double>(c));
    }
    for (std::size_t i = 0; i < count; ++i) out[i] = static_cast<std::int32_t>(bestC[i]);
}

template <int D>
void PartitionSnapshot<D>::blockOf(std::span<const Point<D>> points,
                                   std::span<std::int32_t> blocks) const {
    GEO_REQUIRE(points.size() == blocks.size(),
                "need one output slot per query point");
    for (std::size_t i0 = 0; i0 < points.size(); i0 += kRouteTile)
        routeTile(points.data() + i0, std::min(kRouteTile, points.size() - i0),
                  blocks.data() + i0);
}

template <int D>
void PartitionSnapshot<D>::save(std::ostream& out) const {
    out.write(kMagic, sizeof(kMagic));
    writeRaw<std::uint32_t>(out, static_cast<std::uint32_t>(D));
    writeRaw<std::uint64_t>(out, version_);
    writeRaw<std::int32_t>(out, k_);
    writeRaw<std::int32_t>(out, static_cast<std::int32_t>(levels_.size()));
    for (const Level& level : levels_) {
        writeRaw<std::int32_t>(out, level.branching);
        writeRaw<std::uint64_t>(out, static_cast<std::uint64_t>(level.influence.size()));
        for (int d = 0; d < D; ++d) writeVec(out, level.cx[static_cast<std::size_t>(d)]);
        writeVec(out, level.influence);
    }
    writeRaw<std::uint8_t>(out, blockLeaf_.empty() ? 0 : 1);
    writeVec(out, blockLeaf_);
    writeRaw<std::uint8_t>(out, blockRank_.empty() ? 0 : 1);
    writeVec(out, blockRank_);
    GEO_REQUIRE(out.good(), "snapshot write failed");
}

template <int D>
void PartitionSnapshot<D>::save(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    GEO_REQUIRE(out.is_open(), "cannot open snapshot file for writing");
    save(out);
}

template <int D>
PartitionSnapshot<D> PartitionSnapshot<D>::load(std::istream& in) {
    // Slurp-then-decode through the shared binio primitives (the same ones
    // the socket transport's wire codec uses): every read — fixed field or
    // counted array — is bounds-checked against the bytes actually present
    // BEFORE any allocation, so a truncated or hostile stream fails with a
    // clean error instead of a giant vector construction; expectEnd at the
    // bottom rejects oversized input carrying trailing bytes.
    const std::vector<std::byte> buf = binio::readAll(in, kMaxSnapshotBytes);
    binio::Reader r(buf);

    const std::vector<std::byte> magic = r.remaining() >= sizeof(kMagic)
                                             ? r.bytes(sizeof(kMagic))
                                             : std::vector<std::byte>{};
    GEO_REQUIRE(magic.size() == sizeof(kMagic) &&
                    std::memcmp(magic.data(), kMagic, sizeof(kMagic)) == 0,
                "not a partition snapshot (bad magic)");
    GEO_REQUIRE(r.u32() == static_cast<std::uint32_t>(D),
                "snapshot dimension does not match");
    PartitionSnapshot snap;
    snap.version_ = r.u64();
    const auto k = r.i32();
    const auto depth = r.i32();
    GEO_REQUIRE(k >= 1 && k <= (std::int32_t{1} << 30) && depth >= 1 && depth <= 64,
                "corrupt snapshot header");
    // Structural validation on top of the byte bounds: entry counts must
    // also match the level product, so a stream that is long enough but
    // structurally inconsistent still fails loudly.
    std::int64_t nodes = 1;
    for (std::int32_t l = 0; l < depth; ++l) {
        Level level;
        level.branching = r.i32();
        GEO_REQUIRE(level.branching >= 1 &&
                        nodes * level.branching <= (std::int64_t{1} << 30),
                    "corrupt snapshot (bad level branching)");
        const std::uint64_t entries = r.u64();
        GEO_REQUIRE(entries ==
                        static_cast<std::uint64_t>(nodes * level.branching),
                    "corrupt snapshot (level entry count mismatch)");
        for (int d = 0; d < D; ++d)
            level.cx[static_cast<std::size_t>(d)] =
                r.vec<double>(static_cast<std::size_t>(entries));
        level.influence = r.vec<double>(static_cast<std::size_t>(entries));
        snap.levels_.push_back(std::move(level));
        nodes *= level.branching;
    }
    GEO_REQUIRE(nodes == k, "corrupt snapshot (level product != block count)");
    if (r.u8() != 0)
        snap.blockLeaf_ = r.vec<std::int32_t>(static_cast<std::size_t>(k));
    if (r.u8() != 0)
        snap.blockRank_ = r.vec<std::int32_t>(static_cast<std::size_t>(k));
    r.expectEnd("partition snapshot");
    snap.finalize();
    GEO_CHECK(snap.k_ == k, "snapshot block count diverged from its header");
    return snap;
}

template <int D>
PartitionSnapshot<D> PartitionSnapshot<D>::load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    GEO_REQUIRE(in.is_open(), "cannot open snapshot file for reading");
    return load(in);
}

template class PartitionSnapshot<2>;
template class PartitionSnapshot<3>;

}  // namespace geo::serve
