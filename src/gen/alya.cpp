#include "gen/alya.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gen/rgg.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace geo::gen {

namespace {

struct Segment {
    Point3 a;
    Point3 b;
    double radius;
};

/// Build a recursive bifurcating tube tree inside the unit cube.
void buildTree(std::vector<Segment>& out, Xoshiro256& rng, const Point3& start,
               Point3 direction, double length, double radius, int depth) {
    if (depth == 0 || length < 0.01) return;
    Point3 end = start + direction * length;
    for (int i = 0; i < 3; ++i) end[i] = std::clamp(end[i], 0.05, 0.95);
    out.push_back(Segment{start, end, radius});

    // Two children branching at ~35 degrees, slightly randomized, with the
    // classic airway radius reduction factor ~0.79 (Murray's law).
    for (int child = 0; child < 2; ++child) {
        const double azimuth = rng.uniform(0.0, 2.0 * M_PI);
        const double tilt = rng.uniform(0.4, 0.8) * (child == 0 ? 1.0 : -1.0);
        // Perturb the direction: rotate `direction` by tilt in a random
        // plane. Build an orthonormal frame around it.
        Point3 up{{0.0, 0.0, 1.0}};
        if (std::abs(dot(up, direction)) > 0.9) up = Point3{{1.0, 0.0, 0.0}};
        Point3 side{{direction[1] * up[2] - direction[2] * up[1],
                     direction[2] * up[0] - direction[0] * up[2],
                     direction[0] * up[1] - direction[1] * up[0]}};
        side /= std::max(norm(side), 1e-12);
        const Point3 side2{{direction[1] * side[2] - direction[2] * side[1],
                            direction[2] * side[0] - direction[0] * side[2],
                            direction[0] * side[1] - direction[1] * side[0]}};
        Point3 newDir = direction * std::cos(tilt) +
                        (side * std::cos(azimuth) + side2 * std::sin(azimuth)) * std::sin(tilt);
        newDir /= std::max(norm(newDir), 1e-12);
        buildTree(out, rng, end, newDir, length * rng.uniform(0.65, 0.8), radius * 0.79,
                  depth - 1);
    }
}

}  // namespace

Mesh3 alya3d(std::int64_t n, int depth, std::uint64_t seed) {
    GEO_REQUIRE(n >= 4, "need n >= 4 points");
    GEO_REQUIRE(depth >= 1, "need depth >= 1");
    Xoshiro256 rng(seed);

    std::vector<Segment> tree;
    buildTree(tree, rng, Point3{{0.5, 0.5, 0.92}}, Point3{{0.0, 0.0, -1.0}}, 0.3, 0.05,
              depth);
    GEO_CHECK(!tree.empty(), "tube tree construction produced no segments");

    // Sample points inside the tubes: pick a segment weighted by its
    // volume, then a uniform point in its cylinder.
    std::vector<double> cumVolume;
    double total = 0.0;
    for (const auto& s : tree) {
        total += s.radius * s.radius * distance(s.a, s.b);
        cumVolume.push_back(total);
    }

    Mesh3 mesh;
    mesh.name = "alya3d-n" + std::to_string(n) + "-d" + std::to_string(depth);
    mesh.meshClass = MeshClass::Dim3;
    mesh.points.reserve(static_cast<std::size_t>(n));
    while (static_cast<std::int64_t>(mesh.points.size()) < n) {
        const double pick = rng.uniform(0.0, total);
        const auto it = std::lower_bound(cumVolume.begin(), cumVolume.end(), pick);
        const auto& s = tree[static_cast<std::size_t>(it - cumVolume.begin())];
        const double t = rng.uniform();
        // Uniform point in the disk of radius s.radius.
        const double r = s.radius * std::sqrt(rng.uniform());
        const double phi = rng.uniform(0.0, 2.0 * M_PI);
        Point3 axis = s.b - s.a;
        axis /= std::max(norm(axis), 1e-12);
        Point3 up{{0.0, 0.0, 1.0}};
        if (std::abs(dot(up, axis)) > 0.9) up = Point3{{1.0, 0.0, 0.0}};
        Point3 side{{axis[1] * up[2] - axis[2] * up[1], axis[2] * up[0] - axis[0] * up[2],
                     axis[0] * up[1] - axis[1] * up[0]}};
        side /= std::max(norm(side), 1e-12);
        const Point3 side2{{axis[1] * side[2] - axis[2] * side[1],
                            axis[2] * side[0] - axis[0] * side[2],
                            axis[0] * side[1] - axis[1] * side[0]}};
        const Point3 p = s.a + (s.b - s.a) * t +
                         side * (r * std::cos(phi)) + side2 * (r * std::sin(phi));
        mesh.points.push_back(p);
    }

    // Radius graph calibrated to tetrahedral degree: mean spacing inside
    // the tubes is (tubeVolume/n)^(1/3); factor 2 gives ~14 neighbors.
    const double tubeVolume = total * M_PI;
    const double spacing = std::cbrt(tubeVolume / static_cast<double>(n));
    mesh.graph = radiusGraph<3>(mesh.points, 2.0 * spacing);

    // The radius graph on a branching cloud can leave stray isolated
    // points at thin branch tips; connect every isolated vertex to its
    // nearest sampled predecessor so the mesh is usable for BFS metrics.
    std::vector<graph::Vertex> isolated;
    for (graph::Vertex v = 0; v < mesh.graph.numVertices(); ++v)
        if (mesh.graph.degree(v) == 0) isolated.push_back(v);
    if (!isolated.empty()) {
        graph::GraphBuilder repair(mesh.graph.numVertices());
        for (graph::Vertex v = 0; v < mesh.graph.numVertices(); ++v)
            for (const auto u : mesh.graph.neighbors(v))
                if (u > v) repair.addEdge(v, u);
        for (const auto v : isolated) {
            // Nearest other point by brute force (few isolated vertices).
            graph::Vertex best = -1;
            double bestDist = std::numeric_limits<double>::infinity();
            for (graph::Vertex u = 0; u < mesh.graph.numVertices(); ++u) {
                if (u == v) continue;
                const double d = squaredDistance(mesh.points[static_cast<std::size_t>(u)],
                                                 mesh.points[static_cast<std::size_t>(v)]);
                if (d < bestDist) {
                    bestDist = d;
                    best = u;
                }
            }
            repair.addEdge(v, best);
        }
        mesh.graph = repair.build();
    }
    return mesh;
}

}  // namespace geo::gen
