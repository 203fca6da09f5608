// Geometry substrate benchmarks (google-benchmark): the incremental
// adjacency-maintained polyhedron vs full re-enumeration, AA's shared-
// phase-1 rectangle LPs vs independent solves, the warm-started
// extreme-point sweep vs per-query cold LPs, and the whole AA geometry
// (inner sphere plus rectangle) on its own (DESIGN.md §17).
//
// Mode argument convention (tools/bench_to_json.py --suite geometry):
// 0 = baseline (seed path: rebuild / independent / cold), 1 = variant
// (incremental / shared / warm). BM_GeoComputeAaGeometry has no mode: its
// arguments are {d, |H|}. Both paths produce identical results —
// bit-identical for cuts and AA rectangles, verdict-identical for the sweep.
// Each baseline is built from public API: production code has one path.
//
// Cut normals come from hypercube-uniform item pairs (PreferenceHalfspace),
// matching src/data/synthetic.cc: generic-position inputs keep the
// incremental path on its certified fast path. Offset-zero simplex-
// difference cuts would all pass through the barycenter and measure the
// degradation fallback instead (see test_geometry.cc
// CentralArrangementDegradesBitIdentical).
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/aa_state.h"
#include "geometry/convex_hull.h"
#include "geometry/halfspace.h"
#include "geometry/polyhedron.h"
#include "lp/simplex.h"

namespace isrl {
namespace {

// A preference cut between two hypercube-uniform items, oriented so the
// hidden utility point u stays feasible — the shape of a consistent EA/AA
// session, and a guarantee the region never empties mid-sequence.
Halfspace RandomItemCut(Rng& rng, const Vec& u, size_t d) {
  Vec a(d), b(d);
  for (size_t c = 0; c < d; ++c) {
    a[c] = rng.Uniform(0.0, 1.0);
    b[c] = rng.Uniform(0.0, 1.0);
  }
  if (Dot(u, a) >= Dot(u, b)) return PreferenceHalfspace(a, b);
  return PreferenceHalfspace(b, a);
}

// ---- Cut sequences: incremental adjacency maintenance vs full rebuild.
// The rebuild baseline enumerates C(d + k − 1, d − 1) subsets on the k-th
// cut; the incremental path touches only dead vertices and their incident
// edges. The baseline round-trips the polyhedron through its snapshot parts
// before each cut: the restored copy has no adjacency structure, so the cut
// re-enumerates in full. ----
void BM_GeoCutSequence(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const bool incremental = state.range(1) == 1;
  const size_t kCuts = 12;
  Rng rng(100 + d);
  const Vec u = rng.SimplexUniform(d);
  std::vector<Halfspace> cuts;
  for (size_t i = 0; i < kCuts; ++i) cuts.push_back(RandomItemCut(rng, u, d));
  for (auto _ : state) {
    Polyhedron p = Polyhedron::UnitSimplex(d);
    for (const Halfspace& h : cuts) {
      if (!incremental) {
        Result<Polyhedron> restored =
            Polyhedron::FromSnapshotParts(d, p.cuts(), p.vertices());
        p = std::move(restored.value());
      }
      p.Cut(h);
    }
    benchmark::DoNotOptimize(p.vertices());
  }
}
BENCHMARK(BM_GeoCutSequence)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({6, 0})
    ->Args({6, 1})
    ->Args({8, 0})
    ->Args({8, 1});

// ---- AA rectangle at the fig14 operating points: the 2d rectangle-extent
// LPs of ComputeAaGeometry, each solved alone by lp::SolveWithRecovery (seed
// path) vs all through one lp::FamilySolver, which runs simplex phase 1 once
// per escalation rung and replays it per member. This is the dominant
// per-round LP cost of AA at high d. Only the 2d solves are timed. ----
void BM_GeoAaGeometry(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const bool shared = state.range(1) == 1;
  const size_t kHalfspaces = 32;
  Rng rng(200 + d);
  Vec u = rng.SimplexUniform(d);
  std::vector<Halfspace> h;
  while (h.size() < kHalfspaces) {
    Vec a(d), b(d);
    for (size_t c = 0; c < d; ++c) {
      a[c] = rng.Uniform(0.0, 1.0);
      b[c] = rng.Uniform(0.0, 1.0);
    }
    const bool pref = Dot(u, a) >= Dot(u, b);
    h.push_back(PreferenceHalfspace(pref ? a : b, pref ? b : a));
  }
  // min/max u[i] over U ∩ H, modelled as ComputeAaGeometry models them.
  std::vector<lp::Model> models;
  for (size_t i = 0; i < d; ++i) {
    for (const lp::Sense sense : {lp::Sense::kMinimize, lp::Sense::kMaximize}) {
      lp::Model model;
      for (size_t v = 0; v < d; ++v) model.AddVariable(v == i ? 1.0 : 0.0);
      model.SetSense(sense);
      model.AddConstraint(Vec(d, 1.0), lp::Relation::kEq, 1.0);
      for (const Halfspace& hs : h) {
        model.AddConstraint(hs.normal, lp::Relation::kGe, hs.offset);
      }
      models.push_back(std::move(model));
    }
  }
  for (auto _ : state) {
    double sum = 0.0;
    if (shared) {
      lp::FamilySolver family;
      for (const lp::Model& model : models) sum += family.Solve(model).objective;
    } else {
      for (const lp::Model& model : models) {
        sum += lp::SolveWithRecovery(model).objective;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GeoAaGeometry)
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({15, 0})
    ->Args({15, 1})
    ->Args({20, 0})
    ->Args({20, 1});

// ---- The whole AA geometry: ComputeAaGeometry's inner-sphere LP plus its
// 2d rectangle LPs, on session-shaped H (hypercube items oriented around a
// hidden utility) at d × |H|. The inner sphere is the costly LP at high d
// (thousands of pivots at d=20), which BM_GeoAaGeometry above does not time.
// One path only: the checked-in table sets these times beside the parent
// commit's, measured on the same host. ----
void BM_GeoComputeAaGeometry(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t num_cuts = static_cast<size_t>(state.range(1));
  Rng rng(500 + d);
  const Vec u = rng.SimplexUniform(d);
  std::vector<LearnedHalfspace> h;
  while (h.size() < num_cuts) {
    LearnedHalfspace lh;
    lh.h = RandomItemCut(rng, u, d);
    h.push_back(lh);
  }
  for (auto _ : state) {
    AaGeometry geo = ComputeAaGeometry(d, h);
    benchmark::DoNotOptimize(geo);
  }
}
BENCHMARK(BM_GeoComputeAaGeometry)
    ->ArgsProduct({{5, 10, 20}, {8, 16, 32}})
    ->Unit(benchmark::kMicrosecond);

// ---- Extreme-point sweep: per-query cold LPs (fresh model each time) vs
// the shared patched model chaining optimal bases between queries. ----
void BM_GeoExtremeSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool warm = state.range(1) == 1;
  const size_t d = 6;
  Rng rng(300 + n);
  std::vector<Vec> pts;
  for (size_t i = 0; i < n; ++i) {
    Vec p(d);
    for (size_t c = 0; c < d; ++c) p[c] = rng.Uniform(0.0, 1.0);
    pts.push_back(p);
  }
  for (auto _ : state) {
    if (warm) {
      benchmark::DoNotOptimize(ExtremePointIndices(pts));
    } else {
      std::vector<size_t> extreme;
      for (size_t i = 0; i < n; ++i) {
        if (IsExtremePoint(pts, i)) extreme.push_back(i);
      }
      benchmark::DoNotOptimize(extreme);
    }
  }
}
BENCHMARK(BM_GeoExtremeSweep)
    ->Args({24, 0})
    ->Args({24, 1})
    ->Args({48, 0})
    ->Args({48, 1});

}  // namespace
}  // namespace isrl

// The system libbenchmark is compiled without NDEBUG and self-reports
// "debug" in the JSON context regardless of how isrl was built. Record the
// build type of the code under test so tools/bench_to_json.py can tell a
// debug-library warning from a debug-measurement problem.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("isrl_build_type", "release");
#else
  benchmark::AddCustomContext("isrl_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
