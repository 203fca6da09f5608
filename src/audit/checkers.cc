#include "audit/checkers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/strings.h"

namespace isrl::audit {
namespace {

bool AllFinite(const Vec& v) {
  for (size_t i = 0; i < v.dim(); ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> CheckSimplexTableau(const TableauView& view) {
  std::vector<std::string> problems;
  const auto& rhs = *view.rhs;
  const auto& basis = *view.basis;
  const auto& cost = *view.cost;
  const size_t num_rows = rhs.size();
  const double tol = view.feasibility_tol;

  // Primal feasibility: basic values stay non-negative across pivots.
  for (size_t r = 0; r < num_rows; ++r) {
    if (!(rhs[r] >= -tol)) {
      problems.push_back(Format("rhs[%zu] = %.17g < -%g (primal "
                                "infeasibility after pivot)",
                                r, rhs[r], tol));
    }
  }

  // Basis consistency: in range, pairwise distinct, and unit columns.
  // The unit-column sweep is O(rows²) — the reason tableau audits are the
  // prime candidate for ISRL_AUDIT=sample=N on big models.
  for (size_t r = 0; r < num_rows; ++r) {
    if (basis[r] >= view.num_cols) {
      problems.push_back(
          Format("basis[%zu] = %zu out of range (num_cols %zu)", r, basis[r],
                 view.num_cols));
      continue;
    }
    for (size_t r2 = r + 1; r2 < num_rows; ++r2) {
      if (basis[r2] == basis[r]) {
        problems.push_back(Format("basis column %zu is basic in rows %zu "
                                  "and %zu",
                                  basis[r], r, r2));
      }
    }
    const double diag = view.At(r, basis[r]);
    if (std::abs(diag - 1.0) > 1e-7) {
      problems.push_back(Format("rows[%zu][basis=%zu] = %.17g, expected 1 "
                                "(basis not canonical)",
                                r, basis[r], diag));
    }
    for (size_t r2 = 0; r2 < num_rows; ++r2) {
      if (r2 == r) continue;
      if (std::abs(view.At(r2, basis[r])) > 1e-7) {
        problems.push_back(Format("rows[%zu][basis[%zu]=%zu] = %.17g, "
                                  "expected 0 (basis column not unit)",
                                  r2, r, basis[r], view.At(r2, basis[r])));
      }
    }
  }

  // Bounded objective: the basic objective value is finite.
  double objective = 0.0;
  for (size_t r = 0; r < num_rows; ++r) {
    if (basis[r] < view.num_cols) objective += cost[basis[r]] * rhs[r];
    if (!std::isfinite(rhs[r])) {
      problems.push_back(Format("rhs[%zu] is not finite", r));
    }
  }
  if (!std::isfinite(objective)) {
    problems.push_back(
        Format("basic objective value %.17g is not finite", objective));
  }

  // Phase separation: a basic artificial in phase 2 is legal only on a
  // neutralised redundant row (value ~0).
  if (view.phase >= 2) {
    for (size_t r = 0; r < num_rows; ++r) {
      if (basis[r] >= view.first_artificial && basis[r] < view.num_cols &&
          rhs[r] > tol) {
        problems.push_back(Format("artificial column %zu basic at %.17g in "
                                  "phase 2",
                                  basis[r], rhs[r]));
      }
    }
  }
  return problems;
}

std::vector<std::string> CheckPolyhedronVertices(
    size_t dim, const std::vector<Halfspace>& cuts,
    const std::vector<Vec>& vertices, double tol) {
  std::vector<std::string> problems;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Vec& v = vertices[i];
    if (v.dim() != dim) {
      problems.push_back(
          Format("vertex %zu has dim %zu, expected %zu", i, v.dim(), dim));
      continue;
    }
    if (!AllFinite(v)) {
      problems.push_back(Format("vertex %zu has a non-finite coordinate", i));
      continue;
    }
    double sum = 0.0;
    for (size_t c = 0; c < dim; ++c) {
      if (v[c] < -tol) {
        problems.push_back(Format("vertex %zu coordinate %zu = %.17g < -%g "
                                  "(outside the simplex)",
                                  i, c, v[c], tol));
      }
      sum += v[c];
    }
    if (std::abs(sum - 1.0) > tol * static_cast<double>(dim)) {
      problems.push_back(Format("vertex %zu coordinates sum to %.17g, "
                                "expected 1",
                                i, sum));
    }
    for (size_t k = 0; k < cuts.size(); ++k) {
      const double scale = std::max(1.0, cuts[k].normal.Norm());
      const double margin = cuts[k].Margin(v);
      if (margin < -tol * scale) {
        problems.push_back(Format("vertex %zu violates cut %zu: margin "
                                  "%.17g < -%g",
                                  i, k, margin, tol * scale));
      }
    }
  }
  return problems;
}

std::vector<std::string> CheckPolyhedronAdjacency(
    size_t dim, const std::vector<Halfspace>& cuts,
    const std::vector<Vec>& vertices,
    const std::vector<std::vector<uint32_t>>& facets, double tight_tol) {
  std::vector<std::string> problems;
  if (facets.size() != vertices.size()) {
    problems.push_back(Format("facet-set count %zu != vertex count %zu",
                              facets.size(), vertices.size()));
    return problems;
  }
  const size_t num_ineq = dim + cuts.size();
  for (size_t i = 0; i < facets.size(); ++i) {
    const std::vector<uint32_t>& fs = facets[i];
    if (fs.size() != dim - 1) {
      problems.push_back(Format("vertex %zu has %zu incident facets, "
                                "expected %zu",
                                i, fs.size(), dim - 1));
      continue;
    }
    bool in_range = true;
    for (size_t f = 0; f < fs.size(); ++f) {
      if (fs[f] >= num_ineq) {
        problems.push_back(Format("vertex %zu facet %zu = %u out of range "
                                  "(%zu constraints)",
                                  i, f, fs[f], num_ineq));
        in_range = false;
      }
      if (f > 0 && fs[f] <= fs[f - 1]) {
        problems.push_back(Format("vertex %zu facet set not strictly "
                                  "ascending at position %zu",
                                  i, f));
        in_range = false;
      }
    }
    if (!in_range || vertices[i].dim() != dim) continue;
    for (const uint32_t idx : fs) {
      double margin;
      double scale;
      if (idx < dim) {
        margin = vertices[i][idx];
        scale = 1.0;
      } else {
        const Halfspace& h = cuts[idx - dim];
        margin = h.Margin(vertices[i]);
        scale = std::max(1.0, h.normal.Norm());
      }
      if (std::abs(margin) > tight_tol * scale) {
        problems.push_back(Format("vertex %zu claims constraint %u tight "
                                  "but margin = %.17g",
                                  i, idx, margin));
      }
    }
  }
  if (!problems.empty()) return problems;
  // Pairwise-distinct facet sets, and edge completeness: every (d−2)-subset
  // reached by dropping one facet must be shared by exactly two vertices
  // (each bounded-polytope edge has two endpoints).
  std::map<std::vector<uint32_t>, size_t> seen;
  for (size_t i = 0; i < facets.size(); ++i) {
    auto [it, inserted] = seen.emplace(facets[i], i);
    if (!inserted) {
      problems.push_back(Format("vertices %zu and %zu share the same facet "
                                "set",
                                it->second, i));
    }
  }
  if (!problems.empty()) return problems;
  std::map<std::vector<uint32_t>, size_t> edge_count;
  std::vector<uint32_t> key;
  for (const std::vector<uint32_t>& fs : facets) {
    for (size_t drop = 0; drop < fs.size(); ++drop) {
      key.clear();
      for (size_t f = 0; f < fs.size(); ++f) {
        if (f != drop) key.push_back(fs[f]);
      }
      ++edge_count[key];
    }
  }
  for (const auto& [edge, count] : edge_count) {
    if (count != 2) {
      std::string named = "{";
      for (size_t f = 0; f < edge.size(); ++f) {
        if (f > 0) named += ",";
        named += std::to_string(edge[f]);
      }
      named += "}";
      problems.push_back(Format("edge %s has %zu incident vertices, "
                                "expected 2",
                                named.c_str(), count));
    }
  }
  return problems;
}

std::vector<std::string> CheckCutMonotonicity(double proxy_before,
                                              double proxy_after,
                                              double slack) {
  std::vector<std::string> problems;
  if (proxy_after > proxy_before + slack) {
    problems.push_back(Format("volume proxy grew across a cut: %.17g -> "
                              "%.17g (slack %g)",
                              proxy_before, proxy_after, slack));
  }
  return problems;
}

std::vector<std::string> CheckBallEncloses(const Ball& ball,
                                           const std::vector<Vec>& points,
                                           double tol) {
  std::vector<std::string> problems;
  if (!AllFinite(ball.center)) {
    problems.push_back("ball centre has a non-finite coordinate");
    return problems;
  }
  if (!std::isfinite(ball.radius) || ball.radius < 0.0) {
    problems.push_back(Format("ball radius %.17g is negative or non-finite",
                              ball.radius));
    return problems;
  }
  for (size_t i = 0; i < points.size(); ++i) {
    const double gap = Distance(ball.center, points[i]) - ball.radius;
    if (gap > tol) {
      problems.push_back(Format("point %zu lies %.17g outside the ball "
                                "(radius %.17g)",
                                i, gap, ball.radius));
    }
  }
  return problems;
}

std::vector<std::string> CheckFiniteVec(const Vec& v, const char* what) {
  std::vector<std::string> problems;
  for (size_t i = 0; i < v.dim(); ++i) {
    if (!std::isfinite(v[i])) {
      problems.push_back(Format("%s entry %zu = %.17g", what, i, v[i]));
    }
  }
  return problems;
}

std::vector<std::string> CheckNetworkFinite(nn::Network& network,
                                            const char* label) {
  std::vector<std::string> problems;
  size_t block_index = 0;
  for (const nn::ParamBlock& block : network.Params()) {
    for (size_t i = 0; i < block.values->size(); ++i) {
      if (!std::isfinite((*block.values)[i])) {
        problems.push_back(Format("%s network: parameter block %zu entry "
                                  "%zu = %.17g",
                                  label, block_index, i, (*block.values)[i]));
        break;  // one report per block is enough to localise the blow-up
      }
    }
    for (size_t i = 0; i < block.grads->size(); ++i) {
      if (!std::isfinite((*block.grads)[i])) {
        problems.push_back(Format("%s network: gradient block %zu entry "
                                  "%zu = %.17g",
                                  label, block_index, i, (*block.grads)[i]));
        break;
      }
    }
    ++block_index;
  }
  return problems;
}

std::vector<std::string> CheckTargetSyncEpoch(uint64_t num_updates,
                                              size_t target_sync_every,
                                              nn::Network& main_network,
                                              nn::Network& target_network) {
  std::vector<std::string> problems;
  if (target_sync_every == 0 || num_updates == 0 ||
      num_updates % target_sync_every != 0) {
    return problems;  // not a sync boundary — nothing to assert
  }
  std::vector<nn::ParamBlock> main_params = main_network.Params();
  std::vector<nn::ParamBlock> target_params = target_network.Params();
  if (main_params.size() != target_params.size()) {
    problems.push_back(Format("main/target parameter block counts differ "
                              "(%zu vs %zu)",
                              main_params.size(), target_params.size()));
    return problems;
  }
  for (size_t b = 0; b < main_params.size(); ++b) {
    if (*main_params[b].values != *target_params[b].values) {
      problems.push_back(Format("target network out of sync at update %llu "
                                "(block %zu differs; sync_every %zu)",
                                static_cast<unsigned long long>(num_updates),
                                b, target_sync_every));
    }
  }
  return problems;
}

std::vector<std::string> CheckReplayTreeRaw(
    const std::vector<double>& leaf_priorities, double total_priority,
    double min_priority, double rel_tol) {
  std::vector<std::string> problems;
  double sum = 0.0;
  double min_p = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < leaf_priorities.size(); ++i) {
    const double p = leaf_priorities[i];
    if (!std::isfinite(p) || p <= 0.0) {
      problems.push_back(
          Format("leaf priority %zu = %.17g (must be finite and > 0)", i, p));
      continue;
    }
    sum += p;
    min_p = std::min(min_p, p);
  }
  if (leaf_priorities.empty()) return problems;
  const double sum_slack =
      rel_tol * std::max({1.0, std::abs(sum), std::abs(total_priority)});
  if (std::abs(total_priority - sum) > sum_slack) {
    problems.push_back(Format("segment-tree total %.17g != leaf sum %.17g "
                              "(slack %g)",
                              total_priority, sum, sum_slack));
  }
  const double min_slack = rel_tol * std::max(1.0, std::abs(min_p));
  if (std::abs(min_priority - min_p) > min_slack) {
    problems.push_back(Format("segment-tree min %.17g != leaf min %.17g "
                              "(slack %g)",
                              min_priority, min_p, min_slack));
  }
  return problems;
}

std::vector<std::string> CheckReplayTree(
    const rl::PrioritizedReplayMemory& memory, double rel_tol) {
  std::vector<double> leaves;
  leaves.reserve(memory.size());
  for (size_t i = 0; i < memory.size(); ++i) {
    leaves.push_back(memory.priority(i));
  }
  if (leaves.empty()) return {};
  return CheckReplayTreeRaw(leaves, memory.total_priority(),
                            memory.min_priority(), rel_tol);
}

std::vector<std::string> CheckAaGeometry(
    const AaGeometry& geometry, const std::vector<LearnedHalfspace>& h,
    double tol) {
  std::vector<std::string> problems;
  if (!geometry.feasible) return problems;  // infeasible carries no claims
  if (!AllFinite(geometry.inner.center) || !AllFinite(geometry.e_min) ||
      !AllFinite(geometry.e_max) || !std::isfinite(geometry.inner.radius)) {
    problems.push_back("AA geometry has a non-finite component");
    return problems;
  }
  if (geometry.inner.radius < -tol) {
    problems.push_back(
        Format("inner-ball radius %.17g is negative", geometry.inner.radius));
  }
  const size_t dim = geometry.inner.center.dim();
  for (size_t c = 0; c < dim; ++c) {
    if (geometry.e_min[c] > geometry.e_max[c] + tol) {
      problems.push_back(Format("outer rectangle inverted in dim %zu: "
                                "e_min %.17g > e_max %.17g",
                                c, geometry.e_min[c], geometry.e_max[c]));
    }
    if (geometry.inner.center[c] < geometry.e_min[c] - tol ||
        geometry.inner.center[c] > geometry.e_max[c] + tol) {
      problems.push_back(Format("inner-ball centre coordinate %zu = %.17g "
                                "outside the outer rectangle [%.17g, %.17g]",
                                c, geometry.inner.center[c], geometry.e_min[c],
                                geometry.e_max[c]));
    }
  }
  for (size_t k = 0; k < h.size(); ++k) {
    const double norm = h[k].h.normal.Norm();
    if (norm <= 0.0) continue;  // degenerate half-spaces are skipped upstream
    const double margin = h[k].h.Margin(geometry.inner.center);
    if (margin < -tol * std::max(1.0, norm)) {
      problems.push_back(Format("inner-ball centre violates half-space %zu: "
                                "margin %.17g",
                                k, margin));
    }
  }
  return problems;
}

}  // namespace isrl::audit
