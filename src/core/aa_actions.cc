#include "core/aa_actions.h"

#include <algorithm>
#include <cmath>

#include "geometry/hit_and_run.h"

namespace isrl {
namespace {

// Fraction of `samples` preferring p_i to p_j. 0 or 1 means the samples are
// unanimous (the pair likely does not split R).
double PreferenceFraction(const Vec& pi, const Vec& pj,
                          const std::vector<Vec>& samples) {
  size_t prefer_i = 0;
  for (const Vec& u : samples) {
    if (Dot(u, pi) >= Dot(u, pj)) ++prefer_i;
  }
  return static_cast<double>(prefer_i) / static_cast<double>(samples.size());
}

}  // namespace

std::vector<size_t> ContentionPool(const Dataset& data,
                                   const std::vector<Vec>& samples) {
  std::vector<size_t> pool;
  for (size_t top : data.TopIndices(samples)) {
    if (std::find(pool.begin(), pool.end(), top) == pool.end()) {
      pool.push_back(top);
    }
  }
  return pool;
}

std::vector<AaAction> BuildAaActionSpace(
    const Dataset& data, const std::vector<LearnedHalfspace>& h,
    const AaGeometry& geometry, const AaActionOptions& options, Rng& rng) {
  // Infeasible geometry (contradictory H): no actions — callers degrade.
  if (!geometry.feasible) return {};
  const size_t d = data.dim();

  // ---- Utility samples from R (hit-and-run around the inner centre). They
  // double as the two-sided feasibility witness: if some samples prefer p_i
  // and others p_j, both sides of h_{i,j} intersect R (Lemma 8's condition),
  // since every sample lies in R. ----
  std::vector<Halfspace> cuts;
  cuts.reserve(h.size());
  for (const LearnedHalfspace& lh : h) cuts.push_back(lh.h);
  std::vector<Vec> samples =
      HitAndRunSample(cuts, geometry.inner.center, options.pool_samples, rng);
  samples.push_back(geometry.inner.center);

  const std::vector<size_t> pool = ContentionPool(data, samples);

  // ---- Describe pairs: the ideal hyper-plane bisects R (a 50/50 preference
  // split over the samples) and addresses the outer rectangle's widest
  // dimensions (progress towards the stopping certificate). ----
  const Vec width = geometry.e_max - geometry.e_min;
  auto describe = [&](const Question& q, AaAction* out) -> bool {
    const Vec& pi = data.point(q.i);
    const Vec& pj = data.point(q.j);
    Halfspace hp = PreferenceHalfspace(pi, pj);
    double norm = hp.normal.Norm();
    if (norm < 1e-12) return false;  // duplicate points
    double frac = PreferenceFraction(pi, pj, samples);
    if (frac <= 0.0 || frac >= 1.0) return false;  // no feasibility witness
    out->q = q;
    out->balance = frac;
    out->alignment = 0.0;
    for (size_t k = 0; k < d; ++k) {
      out->alignment += std::abs(hp.normal[k]) / norm * width[k];
    }
    out->center_dist = DistanceToHyperplane(geometry.inner.center, hp);
    return true;
  };
  auto heuristic_score = [](const AaAction& a) {
    return std::abs(a.balance - 0.5) / (1e-6 + a.alignment);
  };

  std::vector<AaAction> scored;
  scored.reserve(pool.size() * (pool.size() - 1) / 2);
  for (size_t a = 0; a < pool.size(); ++a) {
    for (size_t b = a + 1; b < pool.size(); ++b) {
      AaAction action;
      if (describe(Question{pool[a], pool[b]}, &action)) {
        scored.push_back(action);
      }
    }
  }

  // Fallback when the pool collapses (all samples share one top point) or no
  // pool pair splits R: scan random dataset pairs with the same witness.
  if (scored.empty() && data.size() >= 2) {
    const size_t attempts = 32 * std::max<size_t>(1, options.m_h);
    for (size_t attempt = 0; attempt < attempts; ++attempt) {
      std::vector<size_t> picked = rng.SampleIndices(data.size(), 2);
      AaAction action;
      if (describe(Question{picked[0], picked[1]}, &action)) {
        scored.push_back(action);
      }
      if (scored.size() >= options.m_h) break;
    }
  }

  std::sort(scored.begin(), scored.end(),
            [&](const AaAction& x, const AaAction& y) {
              return heuristic_score(x) < heuristic_score(y);
            });

  // Mixed action space: the best-scored half gives the agent strong
  // candidates, the random half keeps the set diverse so the learned policy
  // has meaningful choices to rank (an all-near-optimal action set would
  // leave the DQN nothing to improve on).
  std::vector<AaAction> out;
  out.reserve(std::min(options.m_h, scored.size()));
  const size_t top_quota = (options.m_h + 1) / 2;
  for (const AaAction& a : scored) {
    if (out.size() >= top_quota) break;
    out.push_back(a);
  }
  if (scored.size() > out.size() && out.size() < options.m_h) {
    std::vector<size_t> rest;
    for (size_t i = out.size(); i < scored.size(); ++i) rest.push_back(i);
    rng.Shuffle(&rest);
    for (size_t idx : rest) {
      if (out.size() >= options.m_h) break;
      out.push_back(scored[idx]);
    }
  }
  return out;
}

}  // namespace isrl
