// AA's restricted action space (Section IV-C MDP: Action).
//
// The ideal question's hyper-plane bisects R. Without exact geometry, AA
// estimates each pair's split balance directly: the fraction of utility
// vectors sampled from R (hit-and-run around the inner-sphere centre) that
// prefer p_i. Sample disagreement also witnesses Lemma 8's two-sided
// feasibility — every sample lies in R, so a split sample proves both sides
// non-empty without an LP. Pairs are ranked by |fraction − ½| per unit of
// outer-rectangle width their normal addresses (progress towards the
// stopping certificate).
//
// Scanning all O(n²) pairs is the complexity wall the paper calls out; we
// form the candidate pool exactly the way EA forms P_R — the distinct top-1
// points of the sampled utility vectors — so the pool tracks the region of
// D still in contention.
#ifndef ISRL_CORE_AA_ACTIONS_H_
#define ISRL_CORE_AA_ACTIONS_H_

#include <vector>

#include "common/rng.h"
#include "core/aa_state.h"
#include "core/algorithm.h"
#include "data/dataset.h"

namespace isrl {

/// Knobs for AA's action-space construction.
struct AaActionOptions {
  size_t m_h = 5;             ///< action-space size (paper §V: 5)
  size_t pool_samples = 64;   ///< utility samples that seed the point pool
  double margin_tol = 1e-7;   ///< strict-feasibility margin threshold
};

/// A candidate question with the geometric descriptors the Q-network uses
/// as action features (so the policy can rank candidates without having to
/// re-derive second-order geometry from raw coordinates).
struct AaAction {
  Question q;
  double balance = 0.5;     ///< fraction of R-samples preferring q.i (∈ (0,1))
  double alignment = 0.0;   ///< Σ_k |n̂_k|·width_k — rectangle progress
  double center_dist = 0.0; ///< hyper-plane distance to the inner centre
};

/// The contention pool: the distinct top-1 points of `samples`, in the order
/// they first win.
std::vector<size_t> ContentionPool(const Dataset& data,
                                   const std::vector<Vec>& samples);

/// Builds up to m_h candidates: pairs over the contention pool whose both
/// sides provably intersect R, the best-scored half first and a random
/// diverse half after. Empty when no pair splits R (interaction cannot
/// progress further).
std::vector<AaAction> BuildAaActionSpace(
    const Dataset& data, const std::vector<LearnedHalfspace>& h,
    const AaGeometry& geometry, const AaActionOptions& options, Rng& rng);

}  // namespace isrl

#endif  // ISRL_CORE_AA_ACTIONS_H_
