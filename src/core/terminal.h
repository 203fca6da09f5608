// Terminal-polyhedron machinery for algorithm EA (Section IV-B, Lemmas 4–7).
//
// A terminal polyhedron T ⊆ R is a region over which a single point p_T has
// regret ratio below ε everywhere. Lemma 4 characterises T_w for a winner
// point p_w as R ∩ ⋂_j εh⁺_{w,j}, and membership of a utility vector u in
// T_w reduces to one comparison:
//     u ∈ T_w  ⇔  u·p_w ≥ (1−ε)·max_j u·p_j.
// Consequently P_R (the winner points of the terminal polyhedra built over a
// vector set V) never needs explicit geometry: it is the smallest set of
// points covering V under that test, built in the paper's insertion order.
#ifndef ISRL_CORE_TERMINAL_H_
#define ISRL_CORE_TERMINAL_H_

#include <vector>

#include "common/vec.h"
#include "data/dataset.h"

namespace isrl {

/// Winner points P_R of the terminal polyhedra constructed over `utilities`
/// (Section IV-B's V), in construction order: for each u, if no existing
/// winner's polyhedron contains u, the top-1 point w.r.t. u becomes a new
/// winner. Returns indices into `data`.
std::vector<size_t> TerminalWinners(const Dataset& data,
                                    const std::vector<Vec>& utilities,
                                    double epsilon);

/// Lemma 6 terminal test: R (given by its extreme utility vectors) is a
/// terminal polyhedron iff a single terminal polyhedron covers all extreme
/// vectors. On success `*winner` is the point to return (regret < ε for any
/// u ∈ R). `extreme_vectors` must be non-empty.
bool IsTerminalRange(const Dataset& data,
                     const std::vector<Vec>& extreme_vectors, double epsilon,
                     size_t* winner);

}  // namespace isrl

#endif  // ISRL_CORE_TERMINAL_H_
