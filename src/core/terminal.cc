#include "core/terminal.h"

#include "common/check.h"

namespace isrl {

std::vector<size_t> TerminalWinners(const Dataset& data,
                                    const std::vector<Vec>& utilities,
                                    double epsilon) {
  const std::vector<size_t> tops = data.TopIndices(utilities);
  std::vector<size_t> winners;
  for (size_t i = 0; i < utilities.size(); ++i) {
    const Vec& u = utilities[i];
    const double top = Dot(u, data.point(tops[i]));
    // A non-positive top utility means `u` is degenerate (numerically zero
    // after drift); no point can certify anything for it — skip it.
    if (top <= 0.0) continue;
    const double bar = (1.0 - epsilon) * top;
    bool covered = false;
    for (size_t w : winners) {
      if (Dot(u, data.point(w)) >= bar) {
        covered = true;
        break;
      }
    }
    if (!covered) winners.push_back(tops[i]);
  }
  return winners;
}

bool IsTerminalRange(const Dataset& data,
                     const std::vector<Vec>& extreme_vectors, double epsilon,
                     size_t* winner) {
  // No extreme vectors ⇒ R collapsed numerically; there is no certificate.
  if (extreme_vectors.empty()) return false;
  std::vector<size_t> winners = TerminalWinners(data, extreme_vectors, epsilon);
  if (winners.size() == 1) {
    if (winner != nullptr) *winner = winners[0];
    return true;
  }
  return false;
}

}  // namespace isrl
