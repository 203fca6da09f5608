// The untraced end-to-end run: set-up, the paced phase, the saturation
// phase and, on durable workloads, the crash-and-recover phase. Reports the
// end-to-end metrics of BENCHMARK.json and checks every session's outcome
// against the engine's bit-identity contracts.
#ifndef ISRL_BENCHMARK_E2E_H_
#define ISRL_BENCHMARK_E2E_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "report.h"
#include "workload.h"

namespace isrl::e2e {

/// Runs every end-to-end phase of `w` and records its metrics and checks in
/// `report`. Durable files go under `tmp_dir`. Returns every user's outcome
/// (session-id order) for cross-mode comparison.
std::vector<Outcome> RunEndToEnd(const Workload& w, uint64_t seed,
                                 const std::string& tmp_dir, Report& report);

/// Checks the outcomes every mode must satisfy: no aborted session, and
/// every returned tuple within the algorithm's regret guarantee for the
/// user's true utility (ValidateReturnedTuple: < ε for EA, Lemma 4; < d²·ε
/// for AA, Lemma 9).
void CheckOutcomes(const Workload& w, const Dataset& skyline,
                   const std::vector<SimUser>& users,
                   const std::vector<Outcome>& outcomes, const char* phase,
                   Report& report);

/// Compares two runs' outcomes over their common prefix of users.
void CheckIdentical(const std::vector<Outcome>& expected,
                    const std::vector<Outcome>& actual, const char* what,
                    Report& report);

}  // namespace isrl::e2e

#endif  // ISRL_BENCHMARK_E2E_H_
