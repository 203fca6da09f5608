// The traced run: a single-threaded loop that mirrors the shard worker
// through public calls only, with every session wrapped in a timing
// decorator and spans recorded around each layer's entry points. It reports
// the per-layer metrics of BENCHMARK.json and prints a layer table whose
// self-time shares sum to 100%.
#ifndef ISRL_BENCHMARK_TRACED_H_
#define ISRL_BENCHMARK_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "report.h"
#include "workload.h"

namespace isrl::e2e {

/// Runs the traced loop over w.traced_users users and records the
/// per-layer metrics and checks in `report`. Returns the traced users'
/// outcomes (session-id order).
std::vector<Outcome> RunTraced(const Workload& w, uint64_t seed,
                               const std::string& tmp_dir, Report& report);

}  // namespace isrl::e2e

#endif  // ISRL_BENCHMARK_TRACED_H_
