// Deterministic thread-pool primitives for the evaluation layer.
//
// ParallelFor distributes independent tasks over a fixed number of worker
// threads. The determinism contract is the caller's: a task body must derive
// every stochastic choice from the task index alone (e.g. via
// Rng::Split(task) / SplitSeed) and must write only to task-indexed slots.
// Under that contract results are bit-identical at any thread count —
// scheduling decides only *when* a task runs, never *what* it computes — and
// any order-sensitive reduction is done by the caller afterwards, in task
// order.
#ifndef ISRL_COMMON_PARALLEL_H_
#define ISRL_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace isrl {

namespace internal {

/// The cross-thread state one ParallelFor invocation shares between its
/// workers: the atomic task cursor plus the first-exception slot. Split out
/// of ParallelFor's body so the exception slot can carry a real
/// ISRL_GUARDED_BY contract (locals cannot) — the clang CI lane then proves
/// every worker goes through RecordError instead of racing on the slot.
struct ParallelForState {
  std::atomic<size_t> next_task{0};

  Mutex error_mu;
  std::exception_ptr first_error ISRL_GUARDED_BY(error_mu);

  /// Stores `error` if it is the first one any worker has hit; later
  /// errors are dropped (the first failure is what the caller rethrows).
  void RecordError(std::exception_ptr error) ISRL_EXCLUDES(error_mu);

  /// The first recorded error, or nullptr. Called by ParallelFor after
  /// every worker has joined.
  [[nodiscard]] std::exception_ptr TakeFirstError() ISRL_EXCLUDES(error_mu);
};

}  // namespace internal

/// std::thread::hardware_concurrency with a floor of 1.
size_t HardwareThreads();

/// Worker-thread count from the ISRL_THREADS environment variable: unset or
/// "1" means sequential, "0" means one thread per hardware core, any other
/// integer is used as-is (capped at kMaxThreads). Malformed values (e.g.
/// "abc", "-2") abort with a clear message instead of silently becoming a
/// different thread count.
size_t ThreadsFromEnv();

/// Upper bound on worker threads (sanity cap for env-var typos).
inline constexpr size_t kMaxThreads = 256;

/// Resolves a requested thread count: 0 = ThreadsFromEnv(); the result is
/// clamped to [1, max(1, tasks)] so callers never spawn idle workers.
size_t ResolveThreads(size_t requested, size_t tasks);

/// Runs fn(worker, task) for every task in [0, tasks), spread over
/// min(threads, tasks) workers via an atomic work queue. `worker` is the id
/// of the executing worker in [0, workers) — for per-worker scratch state
/// such as a cloned algorithm instance; task-to-worker assignment is NOT
/// deterministic, so per-worker state must not influence task results.
/// Exception: when threads >= tasks every task runs on its own dedicated
/// worker (worker == task), so task bodies may block on each other — this
/// is the sanctioned way to spawn N cooperating threads (e.g. concurrent
/// clients hammering a serving boundary in tests) without reaching for raw
/// std::thread, which tools/lint.py rule `raw-thread` bans.
/// threads ≤ 1 (or tasks ≤ 1) runs inline on the calling thread. The first
/// exception thrown by a task is rethrown on the calling thread after all
/// workers finish.
void ParallelFor(size_t tasks, size_t threads,
                 const std::function<void(size_t worker, size_t task)>& fn);

}  // namespace isrl

#endif  // ISRL_COMMON_PARALLEL_H_
