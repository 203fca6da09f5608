#include "common/parallel.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/strings.h"

namespace isrl {

namespace internal {

void ParallelForState::RecordError(std::exception_ptr error) {
  MutexLock lock(error_mu);
  if (!first_error) first_error = std::move(error);
  // Later errors are dropped: sibling tasks are independent, and a
  // deterministic caller wants every slot filled or a clean rethrow of the
  // first failure.
}

std::exception_ptr ParallelForState::TakeFirstError() {
  MutexLock lock(error_mu);
  return first_error;
}

}  // namespace internal

size_t HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ThreadsFromEnv() {
  // Startup-path call, before any worker exists; not reachable from task
  // bodies, so the thread-unsafe libc environment access is benign.
  const char* env =
      std::getenv("ISRL_THREADS");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr) return 1;
  uint64_t value = 0;
  if (!ParseUint64(env, &value)) {
    std::fprintf(stderr,
                 "ISRL_THREADS must be a non-negative integer "
                 "(0 = one thread per core), got '%s'\n",
                 env);
    std::exit(EXIT_FAILURE);  // NOLINT(concurrency-mt-unsafe)
  }
  if (value == 0) return HardwareThreads();
  return value > kMaxThreads ? kMaxThreads : static_cast<size_t>(value);
}

size_t ResolveThreads(size_t requested, size_t tasks) {
  size_t threads = requested == 0 ? ThreadsFromEnv() : requested;
  if (threads > kMaxThreads) threads = kMaxThreads;
  if (tasks < 1) return 1;
  return threads < tasks ? (threads < 1 ? 1 : threads) : tasks;
}

void ParallelFor(size_t tasks, size_t threads,
                 const std::function<void(size_t worker, size_t task)>& fn) {
  if (tasks == 0) return;
  size_t workers = threads < 1 ? 1 : threads;
  if (workers > tasks) workers = tasks;
  if (workers > kMaxThreads) workers = kMaxThreads;
  if (workers <= 1) {
    for (size_t task = 0; task < tasks; ++task) fn(0, task);
    return;
  }

  internal::ParallelForState state;
  // workers == tasks pins task w to worker w (the documented dedicated-
  // worker contract: bodies may block on each other). Fewer workers than
  // tasks share the atomic queue instead.
  const bool dedicated = workers == tasks;
  auto work = [&](size_t worker) {
    while (true) {
      const size_t task =
          dedicated ? worker
                    : state.next_task.fetch_add(1, std::memory_order_relaxed);
      if (task >= tasks) return;
      try {
        fn(worker, task);
      } catch (...) {
        // Keep draining the queue after a failure; see RecordError.
        state.RecordError(std::current_exception());
      }
      if (dedicated) return;
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
  if (std::exception_ptr error = state.TakeFirstError()) {
    std::rethrow_exception(error);
  }
}

}  // namespace isrl
