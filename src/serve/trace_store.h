// Trace harvesting for the continuous-learning loop (DESIGN.md §18).
//
// A TraceStore is the thread-safe drop point between serving and training:
// shard workers push one SessionTraceRecord per finished session (wired as
// the scheduler's HarvestSink), and the trainer reads the utility estimates
// they carry. The store keeps a bounded ring of the most recent records —
// the "live population" that drift detection (serve/drift.h) compares
// against the training baseline, and the source of the learned-utility
// replay samples that trace-driven retraining trains on.
#ifndef ISRL_SERVE_TRACE_STORE_H_
#define ISRL_SERVE_TRACE_STORE_H_

#include <cstddef>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/vec.h"
#include "core/metrics.h"

namespace isrl {

/// Bounded, thread-safe ring of the most recent session trace records.
/// Safe to call from any number of shard workers and a trainer
/// concurrently; every method takes the internal mutex.
class TraceStore {
 public:
  /// `capacity` bounds the retained window (older records are overwritten).
  explicit TraceStore(size_t capacity = 4096);

  /// Appends one finished session's record. The id parameter matches the
  /// HarvestSink signature so a store can be installed directly:
  ///   scheduler.SetHarvestSink([&](size_t id, const SessionTraceRecord& r) {
  ///     store.Harvest(id, r); });
  void Harvest(size_t session_id, const SessionTraceRecord& record);

  /// Records ever harvested (monotone; not capped by the window).
  size_t harvested() const;

  /// The retained window in harvest order (oldest first).
  std::vector<SessionTraceRecord> Window() const;

  /// The learned utility estimates of the newest `max_samples` records that
  /// carry one, oldest-first — the replay set trace-driven retraining
  /// feeds to Train() (DESIGN.md §18).
  std::vector<Vec> TrainingUtilities(size_t max_samples) const;

  /// Terminal-outcome tallies over the retained window.
  OutcomeCounts WindowOutcomes() const;

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<SessionTraceRecord> ring_ ISRL_GUARDED_BY(mu_);
  size_t next_ ISRL_GUARDED_BY(mu_) = 0;   ///< ring write cursor
  size_t total_ ISRL_GUARDED_BY(mu_) = 0;  ///< records ever harvested
};

}  // namespace isrl

#endif  // ISRL_SERVE_TRACE_STORE_H_
