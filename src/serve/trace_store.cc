#include "serve/trace_store.h"

#include <algorithm>

#include "common/check.h"

namespace isrl {

TraceStore::TraceStore(size_t capacity) : capacity_(capacity) {
  ISRL_CHECK_GT(capacity_, 0u);
}

void TraceStore::Harvest(size_t /*session_id*/,
                         const SessionTraceRecord& record) {
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[next_] = record;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

size_t TraceStore::harvested() const {
  MutexLock lock(mu_);
  return total_;
}

std::vector<SessionTraceRecord> TraceStore::Window() const {
  MutexLock lock(mu_);
  std::vector<SessionTraceRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;  // not yet wrapped: storage order is harvest order
  } else {
    // next_ is the oldest slot once the ring has wrapped.
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::vector<Vec> TraceStore::TrainingUtilities(size_t max_samples) const {
  std::vector<SessionTraceRecord> window = Window();
  std::vector<Vec> utilities;
  for (const SessionTraceRecord& record : window) {
    if (record.has_utility) utilities.push_back(record.utility);
  }
  if (utilities.size() > max_samples) {
    utilities.erase(utilities.begin(),
                    utilities.end() - static_cast<ptrdiff_t>(max_samples));
  }
  return utilities;
}

OutcomeCounts TraceStore::WindowOutcomes() const {
  MutexLock lock(mu_);
  OutcomeCounts counts;
  for (const SessionTraceRecord& record : ring_) {
    counts.Count(record.termination);
  }
  return counts;
}

}  // namespace isrl
