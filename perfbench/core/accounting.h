#pragma once

// Request accounting: every request sent is resolved exactly once, as
// completed, rejected or failed, and the totals must agree with the serving
// engine's own counters.

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Outcome { kPending, kCompleted, kRejected, kFailed };

/// Thread-safe: the submitting thread and the thread collecting replies both
/// resolve requests.
class Ledger {
 public:
  /// Registers a request as sent and returns its id.
  size_t Send();
  /// Records the request's outcome. A second resolution of the same id, an
  /// unknown id or kPending is kept as an error for Check() to report.
  void Resolve(size_t id, Outcome outcome);

  size_t sent() const;
  size_t completed() const;
  size_t rejected() const;
  size_t failed() const;

  /// Empty when every request was resolved exactly once and the engine saw
  /// what the client saw: `engine_requests` rows batched (completed or failed
  /// while scoring) and `engine_rejected` admissions refused. Otherwise a
  /// description of each mismatch.
  std::string Check(size_t engine_requests, size_t engine_rejected,
                    size_t failed_before_engine) const;

 private:
  mutable std::mutex mu_;
  std::vector<Outcome> outcomes_;
  size_t counts_[4] = {0, 0, 0, 0};
  std::vector<std::string> errors_;
};

}  // namespace perfbench
