#pragma once

// Spans recorded by the benchmark around its calls into the library. Held in
// memory while the run measures and written out when it ends.

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the recorder, or -1 for a root.
  int64_t parent = -1;
  /// Identifier shared by every span of one request (or batch, or fit).
  uint64_t request = 0;
};

/// Collects spans from one thread. Not thread-safe: each traced loop in the
/// benchmark runs on the thread that owns its recorder.
class SpanRecorder {
 public:
  explicit SpanRecorder(const gnn4tdl::obs::Clock* clock) : clock_(clock) {}

  /// Opens a span and returns its index.
  size_t Begin(std::string name, int64_t parent = -1, uint64_t request = 0);
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  static double DurationMs(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }

  /// Per span: its duration minus the part of its interval that its direct
  /// children cover (overlapping children are counted once).
  std::vector<double> SelfMs() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  void WriteJson(std::ostream& out) const;

 private:
  const gnn4tdl::obs::Clock* clock_;
  std::vector<Span> spans_;
};

/// RAII span that does nothing when the recorder is null, so the same loop
/// body serves the traced and the untraced pass.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int64_t parent = -1,
             uint64_t request = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      index_ = recorder_->Begin(std::move(name), parent, request);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const {
    return recorder_ != nullptr ? static_cast<int64_t>(index_) : -1;
  }

 private:
  SpanRecorder* recorder_;
  size_t index_ = 0;
};

}  // namespace perfbench
