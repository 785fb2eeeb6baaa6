#include "core/trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

size_t SpanRecorder::Begin(std::string name, int64_t parent,
                           uint64_t request) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.request = request;
  s.start_ns = clock_->NowNanos();
  s.end_ns = s.start_ns;
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  spans_[index].end_ns = clock_->NowNanos();
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans_.size()) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = p.start_ns;  // end of the covered prefix so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, p.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = static_cast<double>(p.end_ns - p.start_ns - covered) * 1e-6;
  }
  return self;
}

void SpanRecorder::WriteJson(std::ostream& out) const {
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns) * 1e-3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
