#include "span.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  for (auto& child : children) {
    child.first = std::clamp(child.first, start_ns, end_ns);
    child.second = std::clamp(child.second, start_ns, end_ns);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = start_ns;  // end of the union covered so far
  for (const auto& [from, to] : children) {
    const int64_t lo = std::max(from, reach);
    if (to > lo) {
      covered += to - lo;
      reach = to;
    }
  }
  return (end_ns - start_ns) - covered;
}

int64_t SpanRecorder::Begin(std::string name, uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Scoped use closes spans innermost first.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = SelfTimeNs(spans_[i].start_ns, spans_[i].end_ns,
                         std::move(children[i]));
  }
  return self;
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
