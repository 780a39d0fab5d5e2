#ifndef PERFBENCH_SPAN_H_
#define PERFBENCH_SPAN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// One timed call into a layer, recorded by the benchmark around the
// layer's public entry point. Times are steady-clock nanoseconds.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   // index into the recorder's spans, -1 for a root
  uint64_t request = 0;  // spans of one request share this id

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Self time of an interval [start, end): its duration minus the part of
// it covered by the union of `children` (each clipped to the interval;
// overlapping children are counted once).
int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children);

// Per-thread, in-memory span store. Spans nest by scope: a span begun
// while another is open becomes its child. Nothing leaves memory until
// WriteJsonl at the end of the run.
class SpanRecorder {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int64_t Begin(std::string name, uint64_t request);
  void End(int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span, indexed like spans().
  std::vector<int64_t> SelfTimes() const;

  // Appends another recorder's spans (re-basing their parent indexes).
  void Merge(const SpanRecorder& other);

  // One JSON object per line; false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span on a recorder; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t request)
      : recorder_(recorder),
        index_(recorder ? recorder->Begin(std::move(name), request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_H_
