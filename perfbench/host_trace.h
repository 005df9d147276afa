// Host-clock span recorder for the benchmark's traced iterations.
//
// Spans are recorded only from the benchmark's own code, around each call
// it makes into a library layer, so the library itself is never edited to
// be measured. A span's layer is its name up to the first '.', which is the
// module the call belongs to ("core.RunFleetBoot" -> "core"). Spans stay in
// memory; ToPerfetto() renders them at exit as a trace_event document that
// Perfetto and chrome://tracing load.
#ifndef PERFBENCH_HOST_TRACE_H_
#define PERFBENCH_HOST_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct HostSpan {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;     // Index of the enclosing span, -1 for a root.
  int64_t iteration = -1;  // Benchmark iteration the span belongs to.
};

struct SpanTotals {
  int64_t total_ns = 0;  // Sum of span durations.
  int64_t self_ns = 0;   // Total minus the time covered by child spans.
  int64_t spans = 0;
};

class HostTrace {
 public:
  // Spans nest on one thread: Begin pushes, End pops.
  class Scope {
   public:
    Scope(HostTrace* trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTrace* trace_;
    int64_t index_ = -1;
  };

  // While disabled, Scope records nothing and reads no clock.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_iteration(int64_t iteration) { iteration_ = iteration; }

  // Over every recorded span, keyed by layer or by span name.
  std::map<std::string, SpanTotals> Totals(bool by_layer) const;

  // trace_event JSON: one complete event per span, microsecond timestamps
  // relative to the first span, the parent and iteration under `args`.
  std::string ToPerfetto() const;

 private:
  int64_t Begin(const char* name);
  void End(int64_t index);
  // Self time of every span, index-aligned with spans_.
  std::vector<int64_t> SelfTimes() const;

  bool enabled_ = false;
  int64_t iteration_ = -1;
  std::vector<HostSpan> spans_;
  std::vector<int64_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_TRACE_H_
