// In-memory spans for the benchmark's traced run.  Spans are recorded from
// the benchmark's own files around its calls into the library's public
// functions (or rebuilt from timings the library returns, such as
// MatchResponse::queue_seconds); nothing inside src/ is instrumented.
//
// A span's layer is its name up to the first '.', e.g. "relational.load"
// belongs to layer "relational".  Each timed operation is a root span named
// "op"; extra calls that only measure a layer (a scan or fingerprint probe)
// hang under roots named "probe", so they add to no operation's time.

#ifndef CSM_PERFBENCH_TRACE_H_
#define CSM_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

struct Span {
  std::string name;
  /// Seconds since the recorder was created.
  double start = 0.0;
  double end = 0.0;
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent = 0;
  /// Spans of one request or operation share this id.
  uint64_t request = 0;
};

/// Thread-safe span store.  Keeps everything in memory; Write dumps it.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double At(Clock::time_point t) const { return SecondsBetween(epoch_, t); }

  /// Opens a span now; close it with End.
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  /// Adds a finished span with known bounds.
  uint64_t Record(const std::string& name, double start, double end,
                  uint64_t parent, uint64_t request);

  std::vector<Span> Spans() const;

  /// Writes one JSON object per span and line.  Returns false on IO error.
  bool Write(const std::string& path) const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index = id - 1
};

/// Where the time of the "op" trees went.
struct Attribution {
  /// Self time (duration minus the part its children cover) summed per
  /// layer, over every non-root span under an "op" root.
  std::map<std::string, double> layer_self_seconds;
  /// Summed duration of the "op" roots.
  double op_seconds = 0.0;
  /// Layer self time over op time.
  double Coverage() const;
};

Attribution AttributeOps(const std::vector<Span>& spans);

/// Durations of the spans named `name`.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name);

}  // namespace perfbench

#endif  // CSM_PERFBENCH_TRACE_H_
