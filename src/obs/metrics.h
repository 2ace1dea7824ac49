// MetricsRegistry: named counters, gauges, phase wall-clock accumulators
// and fixed-bucket latency histograms with p50/p95/p99 summaries.  The
// registry is the single bookkeeping system behind ContextMatch's
// PhaseReport, the thread pool's queue/latency signals and the bench JSON
// summaries.
//
// Thread safety: every mutating and reading method may be called
// concurrently (one registry mutex; each operation is a map lookup plus an
// O(1) update, so the lock is held for nanoseconds).  Recording is
// deliberately allocation-light — histogram buckets are fixed arrays — so
// workers of the PR 1 thread pool can report without measurable skew.

#ifndef CSM_OBS_METRICS_H_
#define CSM_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace csm {
namespace obs {

/// Plain-value summary of one histogram: exact count/sum/min/max plus
/// bucket-interpolated quantiles.
struct HistogramSummary {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// Fixed-bucket histogram tuned for latencies in seconds: log-spaced
/// (factor-2) bucket boundaries from 100ns to ~10^4 s, plus an overflow
/// bucket.  Quantiles interpolate linearly inside the winning bucket and
/// are clamped to the exact observed [min, max].  Not internally
/// synchronized — MetricsRegistry guards it.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 38;

  void Observe(double value);
  void MergeFrom(const Histogram& other);

  uint64_t count() const { return count_; }
  HistogramSummary Summary() const;

  /// Upper bound of bucket `b` (the last bucket is unbounded and reports
  /// the observed max).
  static double BucketBound(size_t b);

 private:
  double Quantile(double q) const;

  std::array<uint64_t, kNumBuckets + 1> buckets_{};  // +1 = overflow
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Snapshot of a registry: the observability payload embedded in result
/// structs (ContextMatchResult::phases).  `seconds` holds the pipeline
/// phase wall-clock totals ("standard_match", "inference", "scoring",
/// "selection", ...), `counters` the work-volume counts, `histograms` the
/// per-unit latency distributions.
struct PhaseReport {
  std::map<std::string, double> seconds;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// 0 / zero-summary when the name was never recorded.
  double Seconds(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  double Gauge(const std::string& name) const;
  HistogramSummary Histogram(const std::string& name) const;

  /// Sum of all phase seconds (for ContextMatch: the four pipeline phases,
  /// preserving the old standard+inference+scoring+selection total).
  double TotalSeconds() const;

  /// Sorted "name: value" lines, one section per metric kind.
  std::string ToString() const;
  /// JSON object {"seconds": {...}, "counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, p50, p95, p99}}}.
  std::string ToJson() const;
};

/// The registry proper.  All methods are safe to call concurrently.
class MetricsRegistry {
 public:
  /// Phase wall-clock accumulators (the PhaseReport `seconds` section).
  void AddSeconds(const std::string& phase, double seconds);
  double Seconds(const std::string& phase) const;

  /// Monotonic event counters.
  void AddCounter(const std::string& name, uint64_t n = 1);
  uint64_t Counter(const std::string& name) const;

  /// Last-value / accumulating gauges.
  void SetGauge(const std::string& name, double value);
  void AddGauge(const std::string& name, double delta);
  double Gauge(const std::string& name) const;

  /// Histogram observation (seconds or any non-negative value).
  void Observe(const std::string& name, double value);
  HistogramSummary Summary(const std::string& name) const;

  /// Plain-value snapshot of everything.
  PhaseReport Snapshot() const;

  /// Folds `other`'s contents into this registry: counters/seconds add,
  /// gauges take `other`'s value, histograms merge bucket-wise.  Used to
  /// drain a per-call registry into a long-lived external sink.
  void MergeFrom(const MetricsRegistry& other);

  std::string ToString() const { return Snapshot().ToString(); }
  std::string ToJson() const { return Snapshot().ToJson(); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> seconds_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace obs
}  // namespace csm

#endif  // CSM_OBS_METRICS_H_
