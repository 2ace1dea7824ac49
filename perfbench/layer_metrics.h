// Per-layer metrics shared by the workloads.  The two matching workloads
// (match_scale and service_open) share their matching configuration and
// their match, core, text and ml metrics — read from the PhaseReport that
// every MatchEngine run returns, the kernel counters, the FingerprintDatabase
// probe and the ground truth.
//
// Every traced run reports the metrics of every layer, so all workloads
// print one set of names.  A layer that a workload never calls reports 0
// for each of its metrics: it did no work there.

#ifndef CSM_PERFBENCH_LAYER_METRICS_H_
#define CSM_PERFBENCH_LAYER_METRICS_H_

#include <cstdint>
#include <vector>

#include "core/context_options.h"
#include "core/match_request.h"
#include "perfbench.h"
#include "text/gram.h"
#include "trace.h"

namespace perfbench {

/// The matching configuration both workloads use: tau 0.5, omega 0.1,
/// SrcClassInfer, QualTable, early disjuncts, on `threads` workers.
csm::ContextMatchOptions BenchMatchOptions(size_t threads);

/// GlobalTokenKernelStats at construction; Grams/MemoHits give the growth
/// since then.
struct TokenKernelDelta {
  uint64_t grams = csm::GlobalTokenKernelStats().grams_interned.load();
  uint64_t memo_hits = csm::GlobalTokenKernelStats().nb_memo_hits.load();

  uint64_t Grams() const {
    return csm::GlobalTokenKernelStats().grams_interned.load() - grams;
  }
  uint64_t MemoHits() const {
    return csm::GlobalTokenKernelStats().nb_memo_hits.load() - memo_hits;
  }
};

/// Accumulates per-layer counts over a traced pass and reports them.
class LayerCounters {
 public:
  /// Kernel counter growth over `ops` operations.
  void AddKernel(const TokenKernelDelta& delta, size_t ops = 1);
  /// One engine run (not a deduplicated copy of one).
  void AddRun(const csm::MatchResponse& response);
  /// The F-measure of one answered request against its ground truth.
  void AddQuality(double fmeasure) { fmeasure_.push_back(fmeasure); }

  /// Adds the match.*, core.*, text.* and ml.* metrics.  core.execute_s
  /// and core.fingerprint_s come from the "core.execute" and
  /// "core.fingerprint" spans.  With nothing added (a workload that never
  /// matches) every metric is 0.
  void Report(const std::vector<Span>& spans, perfbench::Report* report) const;

  /// Counts one probed operation's fingerprinted cells.
  void AddFingerprintCells(uint64_t cells) {
    fingerprint_cells_ += cells;
    ++fingerprinted_ops_;
  }

 private:
  std::vector<double> standard_s_, inference_s_, scoring_s_, selection_s_;
  std::vector<double> fmeasure_;
  double session_s_ = 0.0;
  uint64_t sessions_ = 0;
  uint64_t views_scored_ = 0;
  uint64_t inference_cells_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t grams_ = 0;
  uint64_t memo_hits_ = 0;
  size_t kernel_ops_ = 0;
  uint64_t fingerprint_cells_ = 0;
  size_t fingerprinted_ops_ = 0;
};

/// Times FingerprintDatabase on the request's source and target as two
/// "core.fingerprint" spans under a "probe" root, and counts their cells.
void ProbeFingerprints(const csm::MatchRequest& request, uint64_t request_id,
                       SpanRecorder* spans, LayerCounters* layers);

/// The relational.* metrics of a workload that loads no CSV: all 0.
void AddIdleRelationalMetrics(perfbench::Report* report);
/// The service.* metrics of a workload that runs no MatchService: all 0.
void AddIdleServiceMetrics(perfbench::Report* report);

}  // namespace perfbench

#endif  // CSM_PERFBENCH_LAYER_METRICS_H_
