#include "layer_metrics.h"

#include <numeric>

#include "core/session_store.h"

namespace perfbench {

using csm::obs::PhaseReport;

namespace {

/// `num` / `den`, or 0 when nothing was measured.
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double MedianOrZero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Median(samples);
}

double MeanOrZero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Mean(samples);
}

}  // namespace

csm::ContextMatchOptions BenchMatchOptions(size_t threads) {
  csm::ContextMatchOptions options;
  options.tau = 0.5;
  options.omega = 0.1;
  options.inference = csm::ViewInferenceKind::kSrcClass;
  options.selection = csm::SelectionPolicy::kQualTable;
  options.early_disjuncts = true;
  options.threads = threads;
  return options;
}

void LayerCounters::AddKernel(const TokenKernelDelta& delta, size_t ops) {
  grams_ += delta.Grams();
  memo_hits_ += delta.MemoHits();
  kernel_ops_ += ops;
}

void LayerCounters::AddRun(const csm::MatchResponse& response) {
  const PhaseReport& phases = response.result.phases;
  standard_s_.push_back(phases.Seconds("standard_match"));
  inference_s_.push_back(phases.Seconds("inference"));
  scoring_s_.push_back(phases.Seconds("scoring"));
  selection_s_.push_back(phases.Seconds("selection"));
  const auto sessions = phases.Histogram("standard.session_seconds");
  session_s_ += sessions.sum;
  sessions_ += sessions.count;
  views_scored_ += phases.Count("candidate_views");
  inference_cells_ += phases.Count("inference.grid_cells");
  cache_hits_ += phases.Count("engine.session_cache_hits");
  cache_misses_ += phases.Count("engine.session_cache_misses");
}

void LayerCounters::Report(const std::vector<Span>& spans,
                           perfbench::Report* report) const {
  const auto runs = static_cast<double>(standard_s_.size());
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const std::vector<double> execute_s = SpanDurations(spans, "core.execute");
  const std::vector<double> fingerprint_s = SpanDurations(spans, "core.fingerprint");
  const auto fingerprinted = static_cast<double>(fingerprinted_ops_);
  const auto kernel_ops = static_cast<double>(kernel_ops_);

  report->Add("match.session_build_s",
              Ratio(session_s_, static_cast<double>(sessions_)), "s");
  report->Add("match.sessions", static_cast<double>(sessions_), "count");
  report->Add("core.execute_s", MedianOrZero(execute_s), "s");
  report->Add("core.standard_match_s", MedianOrZero(standard_s_), "s");
  report->Add("core.inference_s", MedianOrZero(inference_s_), "s");
  report->Add("core.scoring_s", MedianOrZero(scoring_s_), "s");
  report->Add("core.selection_s", MedianOrZero(selection_s_), "s");
  report->Add("core.phase_coverage",
              Ratio(sum(standard_s_) + sum(inference_s_) + sum(scoring_s_) +
                        sum(selection_s_),
                    sum(execute_s)),
              "fraction");
  report->Add("core.views_scored", Ratio(static_cast<double>(views_scored_), runs),
              "count/op");
  report->Add("core.inference_cells",
              Ratio(static_cast<double>(inference_cells_), runs), "count/op");
  report->Add("core.fingerprint_s", Ratio(sum(fingerprint_s), fingerprinted), "s");
  report->Add("core.fingerprint_cells",
              Ratio(static_cast<double>(fingerprint_cells_), fingerprinted), "count/op");
  report->Add("core.cache_hits", static_cast<double>(cache_hits_), "count");
  report->Add("core.cache_misses", static_cast<double>(cache_misses_), "count");
  report->Add("core.cache_hit_ratio",
              Ratio(static_cast<double>(cache_hits_),
                    static_cast<double>(cache_hits_ + cache_misses_)),
              "fraction");
  report->Add("core.fmeasure", MeanOrZero(fmeasure_), "fraction");
  report->Add("text.grams_interned", Ratio(static_cast<double>(grams_), kernel_ops),
              "count/op");
  report->Add("ml.nb_memo_hits", Ratio(static_cast<double>(memo_hits_), kernel_ops),
              "count/op");
}

void AddIdleRelationalMetrics(perfbench::Report* report) {
  for (const char* name : {"relational.load_s", "relational.scan_s", "relational.parse_s"}) {
    report->Add(name, 0.0, "s");
  }
  report->Add("relational.rows", 0.0, "count");
  report->Add("relational.bytes", 0.0, "bytes");
  report->Add("relational.chunks", 0.0, "count");
}

void AddIdleServiceMetrics(perfbench::Report* report) {
  for (const char* name : {"service.queue_p50_s", "service.queue_p95_s",
                           "service.run_p50_s", "service.run_p95_s"}) {
    report->Add(name, 0.0, "s");
  }
  report->Add("service.deduplicated", 0.0, "count");
  report->Add("service.dedup_ratio", 0.0, "fraction");
  report->Add("service.rejected", 0.0, "count");
  report->Add("service.backlog_end", 0.0, "count");
  report->Add("service.gen_late_p95_s", 0.0, "s");
  report->Add("service.gen_late_max_s", 0.0, "s");
  report->Add("service.latency_mean_s", 0.0, "s");
  report->Add("service.latency_p95_s", 0.0, "s");
  report->Add("service.max_rps", 0.0, "1/s");
}

namespace {

uint64_t Cells(const csm::Database& db) {
  uint64_t cells = 0;
  for (const csm::Table& table : db.tables()) {
    cells += table.num_rows() * table.schema().num_attributes();
  }
  return cells;
}

}  // namespace

void ProbeFingerprints(const csm::MatchRequest& request, uint64_t request_id,
                       SpanRecorder* spans, LayerCounters* layers) {
  const uint64_t probe = spans->Begin("probe", 0, request_id);
  for (const csm::Database* db : {request.source.get(), request.target.get()}) {
    const uint64_t span = spans->Begin("core.fingerprint", probe, request_id);
    csm::FingerprintDatabase(*db);
    spans->End(span);
  }
  spans->End(probe);
  layers->AddFingerprintCells(Cells(*request.source) + Cells(*request.target));
}

}  // namespace perfbench
