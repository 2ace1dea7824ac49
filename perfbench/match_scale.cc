// Workload match_scale: cold contextual matches of one scale retail pair.
//
// Why: compute dominates — view inference and candidate scoring take about
// 95% of a match — and there is no ingest, queue or cache reuse.  Every
// operation is MatchEngine::Execute on a fresh engine, so phase 1 (session
// build) always runs and the session cache only ever misses.
//
// The pair is the scale generator's default instance (generator seed 1);
// the run's seed picks kEngineSeeds train/test partitioning seeds, and the
// matches cycle through them.  About one input in eight (generator or
// partitioning seed) makes the classifiers accept 9 candidate views
// instead of 6, a quarter more time; the median over several inputs keeps
// one such input from deciding the run's times.  Peak RSS is the run's
// maximum, so it does show one: about 580 MiB instead of 500.

#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/fingerprint.h"
#include "core/match_engine.h"
#include "datagen/ground_truth.h"
#include "datagen/scale_gen.h"
#include "layer_metrics.h"
#include "perfbench.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace csm;

constexpr size_t kInventoryRows = 100'000;
constexpr size_t kMaxTrainingRows = 2000;
constexpr size_t kSetupReps = 3;
constexpr size_t kEngineSeeds = 3;
/// At least five matches, so each run has two of every seed but one: a
/// single heavy input among the three then never decides the median.
constexpr size_t kMinMatches = 5;

ContextMatchOptions MatchOptionsFor(size_t threads, uint64_t seed) {
  ContextMatchOptions options = BenchMatchOptions(threads);
  options.seed = seed;
  options.match.max_training_rows = kMaxTrainingRows;
  return options;
}

}  // namespace

Report RunMatchScale(const RunArgs& args) {
  Report report;
  std::optional<RetailDataset> data;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    data.reset();
    ScaleRetailOptions gen;
    gen.source_rows = kInventoryRows;
    gen.gamma = 4;
    gen.threads = kLibraryThreads;
    data = MakeScaleRetailDataset(gen);
  });
  MatchRequest request;
  request.mode = MatchMode::kContext;
  request.source = BorrowDatabase(data->source);
  request.target = BorrowDatabase(data->target);

  // Match i runs with partitioning seed seeds[i % kEngineSeeds]; its
  // reference is the same request on a serial engine.  The references run
  // side by side, one thread each, so the run spends a third of the time
  // on them; each is still a threads=1 engine of its own.
  std::vector<uint64_t> seeds;
  for (size_t k = 0; k < kEngineSeeds; ++k) seeds.push_back(args.seed * kEngineSeeds + k);
  std::vector<std::string> reference(kEngineSeeds);
  std::vector<Status> reference_status(kEngineSeeds);
  {
    std::vector<std::thread> workers;
    for (size_t k = 0; k < kEngineSeeds; ++k) {
      workers.emplace_back([&, k] {
        MatchEngine serial(MatchOptionsFor(1, seeds[k]));
        const MatchResponse response = serial.Execute(request);
        reference_status[k] = response.status;
        reference[k] = check::FingerprintResult(response.result);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  for (const Status& status : reference_status) {
    if (!status.ok()) report.Fail("reference run: " + status.ToString());
  }
  std::cout << "match_scale: " << kInventoryRows << "-row inventory, gamma 4, "
            << "max_training_rows " << kMaxTrainingRows << ", "
            << kLibraryThreads << " engine threads, fresh engine per match\n";

  auto check = [&](const MatchResponse& response, size_t i, const std::string& what) {
    const bool ok = response.ok() &&
                    check::FingerprintResult(response.result) == reference[i % kEngineSeeds];
    if (!ok) report.Fail(what + " differs from the serial reference");
    report.CountOp(ok);
  };

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  // CPU is read around each Execute only, so the engine's construction
  // and the result checks do not count as matching work.
  std::vector<double> match_s, match_cpu_s;
  std::vector<double> fmeasure;
  const auto start = Clock::now();
  while (match_s.size() < kMinMatches || SecondsSince(start) < budget) {
    const size_t i = match_s.size();
    ReleaseFreeMemory();  // what the reference runs or the last match freed
    MatchEngine engine(MatchOptionsFor(kLibraryThreads, seeds[i % kEngineSeeds]));
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    const MatchResponse response = engine.Execute(request);
    match_s.push_back(SecondsSince(t0));
    match_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    check(response, i, "match " + std::to_string(i));
    fmeasure.push_back(EvaluateMatches(data->truth, response.matches).fmeasure);
  }
  const double cpu_util = CpuUtilization(match_cpu_s, match_s);
  const double cpu_s_per_op = Median(match_cpu_s);
  std::cout << "matches: " << match_s.size() << ", p50 " << Median(match_s)
            << " s, F-measure median " << Median(fmeasure) << "\n";

  if (!args.trace) {
    AddEndToEndMetrics(setup_s, Median(match_s), cpu_s_per_op, &report);
    return report;
  }

  SpanRecorder spans;
  LayerCounters layers;
  const auto traced_start = Clock::now();
  for (uint64_t i = 1; i <= kMinMatches || SecondsSince(traced_start) < budget; ++i) {
    ReleaseFreeMemory();
    MatchEngine engine(MatchOptionsFor(kLibraryThreads, seeds[(i - 1) % kEngineSeeds]));
    const TokenKernelDelta kernel;
    const uint64_t op = spans.Begin("op", 0, i);
    const uint64_t call = spans.Begin("core.execute", op, i);
    const MatchResponse response = engine.Execute(request);
    spans.End(call);
    spans.End(op);
    layers.AddKernel(kernel);
    layers.AddRun(response);
    layers.AddQuality(EvaluateMatches(data->truth, response.matches).fmeasure);
    check(response, i - 1, "traced match " + std::to_string(i));
    ProbeFingerprints(request, i, &spans, &layers);
  }
  const std::vector<Span> recorded = spans.Spans();
  const std::string trace_path = args.workdir + "/trace-match_scale.jsonl";
  if (!spans.Write(trace_path)) report.Fail("cannot write " + trace_path);

  AddIdleRelationalMetrics(&report);
  layers.Report(recorded, &report);
  AddIdleServiceMetrics(&report);
  report.Add("exec.cpu_util", cpu_util, "fraction");
  report.Add("exec.cpu_s_per_op", cpu_s_per_op, "s");
  report.Add("trace.coverage", AttributeOps(recorded).Coverage(), "fraction");
  report.Add("trace.overhead",
             Median(SpanDurations(recorded, "op")) / Median(match_s) - 1.0, "fraction");
  return report;
}

}  // namespace perfbench
