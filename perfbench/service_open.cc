// Workload service_open: an open loop of seeded Poisson arrivals into one
// MatchService, stepped through a fixed ladder of rates.
//
// Why: each request is 30-300 ms of compute on small retail and grades
// pairs, so queueing, the single dispatcher, the session cache and request
// deduplication decide latency.  Independent users make an open loop: the
// generator submits on schedule whether or not earlier requests finished,
// and latency runs from each request's due time to the moment its future
// is ready, so a stall is charged to every request queued behind it.
//
// One generator thread submits (Submit never blocks on the engine) and one
// collector thread waits on the futures in submission order; the single
// dispatcher answers in that order too, so the collector sees each future
// as soon as it is ready.  A rung "meets the limit" when its p95 latency,
// counting a failed or refused request as infinitely late, is at most
// kLatencyLimit and its backlog does not grow.
//
// The untraced run reports, over whole cycles of the request mix on the
// lowest rung, the engine time per request (MatchResponse::run_seconds,
// the shortest of each request kind, averaged over the kinds) and the
// process CPU seconds per request.  Latency is not an end-to-end metric
// here because on a shared host it does not repeat: on a 4-vCPU VM whose
// host stole 2-13% of its CPU time, the mean latency at 6 req/s ranged over
// 0.09-0.48 s between runs, and the mean engine time doubled with steal
// (0.06 s at 0.5% steal, 0.10 s at 15%).  The traced run climbs the ladder
// and reports the latencies (mean and p95 of the lowest rung: the median
// jumps between the ~30 ms cache hits and the 110-360 ms misses) and the
// highest rate that meets the limit, as layer metrics.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/fingerprint.h"
#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"
#include "layer_metrics.h"
#include "perfbench.h"
#include "service/match_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace csm;

constexpr double kRates[] = {6.0, 12.0, 24.0, 48.0};
/// The rung the run reports on.  On a 4-core host the dispatcher is close
/// to saturation at 12 req/s; at 6 req/s it is not.
constexpr double kReportRate = kRates[0];
/// p95 over fewer samples would rest on fewer than ten beyond it.
constexpr size_t kMinReportRequests = 200;
constexpr double kLatencyLimit = 1.0;
constexpr size_t kTenants = 4;
/// One set-up (including the cache warm-up) takes about two seconds.
constexpr size_t kSetupReps = 3;

struct Pair {
  Database source{"source"};
  Database target{"target"};
  GroundTruth truth;
};

/// The eight small pairs of the service load mix, fixed so every seed
/// offers the same work: four retail variants (size and gamma sweep) and
/// four grades variants.  The seed varies the arrival times.
std::vector<Pair> MakePairs() {
  std::vector<Pair> pairs;
  for (size_t k = 0; k < 4; ++k) {
    RetailOptions options;
    options.num_items = 80 + 40 * k;
    options.gamma = k < 2 ? 2 : 4;
    options.seed = 100 + k;
    RetailDataset data = MakeRetailDataset(options);
    pairs.push_back(
        Pair{std::move(data.source), std::move(data.target), std::move(data.truth)});
  }
  for (size_t k = 0; k < 4; ++k) {
    GradesOptions options;
    options.seed = 200 + k;
    GradesDataset data = MakeGradesDataset(options);
    pairs.push_back(
        Pair{std::move(data.source), std::move(data.target), std::move(data.truth)});
  }
  return pairs;
}

/// Request kind c in [0, 3 * pairs): pair c / 3 in mode c % 3.
MatchRequest RequestFor(const std::vector<Pair>& pairs, size_t kind, size_t tenant) {
  MatchRequest request;
  switch (kind % 3) {
    case 0:
      request.mode = MatchMode::kContext;
      break;
    case 1:
      request.mode = MatchMode::kConjunctive;
      request.max_stages = 2;
      break;
    default:
      request.mode = MatchMode::kTargetContext;
      break;
  }
  request.tenant = "tenant-" + std::to_string(tenant);
  request.source = BorrowDatabase(pairs[kind / 3].source);
  request.target = BorrowDatabase(pairs[kind / 3].target);
  return request;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Arrival {
  double due = 0.0;  // seconds after the step starts
  size_t kind = 0;
  size_t tenant = 0;
};

/// `count` Poisson arrivals at `rate` per second; the same (seed, rate,
/// count) always gives the same schedule.  Request i asks for pair i % 8 in
/// mode i % 3 for tenant i % 4, the mix of the closed-loop service load
/// bench: the seed moves the arrival times, never the work asked for, so
/// the session cache sees the same key sequence in every run.
std::vector<Arrival> Schedule(uint64_t seed, double rate, size_t count, size_t pairs) {
  uint64_t state = seed * 0x100000001b3ULL + static_cast<uint64_t>(rate * 1000.0);
  auto uniform = [&] {
    return static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
  };
  std::vector<Arrival> arrivals(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += -std::log1p(-uniform()) / rate;
    arrivals[i].due = t;
    arrivals[i].kind = (i % pairs) * 3 + i % 3;
    arrivals[i].tenant = i % kTenants;
  }
  return arrivals;
}

struct Outcome {
  Clock::time_point due, submit_start, submit_end, ready;
  size_t kind = 0;
  std::shared_future<MatchResponse> future;
  bool deduplicated = false;
  /// Set by CheckStep: answered OK and equal to the serial reference.
  bool ok = false;

  double Latency() const {
    return ok ? SecondsBetween(due, ready) : std::numeric_limits<double>::infinity();
  }
  double Late() const { return SecondsBetween(due, submit_start); }
};

struct Step {
  double rate = 0.0;
  std::vector<Outcome> outcomes;
  size_t backlog_mid = 0;
  size_t backlog_end = 0;
  double cpu_util = 0.0;
  double cpu_s_per_op = 0.0;

  std::vector<double> Latencies() const {
    std::vector<double> out;
    for (const Outcome& o : outcomes) out.push_back(o.Latency());
    return out;
  }
  /// The engine time (MatchResponse::run_seconds) of each request that ran
  /// rather than joining another's run.  Needs the futures.
  std::vector<double> RunSeconds() const {
    std::vector<double> out;
    for (const Outcome& o : outcomes) {
      if (!o.deduplicated) out.push_back(o.future.get().run_seconds);
    }
    return out;
  }
  /// The mean over request kinds of each kind's shortest engine time: the
  /// engine time of one pass through the mix, as free of host noise as the
  /// run allows.  Every kind keeps its cache outcome (hit or miss) on each
  /// pass, so each minimum is over runs of the same work; host CPU steal,
  /// which comes and goes, only lengthens runs.  Needs the futures.
  double KindMinRunSeconds() const {
    std::map<size_t, double> shortest;
    for (const Outcome& o : outcomes) {
      if (o.deduplicated) continue;
      const double seconds = o.future.get().run_seconds;
      auto [it, inserted] = shortest.emplace(o.kind, seconds);
      if (!inserted) it->second = std::min(it->second, seconds);
    }
    double sum = 0.0;
    for (const auto& [kind, seconds] : shortest) sum += seconds;
    return sum / static_cast<double>(shortest.size());
  }
  /// Session cache hits and misses over the requests that ran.
  std::pair<uint64_t, uint64_t> CacheCounts() const {
    std::pair<uint64_t, uint64_t> out{0, 0};
    for (const Outcome& o : outcomes) {
      if (o.deduplicated) continue;
      const auto& phases = o.future.get().result.phases;
      out.first += phases.Count("engine.session_cache_hits");
      out.second += phases.Count("engine.session_cache_misses");
    }
    return out;
  }
  /// A queue that fluctuates around a steady depth is not growing: the end
  /// depth must exceed both the midpoint depth and the arrivals of one
  /// latency limit before the backlog counts as growing.
  bool BacklogGrows() const {
    return backlog_end > backlog_mid &&
           static_cast<double>(backlog_end) > rate * kLatencyLimit;
  }
  bool MeetsLimit() const {
    return Quantile(Latencies(), 0.95) <= kLatencyLimit && !BacklogGrows();
  }
};

/// Submits `arrivals` on schedule from this thread while a collector
/// thread records when each future becomes ready; returns once every
/// request is answered, so the next step starts on an empty queue.
Step RunStep(MatchService& service, const std::vector<Pair>& pairs,
             const std::vector<Arrival>& arrivals, double rate) {
  Step step;
  step.rate = rate;
  step.outcomes.resize(arrivals.size());
  std::mutex mu;
  std::condition_variable cv;
  size_t submitted = 0;  // guarded by mu

  CpuWindow cpu;
  std::thread collector([&] {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > i; });
      }
      step.outcomes[i].future.wait();
      step.outcomes[i].ready = Clock::now();
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const double midpoint = arrivals[arrivals.size() / 2].due;
  bool mid_sampled = false;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (!mid_sampled && a.due >= midpoint) {
      std::this_thread::sleep_until(at(midpoint));
      step.backlog_mid = service.queue_depth();
      mid_sampled = true;
    }
    Outcome& o = step.outcomes[i];
    o.due = at(a.due);
    o.kind = a.kind;
    MatchRequest request = RequestFor(pairs, a.kind, a.tenant);
    std::this_thread::sleep_until(o.due);
    o.submit_start = Clock::now();
    SubmitHandle handle = service.Submit(std::move(request));
    o.submit_end = Clock::now();
    o.future = std::move(handle.future);
    o.deduplicated = handle.deduplicated;
    {
      std::lock_guard<std::mutex> lock(mu);
      submitted = i + 1;
    }
    cv.notify_one();
  }
  step.backlog_end = service.queue_depth();
  collector.join();
  step.cpu_util = cpu.Utilization();
  step.cpu_s_per_op = cpu.SecondsPerOp(arrivals.size());
  return step;
}

/// Checks every response of `step` against the serial reference for its
/// request kind; counts each request in `report`.
void CheckStep(Step* step, const std::vector<std::string>& reference, Report* report) {
  for (Outcome& o : step->outcomes) {
    const MatchResponse& response = o.future.get();
    o.ok = response.ok() && check::FingerprintResult(response.result) == reference[o.kind];
    if (!o.ok) {
      report->Fail("request kind " + std::to_string(o.kind) + " at " +
                   std::to_string(step->rate) + " req/s: " +
                   (response.ok() ? "differs from the serial reference"
                                  : response.status.ToString()));
    }
    report->CountOp(o.ok);
  }
}

void PrintStep(const Step& step) {
  const std::vector<double> latency = step.Latencies();
  std::vector<double> late;
  for (const Outcome& o : step.outcomes) late.push_back(o.Late());
  const auto [hits, misses] = step.CacheCounts();
  std::printf(
      "step %5.1f req/s: %zu requests, latency mean %.4f s p50 %.4f s p95 %.4f s max %.4f s, "
      "engine run mean %.4f s per-kind min %.4f s, session cache %llu hits %llu misses, "
      "backlog mid %zu end %zu, generator late p95 %.6f s, cpu %.2f (%.4f s/request) -> %s\n",
      step.rate, latency.size(), Mean(latency), Quantile(latency, 0.5), Quantile(latency, 0.95),
      Quantile(latency, 1.0), Mean(step.RunSeconds()), step.KindMinRunSeconds(),
      static_cast<unsigned long long>(hits), static_cast<unsigned long long>(misses),
      step.backlog_mid, step.backlog_end, Quantile(late, 0.95), step.cpu_util,
      step.cpu_s_per_op, step.MeetsLimit() ? "meets the limit" : "misses the limit");
  std::fflush(stdout);
}

/// Requests per rung: kMinReportRequests (at least `seconds` of traffic)
/// on the reported rung, `seconds` / 2 of traffic on the others.
size_t StepRequests(double rate, double seconds) {
  if (rate == kReportRate) {
    return std::max(kMinReportRequests, static_cast<size_t>(std::ceil(rate * seconds)));
  }
  return static_cast<size_t>(std::ceil(rate * seconds / 2));
}

/// The rate at which the ladder reaches the latency limit: p95 latency is
/// interpolated linearly between the last rung that meets the limit and
/// the first that misses it, so the estimate follows capacity smoothly
/// instead of jumping a whole rung.  A rung missed through a growing
/// backlog while its p95 is within the limit ends the estimate at the last
/// rung met.
double MaxRate(const std::vector<Step>& ladder) {
  double rate = 0.0;
  double p95 = 0.0;
  for (const Step& step : ladder) {
    const double q = Quantile(step.Latencies(), 0.95);
    if (step.MeetsLimit()) {
      rate = step.rate;
      p95 = q;
      continue;
    }
    if (q > kLatencyLimit) rate += (step.rate - rate) * (kLatencyLimit - p95) / (q - p95);
    break;
  }
  return rate;
}

/// Rebuilds the traced step's spans from the timestamps the generator and
/// collector took and the queue/run split each response reports.
void RecordSpans(const Step& step, SpanRecorder* spans) {
  for (size_t i = 0; i < step.outcomes.size(); ++i) {
    const Outcome& o = step.outcomes[i];
    const uint64_t id = i + 1;
    const double ready = spans->At(o.ready);
    const double submitted = spans->At(o.submit_end);
    const uint64_t op = spans->Record("op", spans->At(o.due), ready, 0, id);
    spans->Record("service.submit", spans->At(o.submit_start), submitted, op, id);
    const uint64_t wait = spans->Record("service.wait", submitted, ready, op, id);
    if (o.deduplicated) continue;  // answered by another request's run
    const MatchResponse& response = o.future.get();
    const double dispatched = std::min(submitted + response.queue_seconds, ready);
    spans->Record("service.queue", submitted, dispatched, wait, id);
    spans->Record("core.execute", dispatched,
                  std::min(dispatched + response.run_seconds, ready), wait, id);
  }
}

}  // namespace

Report RunServiceOpen(const RunArgs& args) {
  Report report;
  std::vector<Pair> pairs;
  std::unique_ptr<MatchService> service;
  // Set-up builds the pairs and the service, then warms the session cache.
  // The mix needs 16 session sets and the engine caches 8, so which ones
  // are cached cycles with the request order.  One untimed request of each
  // kind, in that order, brings the cache to the cycle it keeps; without it
  // the first seconds of a run are all misses and their queue dominates the
  // tail.
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    service.reset();
    pairs = MakePairs();
    ServiceOptions options;
    options.engine = BenchMatchOptions(kLibraryThreads);
    // Large enough that no step is refused for a full queue: the ladder
    // stops at the first rate that misses the latency limit instead.
    options.max_queue = 1 << 16;
    service = std::make_unique<MatchService>(options);
    for (const Arrival& a : Schedule(args.seed, kReportRate, pairs.size() * 3, pairs.size())) {
      const MatchResponse response = service->Call(RequestFor(pairs, a.kind, a.tenant));
      if (!response.ok()) report.Fail("warm-up request: " + response.status.ToString());
    }
  });
  const size_t kinds = pairs.size() * 3;

  // Serial references, one per request kind.
  std::vector<std::string> reference;
  {
    MatchEngine serial(BenchMatchOptions(1));
    for (size_t kind = 0; kind < kinds; ++kind) {
      const MatchResponse response = serial.Execute(RequestFor(pairs, kind, 0));
      if (!response.ok()) report.Fail("reference run: " + response.status.ToString());
      reference.push_back(check::FingerprintResult(response.result));
    }
  }
  std::cout << "service_open: " << pairs.size() << " pairs x 3 modes, " << kTenants
            << " tenants, engine threads " << kLibraryThreads
            << ", one generator + one collector thread, latency limit p95 <= "
            << kLatencyLimit << " s\n"
            << "session cache: warmed by one untimed request of each kind\n";

  auto run = [&](double rate, size_t count) {
    Step step = RunStep(*service, pairs, Schedule(args.seed, rate, count, pairs.size()), rate);
    CheckStep(&step, reference, &report);
    PrintStep(step);
    return step;
  };

  if (!args.trace) {
    // Whole cycles of the request mix, so each run weighs every kind, cache
    // hit or miss, the same.  op_s is the engine time a request takes (its
    // run_seconds, per-kind minimum), not its latency: at this rate the
    // queue wait depends on how the seed's Poisson arrivals cluster and on
    // host CPU steal, which moved the mean latency by a quarter and more
    // between seeds; latency is in the traced run.
    const auto cycles = static_cast<size_t>(std::ceil(kReportRate * args.seconds / kinds));
    const Step step = run(kReportRate, std::max<size_t>(cycles, 1) * kinds);
    AddEndToEndMetrics(setup_s, step.KindMinRunSeconds(), step.cpu_s_per_op, &report);
    return report;
  }

  // Traced run: climb the ladder untraced, stopping at the first rung that
  // misses the limit (its lowest rung is also the overhead baseline), then
  // run the lowest rung again traced.
  std::vector<Step> ladder;
  for (double rate : kRates) {
    ladder.push_back(run(rate, StepRequests(rate, args.seconds)));
    // Only the latencies are needed from here on; dropping the responses
    // keeps peak RSS independent of how far the ladder climbed.
    for (Outcome& o : ladder.back().outcomes) o.future = {};
    if (!ladder.back().MeetsLimit()) break;
  }
  const Step& untraced = ladder.front();
  const TokenKernelDelta kernel;
  const Step traced = run(kReportRate, StepRequests(kReportRate, args.seconds));

  SpanRecorder spans;
  LayerCounters layers;
  RecordSpans(traced, &spans);
  std::vector<double> queue_s, run_s, late_s;
  size_t deduplicated = 0, rejected = 0, runs = 0;
  for (size_t i = 0; i < traced.outcomes.size(); ++i) {
    const Outcome& o = traced.outcomes[i];
    const MatchResponse& response = o.future.get();
    late_s.push_back(o.Late());
    const StatusCode code = response.status.code();
    if (code == StatusCode::kResourceExhausted || code == StatusCode::kUnavailable) {
      ++rejected;
    }
    if (o.deduplicated) {
      ++deduplicated;
    } else {
      ++runs;
      queue_s.push_back(response.queue_seconds);
      run_s.push_back(response.run_seconds);
      layers.AddRun(response);
    }
    layers.AddQuality(EvaluateMatches(pairs[o.kind / 3].truth, response.matches).fmeasure);
    ProbeFingerprints(RequestFor(pairs, o.kind, 0), i + 1, &spans, &layers);
  }
  layers.AddKernel(kernel, runs);
  const std::vector<Span> recorded = spans.Spans();
  const std::string trace_path = args.workdir + "/trace-service_open.jsonl";
  if (!spans.Write(trace_path)) report.Fail("cannot write " + trace_path);

  AddIdleRelationalMetrics(&report);
  layers.Report(recorded, &report);
  report.Add("service.queue_p50_s", Quantile(queue_s, 0.5), "s");
  report.Add("service.queue_p95_s", Quantile(queue_s, 0.95), "s");
  report.Add("service.run_p50_s", Quantile(run_s, 0.5), "s");
  report.Add("service.run_p95_s", Quantile(run_s, 0.95), "s");
  report.Add("service.deduplicated", static_cast<double>(deduplicated), "count");
  report.Add("service.dedup_ratio",
             static_cast<double>(deduplicated) / static_cast<double>(traced.outcomes.size()),
             "fraction");
  report.Add("service.rejected", static_cast<double>(rejected), "count");
  report.Add("service.backlog_end", static_cast<double>(traced.backlog_end), "count");
  report.Add("service.gen_late_p95_s", Quantile(late_s, 0.95), "s");
  report.Add("service.gen_late_max_s", Quantile(late_s, 1.0), "s");
  report.Add("service.latency_mean_s", Mean(untraced.Latencies()), "s");
  report.Add("service.latency_p95_s", Quantile(untraced.Latencies(), 0.95), "s");
  report.Add("service.max_rps", MaxRate(ladder), "1/s");
  report.Add("exec.cpu_util", untraced.cpu_util, "fraction");
  report.Add("exec.cpu_s_per_op", untraced.cpu_s_per_op, "s");
  report.Add("trace.coverage", AttributeOps(recorded).Coverage(), "fraction");
  report.Add("trace.overhead",
             Mean(SpanDurations(recorded, "op")) / Mean(untraced.Latencies()) - 1.0,
             "fraction");
  return report;
}

}  // namespace perfbench
