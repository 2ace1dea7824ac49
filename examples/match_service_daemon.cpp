// Matching-as-a-service in one process: a MatchService fronting one shared
// MatchEngine with admission control, per-tenant quotas and in-flight
// deduplication.
//
// The demo plays three clients against generated Retail/Grades data:
//   * "analytics" submits the same retail request from four threads at
//     once — one engine run serves all four (in-flight deduplication);
//   * "etl" is quota-limited to 1 in-flight request and a 2-request burst,
//     so its flood of submissions is mostly rejected with
//     kResourceExhausted before any work happens;
//   * an unnamed default tenant mixes grades and reversed-role requests.
//
// Build & run:  ./build/examples/match_service_daemon
//               ./build/examples/match_service_daemon --health
//
// `--health` brings a default service up, serves one probe request, and
// prints the HealthSnapshot as JSON — the readiness answer an operator or
// load balancer would scrape.  Exit code 0 iff the service is accepting
// and the probe succeeded.

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"
#include "service/match_service.h"

namespace {

/// --health: stand a default service up, probe it, report readiness.
int RunHealthCheck() {
  using namespace csm;
  RetailOptions retail_options;
  retail_options.num_items = 60;
  retail_options.seed = 7;
  RetailDataset retail = MakeRetailDataset(retail_options);

  ServiceOptions options;
  options.engine.threads = 0;
  MatchService service(options);

  MatchRequest probe;
  probe.source = BorrowDatabase(retail.source);
  probe.target = BorrowDatabase(retail.target);
  const bool probe_ok = service.Call(probe).ok();

  const HealthSnapshot health = service.Health();
  std::printf("%s\n", health.ToJson().c_str());
  std::fprintf(stderr, "health: %s; probe %s\n", health.ToString().c_str(),
               probe_ok ? "ok" : "FAILED");
  service.Stop();
  return health.accepting && probe_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csm;

  if (argc > 1 && std::strcmp(argv[1], "--health") == 0) {
    return RunHealthCheck();
  }

  RetailOptions retail_options;
  retail_options.num_items = 200;
  retail_options.seed = 7;
  RetailDataset retail = MakeRetailDataset(retail_options);
  GradesOptions grades_options;
  grades_options.seed = 11;
  GradesDataset grades = MakeGradesDataset(grades_options);

  ServiceOptions options;
  options.engine.tau = 0.5;
  options.engine.omega = 0.1;
  options.engine.threads = 0;  // engine pool uses all cores
  options.max_queue = 16;
  options.tenant_quotas["etl"].max_in_flight = 1;
  options.tenant_quotas["etl"].requests_per_second = 0.001;
  options.tenant_quotas["etl"].burst = 2;

  MatchService service(options);

  // -- analytics: four identical submissions, one run --------------------
  std::vector<std::thread> clients;
  std::vector<MatchResponse> responses(4);
  for (size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back([&, i] {
      MatchRequest request;
      request.tenant = "analytics";
      request.source = BorrowDatabase(retail.source);
      request.target = BorrowDatabase(retail.target);
      responses[i] = service.Call(request);
    });
  }
  for (auto& t : clients) t.join();
  size_t deduplicated = 0;
  for (const auto& r : responses) deduplicated += r.deduplicated ? 1 : 0;
  std::printf(
      "analytics: 4 identical submissions -> %zu matches each, "
      "%zu served by deduplication\n",
      responses[0].matches.size(), deduplicated);

  // -- etl: floods past its quota ---------------------------------------
  size_t rejected = 0;
  for (int i = 0; i < 6; ++i) {
    MatchRequest request;
    request.tenant = "etl";
    // Vary the deadline so requests are NOT identical (no dedup escape).
    request.deadline_ms = 60000 + i;
    request.source = BorrowDatabase(grades.source);
    request.target = BorrowDatabase(grades.target);
    SubmitHandle handle = service.Submit(request);
    if (handle.future.get().status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    }
  }
  std::printf("etl: 6 submissions under a 2-token budget -> %zu rejected\n",
              rejected);

  // -- default tenant: reversed-role request ----------------------------
  MatchRequest reversed;
  reversed.mode = MatchMode::kTargetContext;
  reversed.source = BorrowDatabase(retail.source);
  reversed.target = BorrowDatabase(retail.target);
  MatchResponse response = service.Call(reversed);
  std::printf("default: target-context run -> %zu matches, %zu target views\n",
              response.matches.size(), response.selected_views.size());

  const obs::PhaseReport report = service.metrics().Snapshot();
  std::printf(
      "\nservice metrics: admitted=%llu completed=%llu deduplicated=%llu "
      "rejected=%llu\n",
      static_cast<unsigned long long>(report.Count("service.admitted")),
      static_cast<unsigned long long>(report.Count("service.completed")),
      static_cast<unsigned long long>(report.Count("service.deduplicated")),
      static_cast<unsigned long long>(
          report.Count("service.rejected_rate_limit") +
          report.Count("service.rejected_in_flight") +
          report.Count("service.rejected_queue_full")));
  const obs::HistogramSummary latency =
      report.Histogram("service.total_seconds");
  std::printf("latency p50=%.3fs p95=%.3fs p99=%.3fs over %llu requests\n",
              latency.p50, latency.p95, latency.p99,
              static_cast<unsigned long long>(latency.count));
  service.Stop();

  return 0;
}
