// MatchService: matching-as-a-service over one shared MatchEngine.
//
// The engine is deliberately single-caller (one Match at a time; see
// core/match_engine.h), which is the right shape for a library but not for
// a daemon fielding concurrent clients.  MatchService puts the missing
// layer in front: a bounded admission queue feeding ONE dispatcher thread
// that owns the engine.  Parallelism stays where it already works — inside
// the engine's thread pool — while the service enforces the policies a
// shared deployment needs:
//
//   * Admission control: the queue is bounded (ServiceOptions::max_queue);
//     a Submit that finds it full is rejected immediately with
//     kResourceExhausted instead of queueing unboundedly.
//   * Per-tenant quotas: each tenant (MatchRequest::tenant) gets a cap on
//     in-flight requests and a token-bucket rate limit; breaching either
//     rejects with kResourceExhausted before any work happens.
//   * In-flight deduplication: requests with equal (source fingerprint,
//     target fingerprint, mode, stages, deadline) attach to the already
//     queued/running twin and receive the identical MatchResponse —
//     bit-equal results for every waiter, one engine run.
//   * Deadlines cover queue time: MatchRequest::deadline_ms starts a
//     CancellationToken at admission.  A request whose budget expires while
//     queued is answered kDeadlineExceeded/kBaselineOnly without running;
//     one that expires mid-run degrades per the PR 3 per-phase contracts —
//     degradation IS the overload story, not a special case.
//
// Every answer is definitive: the run's own status, or a service-level
// code — kResourceExhausted at admission, kDeadlineExceeded for a request
// that expired in the queue, kUnavailable once stopped or on an injected
// "service.dispatch" fault.  Requests answered without an engine run refund
// their rate token.
//
// Health() is a point-in-time snapshot (accepting, queue depth, queue
// expiries) — the same numbers the daemon's --health mode prints.
//
// Results are delivered through shared_futures, so Submit never blocks on
// matching work and any number of threads can wait on one response.  All
// service and engine metrics accumulate in metrics() ("service.*" counters,
// queue/run latency histograms with p50/p95/p99) — bench_service_load
// builds its report from exactly this registry.
//
// Thread safety: Submit / Call / Stop / queue_depth / Health are safe from
// any thread.  engine() is exposed for setup and post-Stop inspection only.

#ifndef CSM_SERVICE_MATCH_SERVICE_H_
#define CSM_SERVICE_MATCH_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/match_engine.h"
#include "core/match_request.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace csm {

/// Per-tenant admission limits.  Zero means "unlimited" for every field.
struct TenantQuota {
  /// Max requests admitted but not yet answered (queued + running).
  size_t max_in_flight = 0;
  /// Token-bucket refill rate; each admitted request costs one token.
  /// Deduplicated attaches still pay (rate limits count requests, dedup
  /// saves work, not quota).
  double requests_per_second = 0.0;
  /// Bucket capacity; 0 defaults to max(1, requests_per_second).
  double burst = 0.0;
};

struct ServiceOptions {
  /// Engine configuration (threads, tau, deadline_ms, ...).
  ContextMatchOptions engine;
  /// Admission queue bound; a full queue rejects new work.
  size_t max_queue = 64;
  /// Quota for tenants absent from `tenant_quotas` (default: unlimited).
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Optional tracer, forwarded to the engine.  Must outlive the service.
  obs::Tracer* tracer = nullptr;

  /// Test hook: when set, the dispatcher calls this after popping each
  /// ticket, outside all locks, before the expiry check and engine run.  A
  /// blocking gate lets tests hold the dispatcher still while they fill the
  /// queue to an exact depth.  Never set in production.
  std::function<void()> test_dispatch_gate;
};

/// What Submit hands back: the (possibly shared) response future, plus
/// whether this submission attached to an identical in-flight request
/// instead of enqueueing a run of its own.
struct SubmitHandle {
  std::shared_future<MatchResponse> future;
  bool deduplicated = false;
};

/// Point-in-time readiness snapshot (MatchService::Health): what an
/// operator or load balancer needs to decide "send traffic here?".
struct HealthSnapshot {
  /// Submit would not reject outright (the service is not stopped).
  bool accepting = false;
  size_t queue_depth = 0;
  size_t max_queue = 0;
  /// Requests whose deadline ran out while queued (answered unrun).
  uint64_t expired_in_queue = 0;

  /// One-line human summary ("accepting queue=3/64 expired=0").
  std::string ToString() const;
  /// JSON object with the same fields (the daemon's --health output).
  std::string ToJson() const;
};

class MatchService {
 public:
  explicit MatchService(ServiceOptions options);
  /// Stops the service (see Stop) before destruction.
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// Admission: applies, in order, stopped-check, tenant rate limit,
  /// deduplication, tenant in-flight cap, queue bound.  Rejections return
  /// an already-resolved future (kUnavailable when stopped,
  /// kResourceExhausted otherwise) — Submit itself never blocks on
  /// matching work and never throws.
  SubmitHandle Submit(MatchRequest request);

  /// Submit + wait.  The returned response carries queue/run timings from
  /// the run that served it and `deduplicated` from this submission.
  MatchResponse Call(MatchRequest request);

  /// Stops admission, lets the in-flight run finish, answers every still
  /// queued request with kUnavailable, and joins the dispatcher.
  /// Idempotent and safe to call concurrently: every caller returns only
  /// after the dispatcher has exited.  Called by the destructor.
  void Stop();

  /// Requests admitted and currently waiting for the dispatcher.
  size_t queue_depth() const;

  /// Point-in-time readiness snapshot; safe from any thread.
  HealthSnapshot Health() const;

  /// The service-wide registry: "service.*" counters and latency
  /// histograms plus everything the engine reports.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Setup / post-Stop inspection only: the engine runs on the dispatcher
  /// thread and is not synchronized against concurrent use.
  MatchEngine& engine() { return engine_; }

 private:
  /// One admitted request: request + delivery promise + the token that
  /// carries its deadline from admission through the run.
  struct Ticket {
    MatchRequest request;
    uint64_t dedup_key = 0;
    std::promise<MatchResponse> promise;
    std::shared_future<MatchResponse> future;
    CancellationToken cancel;
    std::chrono::steady_clock::time_point admitted;
    /// True when admission charged a rate token: answers that never reach
    /// the engine (expired in queue, stop-drained) refund it.
    bool charged_rate_token = false;
  };

  struct TenantState {
    size_t in_flight = 0;
    double tokens = 0.0;
    bool bucket_started = false;
    std::chrono::steady_clock::time_point last_refill;
  };

  const TenantQuota& QuotaFor(const std::string& tenant) const;
  static SubmitHandle RejectedHandle(Status status);
  void DispatchLoop();
  /// Returns the ticket's rate token to its tenant's bucket (clamped to
  /// burst).  Call only for tickets answered without an engine run.
  void RefundRateToken(const std::shared_ptr<Ticket>& ticket);
  /// Releases the ticket's dedup-map entry and tenant slot, then fulfills
  /// its promise.  Called by the dispatcher only.
  void Deliver(const std::shared_ptr<Ticket>& ticket, MatchResponse response);

  ServiceOptions options_;
  MatchEngine engine_;
  obs::MetricsRegistry metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Ticket>> queue_;
  /// Dedup index over queued + running tickets.
  std::map<uint64_t, std::shared_ptr<Ticket>> in_flight_;
  std::map<std::string, TenantState> tenants_;
  bool stopped_ = false;

  std::thread dispatcher_;
  /// Stop() joins the dispatcher through this, so concurrent callers never
  /// join the same thread twice and all of them wait for the join.
  std::once_flag join_once_;
};

}  // namespace csm

#endif  // CSM_SERVICE_MATCH_SERVICE_H_
