#include "service/match_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/fault_injector.h"

namespace csm {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Effective token-bucket capacity for a quota (shared by charge + refund).
double BurstFor(const TenantQuota& quota) {
  return quota.burst > 0.0 ? quota.burst
                           : std::max(1.0, quota.requests_per_second);
}

}  // namespace

std::string HealthSnapshot::ToString() const {
  std::ostringstream out;
  out << (accepting ? "accepting" : "unavailable") << " queue=" << queue_depth
      << "/" << max_queue << " expired=" << expired_in_queue;
  if (cold_tier_attached) out << " cold_quarantined=" << cold_tier_quarantined;
  return out.str();
}

std::string HealthSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"accepting\": " << (accepting ? "true" : "false") << ",\n"
      << "  \"queue_depth\": " << queue_depth << ",\n"
      << "  \"max_queue\": " << max_queue << ",\n"
      << "  \"expired_in_queue\": " << expired_in_queue << ",\n"
      << "  \"cold_tier_attached\": " << (cold_tier_attached ? "true" : "false")
      << ",\n"
      << "  \"cold_tier_quarantined\": " << cold_tier_quarantined << "\n"
      << "}";
  return out.str();
}

MatchService::MatchService(ServiceOptions options)
    : options_(std::move(options)), engine_(options_.engine) {
  engine_.set_metrics(&metrics_);
  if (options_.tracer != nullptr) engine_.set_tracer(options_.tracer);
  if (options_.cold_store != nullptr) {
    engine_.set_cold_store(options_.cold_store);
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

MatchService::~MatchService() { Stop(); }

const TenantQuota& MatchService::QuotaFor(const std::string& tenant) const {
  auto it = options_.tenant_quotas.find(tenant);
  return it == options_.tenant_quotas.end() ? options_.default_quota
                                            : it->second;
}

SubmitHandle MatchService::RejectedHandle(Status status) {
  std::promise<MatchResponse> promise;
  SubmitHandle handle;
  handle.future = promise.get_future().share();
  MatchResponse response;
  response.status = std::move(status);
  response.completeness = MatchCompleteness::kBaselineOnly;
  promise.set_value(std::move(response));
  return handle;
}

SubmitHandle MatchService::Submit(MatchRequest request) {
  // Fingerprinting scans both databases; do it before taking the service
  // lock so admission stays cheap under contention.  Null databases skip
  // straight to the engine's kInvalidArgument answer via a normal ticket.
  uint64_t dedup_key = 0;
  if (request.source != nullptr && request.target != nullptr) {
    dedup_key = MixFingerprint(0x6465647570ULL, /*"dedup"*/
                               FingerprintDatabase(*request.source));
    dedup_key = MixFingerprint(dedup_key, FingerprintDatabase(*request.target));
    dedup_key = MixFingerprint(dedup_key, static_cast<uint64_t>(request.mode));
    dedup_key = MixFingerprint(dedup_key, request.max_stages);
    dedup_key =
        MixFingerprint(dedup_key, static_cast<uint64_t>(request.deadline_ms));
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    metrics_.AddCounter("service.rejected_stopped");
    return RejectedHandle(Status::Unavailable("service is stopped"));
  }

  const TenantQuota& quota = QuotaFor(request.tenant);
  TenantState& tenant = tenants_[request.tenant];

  bool charged_rate_token = false;
  if (quota.requests_per_second > 0.0) {
    const double burst = BurstFor(quota);
    const auto now = Clock::now();
    if (!tenant.bucket_started) {
      tenant.bucket_started = true;
      tenant.tokens = burst;
    } else {
      const double elapsed =
          std::chrono::duration<double>(now - tenant.last_refill).count();
      tenant.tokens =
          std::min(burst, tenant.tokens + elapsed * quota.requests_per_second);
    }
    tenant.last_refill = now;
    if (tenant.tokens < 1.0) {
      metrics_.AddCounter("service.rejected_rate_limit");
      return RejectedHandle(Status::ResourceExhausted(
          "tenant '" + request.tenant + "' exceeded its request rate"));
    }
    tenant.tokens -= 1.0;
    charged_rate_token = true;
  }

  if (dedup_key != 0) {
    auto in_flight = in_flight_.find(dedup_key);
    if (in_flight != in_flight_.end()) {
      metrics_.AddCounter("service.deduplicated");
      SubmitHandle handle;
      handle.future = in_flight->second->future;
      handle.deduplicated = true;
      return handle;
    }
  }

  if (quota.max_in_flight > 0 && tenant.in_flight >= quota.max_in_flight) {
    metrics_.AddCounter("service.rejected_in_flight");
    return RejectedHandle(Status::ResourceExhausted(
        "tenant '" + request.tenant + "' has too many requests in flight"));
  }

  if (queue_.size() >= options_.max_queue) {
    metrics_.AddCounter("service.rejected_queue_full");
    return RejectedHandle(
        Status::ResourceExhausted("admission queue is full"));
  }

  auto ticket = std::make_shared<Ticket>();
  ticket->request = std::move(request);
  ticket->dedup_key = dedup_key;
  ticket->future = ticket->promise.get_future().share();
  ticket->admitted = Clock::now();
  ticket->charged_rate_token = charged_rate_token;
  if (ticket->request.deadline_ms > 0) {
    // The budget starts NOW and covers queue time; the dispatcher passes
    // this token to the engine instead of the (zeroed) deadline_ms field.
    ticket->cancel.set_deadline(Deadline::AfterMillis(ticket->request.deadline_ms));
    ticket->request.deadline_ms = 0;
  }
  ++tenant.in_flight;
  if (dedup_key != 0) in_flight_[dedup_key] = ticket;
  metrics_.AddCounter("service.admitted");
  SubmitHandle handle;
  handle.future = ticket->future;
  queue_.push_back(std::move(ticket));
  metrics_.SetGauge("service.queue_depth", static_cast<double>(queue_.size()));
  cv_.notify_one();
  return handle;
}

MatchResponse MatchService::Call(MatchRequest request) {
  SubmitHandle handle = Submit(std::move(request));
  MatchResponse response = handle.future.get();
  response.deduplicated = handle.deduplicated;
  return response;
}

void MatchService::RefundRateToken(const std::shared_ptr<Ticket>& ticket) {
  if (!ticket->charged_rate_token) return;
  std::lock_guard<std::mutex> lock(mu_);
  const TenantQuota& quota = QuotaFor(ticket->request.tenant);
  if (quota.requests_per_second <= 0.0) return;
  TenantState& tenant = tenants_[ticket->request.tenant];
  tenant.tokens = std::min(BurstFor(quota), tenant.tokens + 1.0);
  metrics_.AddCounter("service.rate_tokens_refunded");
}

void MatchService::Deliver(const std::shared_ptr<Ticket>& ticket,
                           MatchResponse response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ticket->dedup_key != 0) {
      auto it = in_flight_.find(ticket->dedup_key);
      if (it != in_flight_.end() && it->second == ticket) in_flight_.erase(it);
    }
    auto tenant = tenants_.find(ticket->request.tenant);
    if (tenant != tenants_.end() && tenant->second.in_flight > 0) {
      --tenant->second.in_flight;
    }
  }
  ticket->promise.set_value(std::move(response));
}

void MatchService::DispatchLoop() {
  uint64_t dispatch_seq = 0;
  for (;;) {
    std::shared_ptr<Ticket> ticket;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopped_ and drained
      ticket = std::move(queue_.front());
      queue_.pop_front();
      metrics_.SetGauge("service.queue_depth",
                        static_cast<double>(queue_.size()));
      if (stopped_) {
        // Stop() answers everything still queued without running it; the
        // rate token bought no work, so it goes back.
        lock.unlock();
        RefundRateToken(ticket);
        MatchResponse response;
        response.status = Status::Unavailable("service is stopping");
        response.completeness = MatchCompleteness::kBaselineOnly;
        metrics_.AddCounter("service.rejected_stopped");
        Deliver(ticket, std::move(response));
        continue;
      }
    }

    if (options_.test_dispatch_gate) options_.test_dispatch_gate();

    const uint64_t seq = dispatch_seq++;
    MatchResponse response;
    const double queue_seconds = SecondsSince(ticket->admitted);
    if (FaultInjector::Hit("service.dispatch", seq)) {
      // Injected dispatch fault: a definitive retryable answer without a
      // broken engine.
      response.status = Status::Unavailable("injected dispatch fault");
      response.completeness = MatchCompleteness::kBaselineOnly;
      metrics_.AddCounter("service.dispatch_faults");
    } else if (ticket->cancel.cancelled()) {
      // The budget ran out while queued: answer without touching the
      // engine.  kBaselineOnly — not even the baseline ran.
      response.status =
          Status::DeadlineExceeded("deadline expired while queued");
      response.completeness = MatchCompleteness::kBaselineOnly;
      metrics_.AddCounter("service.expired_in_queue");
      RefundRateToken(ticket);
    } else {
      const auto start = Clock::now();
      response = engine_.Execute(ticket->request, &ticket->cancel);
      response.run_seconds = SecondsSince(start);
      metrics_.Observe("service.run_seconds", response.run_seconds);
      metrics_.AddCounter("service.completed");
    }
    response.queue_seconds = queue_seconds;
    metrics_.Observe("service.queue_seconds", queue_seconds);
    metrics_.Observe("service.total_seconds",
                     queue_seconds + response.run_seconds);
    Deliver(ticket, std::move(response));
  }
}

HealthSnapshot MatchService::Health() const {
  HealthSnapshot health;
  {
    std::lock_guard<std::mutex> lock(mu_);
    health.accepting = !stopped_;
    health.queue_depth = queue_.size();
  }
  health.max_queue = options_.max_queue;
  health.expired_in_queue = metrics_.Counter("service.expired_in_queue");
  health.cold_tier_attached = options_.cold_store != nullptr;
  if (options_.cold_store != nullptr) {
    health.cold_tier_quarantined = options_.cold_store->Quarantined();
  }
  return health;
}

void MatchService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
  std::call_once(join_once_, [this] { dispatcher_.join(); });
}

size_t MatchService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace csm
