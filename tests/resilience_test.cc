// The service's failure behavior end to end: definitive answers under a
// scripted dispatch-fault schedule, the health snapshot and quota edge
// cases.  Deterministic throughout: faults run
// on scripted FaultInjector specs, and the dispatcher is held still with
// test_dispatch_gate wherever exact queue depths matter.  The CI `service`
// job runs this binary under TSan alongside service_test.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/fingerprint.h"
#include "common/fault_injector.h"
#include "core/match_engine.h"
#include "datagen/retail_gen.h"
#include "service/match_service.h"

namespace csm {
namespace {

RetailDataset SmallRetail(uint64_t seed) {
  RetailOptions options;
  options.num_items = 60;
  options.gamma = 2;
  options.seed = seed;
  return MakeRetailDataset(options);
}

ContextMatchOptions FastEngine() {
  ContextMatchOptions options;
  options.threads = 1;
  return options;
}

MatchRequest RequestOver(const RetailDataset& data, int64_t deadline_ms,
                         const std::string& tenant = "") {
  MatchRequest request;
  request.tenant = tenant;
  request.deadline_ms = deadline_ms;
  request.source = BorrowDatabase(data.source);
  request.target = BorrowDatabase(data.target);
  return request;
}

/// A dispatcher gate: closed until Open(), counting dispatcher entries.
class Gate {
 public:

  std::function<void()> AsHook() {
    return [this] {
      entered_.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    };
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void AwaitEntered(int n) {
    while (entered_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int> entered_{0};
};

/// Every test disarms on exit so scripted faults never leak across tests.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Health snapshot
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, HealthSnapshotReportsQueueAndExpiries) {
  RetailDataset data = SmallRetail(3);
  Gate gate;
  ServiceOptions options;
  options.engine = FastEngine();
  options.max_queue = 8;
  options.test_dispatch_gate = gate.AsHook();
  MatchService service(options);

  // One request parked in the gate, two queued behind it; the second
  // queued one carries a deadline that runs out before the gate opens.
  SubmitHandle parked = service.Submit(RequestOver(data, 0));
  gate.AwaitEntered(1);
  SubmitHandle queued = service.Submit(RequestOver(data, 60001));
  SubmitHandle expiring = service.Submit(RequestOver(data, /*deadline_ms=*/1));

  HealthSnapshot health = service.Health();
  EXPECT_TRUE(health.accepting);
  EXPECT_EQ(health.queue_depth, 2u);
  EXPECT_EQ(health.max_queue, 8u);
  EXPECT_EQ(health.expired_in_queue, 0u);
  EXPECT_EQ(health.ToString(), "accepting queue=2/8 expired=0");
  EXPECT_EQ(health.ToJson(),
            "{\n"
            "  \"accepting\": true,\n"
            "  \"queue_depth\": 2,\n"
            "  \"max_queue\": 8,\n"
            "  \"expired_in_queue\": 0\n"
            "}");

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.Open();
  EXPECT_TRUE(parked.future.get().ok());
  EXPECT_TRUE(queued.future.get().ok());
  EXPECT_EQ(expiring.future.get().status.code(),
            StatusCode::kDeadlineExceeded);

  service.Stop();
  health = service.Health();
  EXPECT_FALSE(health.accepting);
  EXPECT_EQ(health.queue_depth, 0u);
  EXPECT_EQ(health.expired_in_queue, 1u);
  EXPECT_NE(health.ToString().find("unavailable queue=0/8 expired=1"),
            std::string::npos);
  EXPECT_NE(health.ToJson().find("\"accepting\": false"), std::string::npos);
  EXPECT_NE(health.ToJson().find("\"expired_in_queue\": 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Quota edges
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, ZeroCapacityBucketRejectsEveryRequestCleanly) {
  RetailDataset data = SmallRetail(3);
  ServiceOptions options;
  options.engine = FastEngine();
  // Burst below one token: the bucket can never hold a full admission.
  options.tenant_quotas["starved"].requests_per_second = 1e-9;
  options.tenant_quotas["starved"].burst = 0.5;
  MatchService service(options);
  for (int i = 0; i < 3; ++i) {
    MatchResponse response =
        service.Call(RequestOver(data, 60001 + i, "starved"));
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(service.metrics().Counter("service.rejected_rate_limit"), 3u);
  EXPECT_EQ(service.metrics().Counter("service.admitted"), 0u);
  service.Stop();
}

TEST_F(ResilienceTest, InFlightCapOfOneStillAdmitsDedupedWaiters) {
  RetailDataset data = SmallRetail(3);
  Gate gate;
  ServiceOptions options;
  options.engine = FastEngine();
  options.tenant_quotas["capped"].max_in_flight = 1;
  options.test_dispatch_gate = gate.AsHook();
  MatchService service(options);

  MatchRequest request = RequestOver(data, 60001, "capped");
  SubmitHandle primary = service.Submit(request);
  gate.AwaitEntered(1);
  // Identical twins attach to the in-flight run: dedup is checked before
  // the cap, so waiting on existing work is never rejected.
  SubmitHandle twin1 = service.Submit(request);
  SubmitHandle twin2 = service.Submit(request);
  EXPECT_TRUE(twin1.deduplicated);
  EXPECT_TRUE(twin2.deduplicated);
  // A *different* request from the same tenant hits the cap.
  SubmitHandle other = service.Submit(RequestOver(data, 60002, "capped"));
  EXPECT_EQ(other.future.get().status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(service.metrics().Counter("service.rejected_in_flight"), 1u);

  gate.Open();
  ASSERT_TRUE(primary.future.get().ok());
  EXPECT_EQ(check::FingerprintResult(primary.future.get().result),
            check::FingerprintResult(twin1.future.get().result));
  EXPECT_EQ(check::FingerprintResult(primary.future.get().result),
            check::FingerprintResult(twin2.future.get().result));
  // The cap released: the tenant can run again.
  EXPECT_TRUE(service.Call(RequestOver(data, 60003, "capped")).ok());
  service.Stop();
}

// ---------------------------------------------------------------------------
// Chaos smoke: sustained fault rate, zero hung requests, definitive codes
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, TenPercentDispatchFaultsNeverHangAndStayDefinitive) {
  RetailDataset data = SmallRetail(3);
  ServiceOptions options;
  options.engine = FastEngine();
  MatchService service(options);

  // Deterministic 1-in-10 dispatch fault schedule, unlimited fires: over 30
  // sequential calls it fires at dispatches 0, 10 and 20.
  FaultInjector::ArmSpec spec;
  spec.site = "service.dispatch";
  spec.action = FaultInjector::Action::kFail;
  spec.fire_limit = 0;
  spec.period = 10;
  FaultInjector::Arm(spec);

  const int kCalls = 30;
  int ok = 0, unavailable = 0;
  for (int i = 0; i < kCalls; ++i) {
    MatchResponse response = service.Call(RequestOver(data, 0));
    // Every answer is definitive: success or a classified failure.
    if (response.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable) << i;
      EXPECT_FALSE(response.status.message().empty());
      EXPECT_EQ(i % 10, 0) << "fault fired off the period-10 schedule";
      ++unavailable;
    }
  }
  EXPECT_EQ(unavailable, 3);
  EXPECT_EQ(ok, 27);
  EXPECT_EQ(service.metrics().Counter("service.dispatch_faults"), 3u);
  service.Stop();
}

}  // namespace
}  // namespace csm
