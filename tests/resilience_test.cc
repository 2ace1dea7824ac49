// The service's failure behavior end to end: definitive answers under a
// scripted dispatch-fault schedule, the health snapshot, quota edge cases,
// and the crash-safe cold tier (truncated-blob quarantine, kill-and-restart
// recovery, non-fatal store writes).  Deterministic throughout: faults run
// on scripted FaultInjector specs, and the dispatcher is held still with
// test_dispatch_gate wherever exact queue depths matter.  The CI `service`
// job runs this binary under TSan alongside service_test.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/fingerprint.h"
#include "common/fault_injector.h"
#include "core/match_engine.h"
#include "datagen/retail_gen.h"
#include "service/disk_store.h"
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

std::string FreshSpoolDir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("csm_resilience_test_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Every test disarms on exit so scripted faults never leak across tests.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Health snapshot
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, HealthSnapshotReportsQueueBreakerAndColdTier) {
  const std::string dir = FreshSpoolDir("health");
  RetailDataset data = SmallRetail(3);
  DiskSessionStore store(dir);
  Gate gate;
  ServiceOptions options;
  options.engine = FastEngine();
  options.max_queue = 8;
  options.cold_store = &store;
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
  EXPECT_TRUE(health.cold_tier_attached);
  EXPECT_EQ(health.cold_tier_quarantined, 0u);
  EXPECT_EQ(health.ToString(), "accepting queue=2/8 expired=0 cold_quarantined=0");
  EXPECT_EQ(health.ToJson(),
            "{\n"
            "  \"accepting\": true,\n"
            "  \"queue_depth\": 2,\n"
            "  \"max_queue\": 8,\n"
            "  \"expired_in_queue\": 0,\n"
            "  \"cold_tier_attached\": true,\n"
            "  \"cold_tier_quarantined\": 0\n"
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
  std::filesystem::remove_all(dir);
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

// ---------------------------------------------------------------------------
// Crash-safe cold tier
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, TruncatedBlobIsQuarantinedNotReturned) {
  const std::string dir = FreshSpoolDir("truncated");
  DiskSessionStore store(dir);
  const uint64_t key = 0xabcdef12u;
  const std::string payload = "csm-sessions 1\ntables 1\nt scores 1 1\n0.5\n";
  ASSERT_TRUE(store.Store(key, payload));

  // Simulate a torn write published without the frame's protection: chop
  // the file mid-payload.
  const std::string path = store.PathForKey(key);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 10);

  std::string blob;
  EXPECT_FALSE(store.Load(key, &blob));
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));

  // The key is writable again and round-trips bit-identically.
  ASSERT_TRUE(store.Store(key, payload));
  ASSERT_TRUE(store.Load(key, &blob));
  EXPECT_EQ(blob, payload);
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, RestartScanQuarantinesAllCorruptBlobsRestoresRest) {
  const std::string dir = FreshSpoolDir("restart_scan");
  std::vector<std::string> payloads;
  {
    DiskSessionStore writer(dir);
    for (uint64_t key = 1; key <= 5; ++key) {
      payloads.push_back("payload-" + std::to_string(key) +
                         std::string(100, 'x'));
      ASSERT_TRUE(writer.Store(key, payloads.back()));
    }
    // Crash simulation: one blob truncated mid-payload, one overwritten
    // with garbage, one leftover temp file from a dying writer.
    std::filesystem::resize_file(
        writer.PathForKey(2),
        std::filesystem::file_size(writer.PathForKey(2)) - 5);
    std::ofstream(writer.PathForKey(4), std::ios::trunc) << "garbage";
    std::ofstream(std::filesystem::path(dir) / "dead.csmss.tmp.123")
        << "partial";
  }

  // "Restart": a fresh store over the same spool scans on construction.
  DiskSessionStore restarted(dir);
  EXPECT_EQ(restarted.quarantined(), 2u) << "100% of corrupt blobs set aside";
  EXPECT_EQ(restarted.recovered_valid(), 3u);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                       "dead.csmss.tmp.123"));

  // Non-quarantined blobs come back bit-identical; quarantined keys read
  // as absent (the engine rebuilds them).
  for (uint64_t key = 1; key <= 5; ++key) {
    std::string blob;
    const bool loaded = restarted.Load(key, &blob);
    if (key == 2 || key == 4) {
      EXPECT_FALSE(loaded);
    } else {
      ASSERT_TRUE(loaded);
      EXPECT_EQ(blob, payloads[key - 1]);
    }
  }
  // No double-quarantine on reload.
  EXPECT_EQ(restarted.quarantined(), 2u);
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ColdTierSurvivesServiceKillAndRestart) {
  const std::string dir = FreshSpoolDir("kill_restart");
  RetailDataset data = SmallRetail(5);
  std::string first;
  {
    DiskSessionStore store(dir);
    ServiceOptions options;
    options.engine = FastEngine();
    options.cold_store = &store;
    MatchService service(options);
    MatchResponse response = service.Call(RequestOver(data, 0));
    ASSERT_TRUE(response.ok());
    first = check::FingerprintResult(response.result);
    service.Stop();
  }
  // Corrupt the spool the way a crash would, then restart the whole stack.
  size_t corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".csmss") continue;
    std::filesystem::resize_file(entry.path(),
                                 std::filesystem::file_size(entry.path()) / 2);
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);
  {
    DiskSessionStore store(dir);
    EXPECT_EQ(store.quarantined(), corrupted);
    ServiceOptions options;
    options.engine = FastEngine();
    options.cold_store = &store;
    MatchService service(options);
    // The quarantine shows up in health; the answer is still bit-identical
    // (rebuilt from scratch, same deterministic pipeline).
    EXPECT_EQ(service.Health().cold_tier_quarantined, corrupted);
    MatchResponse response = service.Call(RequestOver(data, 0));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(first, check::FingerprintResult(response.result));
    EXPECT_EQ(service.metrics().Counter("engine.session_cold_hits"), 0u);
    service.Stop();
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, StoreWriteFaultIsNonFatal) {
  const std::string dir = FreshSpoolDir("write_fault");
  RetailDataset data = SmallRetail(5);
  DiskSessionStore store(dir);

  FaultInjector::ArmSpec spec;
  spec.site = "store.write";
  spec.action = FaultInjector::Action::kFail;
  spec.fire_limit = 0;
  spec.period = 1;
  FaultInjector::Arm(spec);

  ServiceOptions options;
  options.engine = FastEngine();
  options.cold_store = &store;
  MatchService service(options);
  // The write fails, the answer does not.
  MatchResponse response = service.Call(RequestOver(data, 0));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(store.stores(), 0u);
  EXPECT_GE(FaultInjector::FireCount("store.write"), 1u);
  service.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace csm
