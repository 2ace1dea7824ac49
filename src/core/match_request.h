// The unified request/response surface of the matching engine and service.
//
// PRs 1-5 grew three parallel entrypoints (Match / ConjunctiveMatch /
// TargetContextMatch), each with its own signature and result struct.  A
// long-lived service — and the pluggable-backend ensemble direction behind
// it — needs ONE stable shape to queue, deduplicate, rate-limit and answer:
//
//   MatchRequest request;
//   request.mode = MatchMode::kConjunctive;
//   request.max_stages = 2;
//   request.source = BorrowDatabase(src);      // or a shared_ptr you own
//   request.target = BorrowDatabase(tgt);
//   MatchResponse response = engine.Execute(request);
//
// The legacy entrypoints survive as thin wrappers over Execute, bit
// identical to their pre-unification behavior (determinism_test).
//
// Ownership: the request carries shared_ptr<const Database> so a queued
// request outlives the caller's stack frame (the service holds admitted
// requests until a dispatcher serves them).  Synchronous callers whose
// databases outlive the call wrap them with BorrowDatabase — a non-owning
// alias that costs nothing.

#ifndef CSM_CORE_MATCH_REQUEST_H_
#define CSM_CORE_MATCH_REQUEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/context_match.h"
#include "relational/table.h"
#include "relational/view.h"

namespace csm {

/// Which pipeline a MatchRequest runs.
enum class MatchMode {
  /// Algorithm ContextMatch (Fig. 5): conditions on the source tables.
  kContext,
  /// Section 3.5 iterative staging up to MatchRequest::max_stages
  /// conjunctive condition attributes; max_stages == 1 is plain kContext.
  kConjunctive,
  /// Reverse-role run: conditions inferred on the *target* tables, matches
  /// flipped back into source -> target orientation (core/target_context.h).
  kTargetContext,
};

const char* MatchModeToString(MatchMode mode);

/// A non-owning shared_ptr view of a caller-owned database (aliasing
/// constructor with an empty control block).  The database must outlive
/// every use of the returned pointer.
inline std::shared_ptr<const Database> BorrowDatabase(const Database& db) {
  return std::shared_ptr<const Database>(std::shared_ptr<const Database>(),
                                         &db);
}

/// One unit of matching work, self-contained enough to queue.
struct MatchRequest {
  MatchMode mode = MatchMode::kContext;
  /// Conjunctive stages (kConjunctive only; must be >= 1).
  size_t max_stages = 1;
  /// Accounting key for the service's quotas and per-tenant metrics; the
  /// engine itself ignores it.  Empty = the default tenant.
  std::string tenant;
  /// Wall-clock budget for this request in milliseconds; 0 = unbounded.
  /// In the service the budget covers queue time too: a request that
  /// expires while queued is answered without running.  Overrides nothing —
  /// it combines with ContextMatchOptions::deadline_ms, whichever fires
  /// first.
  int64_t deadline_ms = 0;
  std::shared_ptr<const Database> source;
  std::shared_ptr<const Database> target;
};

/// The single response shape for every mode and every failure class.
struct MatchResponse {
  /// OK for a complete run; kDeadlineExceeded / kCancelled / kInternal for
  /// a degraded one (partial answer still present, see `completeness`);
  /// kInvalidArgument for a malformed request; kResourceExhausted /
  /// kUnavailable for service-level rejections (no run happened).
  Status status;
  MatchCompleteness completeness = MatchCompleteness::kComplete;

  /// The canonical output: matches oriented source -> target (for
  /// kTargetContext their conditions select target rows and
  /// Match::condition_on_target is set), plus the selected views — over
  /// source tables, or over target tables for kTargetContext.
  MatchList matches;
  std::vector<View> selected_views;

  /// The underlying pipeline run: scored pool, phase report, thread count.
  /// For kTargetContext this is the reversed-direction run (its matches are
  /// target -> source; the flipped ones above are the answer).  Default
  /// constructed when the request was rejected before running.
  ContextMatchResult result;

  /// Service bookkeeping: true when this response was served from an
  /// identical in-flight request rather than a run of its own.
  bool deduplicated = false;
  /// Admission -> dispatch and dispatch -> completion, service-side only.
  double queue_seconds = 0.0;
  double run_seconds = 0.0;

  bool ok() const { return status.ok(); }
  /// Process exit code per the shared table (common/status.h).
  int ExitCode() const { return ExitCodeForStatus(status.code()); }
};

}  // namespace csm

#endif  // CSM_CORE_MATCH_REQUEST_H_
