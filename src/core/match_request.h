// The request/response surface of the matching engine and service.
//
// ContextMatch (Fig. 5), the Section 3.5 conjunctive staging and the
// Section 3 source/target role reversal are three modes of one algorithm,
// so MatchEngine::Execute takes ONE request shape that a long-lived service
// can also queue, deduplicate, rate-limit and answer:
//
//   MatchResponse response = engine.Execute({
//       .mode = MatchMode::kConjunctive,
//       .max_stages = 2,
//       .source = BorrowDatabase(src),          // or a shared_ptr you own
//       .target = BorrowDatabase(tgt)});
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
  /// Reverse-role run (Section 3: "reverse the role of source and target
  /// tables"): the target database is matched as if it were the source, so
  /// conditions are inferred on the *target* tables (TgtClassInfer's
  /// "target" classifiers train on the source), and the matches are flipped
  /// back into source -> target orientation with Match::condition_on_target
  /// set.  The mirror of Example 1.1: separate source tables map into the
  /// slices of one combined target table selected by its discriminator.
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

/// One unit of matching work, self-contained enough to queue.  Every field
/// has a default member initializer (the `{}` on class-type fields keeps
/// -Wmissing-field-initializers quiet), so a designated initializer names
/// only the fields it sets.
struct MatchRequest {
  MatchMode mode = MatchMode::kContext;
  /// Conjunctive stages (kConjunctive only; must be >= 1).
  size_t max_stages = 1;
  /// Accounting key for the service's quotas and per-tenant metrics; the
  /// engine itself ignores it.  Empty = the default tenant.
  std::string tenant{};
  /// Wall-clock budget for this request in milliseconds; 0 = unbounded.
  /// In the service the budget covers queue time too: a request that
  /// expires while queued is answered without running.  Overrides nothing —
  /// it combines with ContextMatchOptions::deadline_ms, whichever fires
  /// first.
  int64_t deadline_ms = 0;
  std::shared_ptr<const Database> source{};
  std::shared_ptr<const Database> target{};
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
