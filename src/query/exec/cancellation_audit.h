#ifndef GRADOOP_QUERY_EXEC_CANCELLATION_AUDIT_H_
#define GRADOOP_QUERY_EXEC_CANCELLATION_AUDIT_H_

#include <cstdint>

#include "common/thread_annotations.h"

namespace gradoop::dataflow {
class ExecutionContext;
}  // namespace gradoop::dataflow

namespace gradoop::query::exec {

class PhysicalOperator;

// Runtime cancellation audit (GRADOOP_AUDIT_CANCELLATION,
// docs/cancellation.md). The engine injects a cancel at a randomized
// checkpoint and audits the unwind; lint rule CC007 is its static
// counterpart, rejecting any kernel loop that never polls.

// Read per call, not cached: tests toggle the variable around individual
// executions with setenv/unsetenv.
bool CancellationAuditEnabled();

// Wall-clock budget between the cancellation trip and the query's
// unwind (GRADOOP_CANCELLATION_BUDGET seconds, default 2.0). A loop that
// polls once per record detects the trip within a
// handful of records; an unpolled loop runs to completion and blows the
// budget — which is exactly what the audit exists to catch.
double CancellationAuditBudgetSec();

// Seed for the randomized injection checkpoint counts
// (GRADOOP_AUDIT_CANCELLATION_SEED, default 17). Deterministic so CI
// failures reproduce.
uint64_t CancellationAuditSeed();

// Asserts an unwound (cancelled) query polled as the dataset loops
// promise:
//   - checkpoints observed after the trip stay within the allowance
//     implied by the loops' per-record poll stride
//     (dataflow::kRecordsPerCancellationPoll) and the execution
//     parallelism (every in-flight loop notices the trip at its next
//     poll),
//   - wall latency from trip to unwind is within the audit budget,
//   - the MemoryAccountant drained back to zero (no leaked frames or
//     charges), and
//   - no partition tasks remain pending on the pool.
// Aborts the process on the first violation. Call after the engine's
// cancel-path cleanup, while the token still holds the trip state.
void AuditCancelledQuery(const PhysicalOperator& root,
                         dataflow::ExecutionContext& ctx);

// Process-wide tally of audit activity, so tests can assert the audit
// actually ran. Mirrors MemoryAuditStats; the lock exists for
// cross-thread test readers — audits themselves run on the driver
// thread.
class CancellationAuditStats {
 public:
  static CancellationAuditStats& Instance() {
    static CancellationAuditStats stats;
    return stats;
  }

  void RecordInjection(bool tripped) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    injections_ += 1;
    if (tripped) trips_ += 1;
  }

  void RecordCheck(uint64_t violations) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    checks_ += 1;
    violations_ += violations;
  }

  uint64_t injections() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return injections_;
  }
  uint64_t trips() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return trips_;
  }
  uint64_t checks() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return checks_;
  }
  uint64_t violations() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return violations_;
  }

  void Reset() EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    injections_ = 0;
    trips_ = 0;
    checks_ = 0;
    violations_ = 0;
  }

 private:
  CancellationAuditStats() = default;

  mutable common::Mutex mu_{common::LockRank::kExec,
                            "exec.cancellation_audit"};
  uint64_t injections_ GUARDED_BY(mu_) = 0;
  uint64_t trips_ GUARDED_BY(mu_) = 0;
  uint64_t checks_ GUARDED_BY(mu_) = 0;
  uint64_t violations_ GUARDED_BY(mu_) = 0;
};

}  // namespace gradoop::query::exec

#endif  // GRADOOP_QUERY_EXEC_CANCELLATION_AUDIT_H_
