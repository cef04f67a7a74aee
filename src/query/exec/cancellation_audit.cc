#include "query/exec/cancellation_audit.h"

#include <cstdio>
#include <cstdlib>

#include "dataflow/dataset.h"
#include "dataflow/execution_context.h"
#include "query/exec/physical_operator.h"

namespace gradoop::query::exec {

bool CancellationAuditEnabled() {
  return std::getenv("GRADOOP_AUDIT_CANCELLATION") != nullptr;
}

double CancellationAuditBudgetSec() {
  const char* value = std::getenv("GRADOOP_CANCELLATION_BUDGET");
  if (value == nullptr) return 2.0;
  const double budget = std::atof(value);
  return budget > 0.0 ? budget : 2.0;
}

uint64_t CancellationAuditSeed() {
  const char* value = std::getenv("GRADOOP_AUDIT_CANCELLATION_SEED");
  if (value == nullptr) return 17;
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

void AuditCancelledQuery(const PhysicalOperator& root,
                         dataflow::ExecutionContext& ctx) {
  const common::CancellationToken& token = ctx.cancellation();
  uint64_t violations = 0;
  char detail[256];
  detail[0] = '\0';

  if (!token.cancelled()) {
    violations += 1;
    std::snprintf(detail, sizeof(detail),
                  "audited a query whose token never tripped");
  }

  // Checkpoints observed after the trip: each in-flight kernel loop
  // notices the trip at its next poll, and the stages already queued in
  // the current compound kernel each poll once per partition before
  // breaking. The allowance scales with the loops' poll stride and the
  // execution parallelism; a loop that skips its checkpoints shifts
  // detection to later (coarser) polls and breaches it.
  const uint64_t stride = dataflow::kRecordsPerCancellationPoll;
  const uint64_t parallelism = static_cast<uint64_t>(
      ctx.pool().num_threads() + ctx.num_workers() + 8);
  const uint64_t allowance = 8 * parallelism * stride;
  if (violations == 0 && token.polls_after_trip() > allowance) {
    violations += 1;
    std::snprintf(detail, sizeof(detail),
                  "%llu checkpoints elapsed after the trip, allowance %llu "
                  "(poll every %llu records)",
                  static_cast<unsigned long long>(token.polls_after_trip()),
                  static_cast<unsigned long long>(allowance),
                  static_cast<unsigned long long>(stride));
  }

  const double latency = token.SecondsSinceTrip();
  const double budget = CancellationAuditBudgetSec();
  if (violations == 0 && latency > budget) {
    violations += 1;
    std::snprintf(detail, sizeof(detail),
                  "unwind took %.3fs after the trip, budget %.3fs — some "
                  "loop ran past the trip without polling",
                  latency, budget);
  }

  if (violations == 0 && (ctx.accountant().current_bytes() != 0 ||
                          ctx.accountant().frame_depth() != 0)) {
    violations += 1;
    std::snprintf(
        detail, sizeof(detail),
        "MemoryAccountant did not drain: %llu bytes across %llu frames",
        static_cast<unsigned long long>(ctx.accountant().current_bytes()),
        static_cast<unsigned long long>(ctx.accountant().frame_depth()));
  }

  if (violations == 0 && ctx.pool().pending_tasks() != 0) {
    violations += 1;
    std::snprintf(detail, sizeof(detail), "%d partition tasks still pending",
                  ctx.pool().pending_tasks());
  }

  CancellationAuditStats::Instance().RecordCheck(violations);
  if (violations != 0) {
    std::fprintf(stderr, "[gradoop] cancellation audit FAILED at %s: %s\n",
                 root.name(), detail);
    std::abort();
  }
}

}  // namespace gradoop::query::exec
