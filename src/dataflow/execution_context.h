#ifndef GRADOOP_DATAFLOW_EXECUTION_CONTEXT_H_
#define GRADOOP_DATAFLOW_EXECUTION_CONTEXT_H_

#include <memory>
#include <string>

#include "common/cancellation.h"
#include "dataflow/cluster_config.h"
#include "dataflow/cost_model.h"
#include "dataflow/memory_accountant.h"
#include "dataflow/thread_pool.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/query_log.h"
#include "telemetry/tracer.h"

namespace gradoop::dataflow {

// Shared runtime state of one dataflow "job": the simulated cluster shape,
// the host thread pool that actually executes partitions, and the cost
// tracker accumulating simulated distributed time. All datasets of a job
// share one context (analogous to Flink's ExecutionEnvironment).
//
// The context also owns the telemetry surface (metrics registry + span
// tracer), default-off: with telemetry disabled every instrumentation
// site in the engine is a single relaxed bool load and the runtime does
// no clock reads, locking or allocation on behalf of observability.
class ExecutionContext {
 public:
  explicit ExecutionContext(ClusterConfig config = ClusterConfig())
      : config_(config), pool_(config.host_threads) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  const ClusterConfig& config() const { return config_; }
  int num_workers() const { return config_.num_workers; }
  CostTracker& tracker() { return tracker_; }
  const CostTracker& tracker() const { return tracker_; }
  ThreadPool& pool() { return pool_; }

  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  // Per-query allocation accounting, default-off (a disabled accountant
  // costs one bool load per site). Enabled by the engine around a query;
  // driver-thread only — see memory_accountant.h.
  MemoryAccountant& accountant() { return accountant_; }
  const MemoryAccountant& accountant() const { return accountant_; }

  // Per-query cooperative cancellation. Dataset loops poll it once per
  // record; the engine arms a deadline / exposes a Cancel() handle and
  // resets it per query.
  // Default-off cost is one relaxed load per checkpoint.
  common::CancellationToken& cancellation() { return cancellation_; }
  const common::CancellationToken& cancellation() const {
    return cancellation_;
  }

  // Retained query history and the structured JSONL query log. The
  // engine records into both after each execution, but only while
  // telemetry is enabled — so with telemetry off neither costs anything
  // beyond the usual relaxed enabled() load.
  telemetry::FlightRecorder& flight_recorder() { return flight_recorder_; }
  const telemetry::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }
  telemetry::QueryLog& query_log() { return query_log_; }
  const telemetry::QueryLog& query_log() const { return query_log_; }

  // Turns on metrics + tracing and hooks the thread pool so every
  // labelled partition task becomes a "task" span (worker id = partition
  // index, thread id = host thread). Not thread-safe against concurrent
  // dataset execution — enable before running a query.
  void EnableTelemetry() {
    telemetry_.Enable();
    pool_.set_task_hook([this](const ThreadPool::TaskTiming& timing) {
      if (!telemetry_.enabled()) return;
      telemetry::Tracer& tracer = telemetry_.tracer();
      const double begin_us = tracer.ToMicros(timing.begin);
      const double end_us = tracer.ToMicros(timing.end);
      tracer.AddSpan(timing.label != nullptr ? timing.label : "task",
                     telemetry::kCategoryTask, begin_us, end_us,
                     timing.task_index);
      telemetry_.metrics().Observe("task.wall_us", end_us - begin_us);
      telemetry_.metrics().AddCounter("task.count", 1);
    });
  }

  void DisableTelemetry() {
    telemetry_.Disable();
    pool_.set_task_hook(nullptr);
  }

 private:
  ClusterConfig config_;
  CostTracker tracker_;
  ThreadPool pool_;
  telemetry::Telemetry telemetry_;
  MemoryAccountant accountant_;
  common::CancellationToken cancellation_;
  telemetry::FlightRecorder flight_recorder_;
  telemetry::QueryLog query_log_;
};

using ExecutionContextPtr = std::shared_ptr<ExecutionContext>;

inline ExecutionContextPtr MakeContext(ClusterConfig config = ClusterConfig()) {
  return std::make_shared<ExecutionContext>(config);
}

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_EXECUTION_CONTEXT_H_
