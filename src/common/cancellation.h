#ifndef GRADOOP_COMMON_CANCELLATION_H_
#define GRADOOP_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace gradoop::common {

// Why a query stopped early. kInjected is the GRADOOP_AUDIT_CANCELLATION
// fault-injection path; user-visible diagnostics only distinguish
// explicit cancellation from a deadline.
enum class CancelReason {
  kNone = 0,
  kExplicit,  // Cancel() handle / RequestCancel()
  kDeadline,  // per-query deadline expired
  kInjected,  // cancellation audit tripped the token at a checkpoint
};

const char* CancelReasonName(CancelReason reason);

// Cooperative cancellation flag + optional deadline for one query,
// owned by the ExecutionContext and polled from kernel loops once per
// record (dataflow::kRecordsPerCancellationPoll). Same cost contract as
// telemetry: while no cancel, deadline or injection is armed,
// CheckCancelled() is a single relaxed atomic load and performs no clock
// reads.
//
// Thread safety: polled concurrently from pool worker threads while the
// driver (or any other thread) may RequestCancel(). All state is atomic;
// the token itself never blocks.
class CancellationToken {
 public:
  // Deadline expiry is only evaluated every kDeadlineCheckStride armed
  // polls so a deadline does not buy a clock read per record. Operator
  // and phase boundaries use CancelledOrExpired(), which always reads
  // the clock, so expiry latency is bounded by one kernel stage.
  static constexpr uint64_t kDeadlineCheckStride = 64;

  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  // The kernel checkpoint (the poll CC007 looks for): returns true once
  // the token has tripped. Counts armed polls — the cancellation audit
  // uses the counter both to inject cancellation at a randomized
  // checkpoint and to measure how many checkpoints elapse between the
  // trip and the query unwinding.
  bool CheckCancelled() {
    // relaxed: the disarmed fast path is one load with no ordering
    // requirement — polls are advisory and all counters are monotonic.
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return PollSlow();
  }

  // Pure observation: has the token tripped? No counting, no clock read.
  bool cancelled() const {
    // relaxed: readers only need eventual visibility of the flag.
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Boundary check: tripped flag OR deadline expiry evaluated against
  // the clock right now. Used between kernel stages and pipeline phases
  // where one extra clock read is noise.
  bool CancelledOrExpired();

  // Trips the token explicitly (the engine's Cancel() handle). Safe from
  // any thread, idempotent.
  void RequestCancel() { Trip(CancelReason::kExplicit); }

  // Arms a deadline; polls past it trip the token with kDeadline.
  void SetDeadline(std::chrono::steady_clock::time_point deadline);

  // Audit injection: the n-th armed poll (1-based) trips the token with
  // kInjected. 0 disarms injection.
  void InjectCancelAfter(uint64_t polls);

  // Re-arms the token for a fresh query: clears the flag, reason,
  // deadline, injection and counters.
  void Reset();

  CancelReason reason() const {
    // relaxed: written once by Trip before cancelled_ is set; readers
    // tolerate the tiny window by treating kNone as "not tripped yet".
    return static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
  }

  // Armed polls observed so far / at the moment the token tripped.
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }
  uint64_t trip_poll() const {
    return trip_poll_.load(std::memory_order_relaxed);
  }
  // Checkpoints that elapsed after the trip — the quantity the
  // cancellation audit bounds (query/exec/cancellation_audit.h).
  uint64_t polls_after_trip() const;

  // Seconds between the trip and now; 0 when the token has not tripped.
  // Feeds the query.cancel.latency_us histogram.
  double SecondsSinceTrip() const;

 private:
  bool PollSlow();
  void Trip(CancelReason reason);

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // relaxed everywhere: the token is a monotonic latch (disarmed ->
  // armed -> tripped) plus advisory counters; no poll site derives
  // happens-before edges from it.
  std::atomic<bool> armed_{false};      // relaxed: fast-path gate
  std::atomic<bool> cancelled_{false};  // relaxed: the monotonic latch
  // relaxed: written once by the winning tripper, before cancelled_.
  std::atomic<int> reason_{static_cast<int>(CancelReason::kNone)};
  std::atomic<uint64_t> polls_{0};      // relaxed: advisory tally
  std::atomic<uint64_t> trip_poll_{0};  // relaxed: audit snapshot
  // relaxed: armed before execution; 0 = injection disarmed.
  std::atomic<uint64_t> inject_after_{0};
  // relaxed: steady-clock ns, armed before execution; 0 = none.
  std::atomic<int64_t> deadline_ns_{0};
  std::atomic<int64_t> trip_ns_{0};    // relaxed: audit timestamp
  std::atomic<bool> trip_claim_{false};  // relaxed CAS: first-tripper latch
};

}  // namespace gradoop::common

#endif  // GRADOOP_COMMON_CANCELLATION_H_
