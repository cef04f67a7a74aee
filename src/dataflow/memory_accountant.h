#ifndef GRADOOP_DATAFLOW_MEMORY_ACCOUNTANT_H_
#define GRADOOP_DATAFLOW_MEMORY_ACCOUNTANT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace gradoop::dataflow {

// Modeled per-row overhead of a per-worker join build table (table
// entry with its key copy and record pointer, plus a bucket share).
// Charged by Dataset::HashJoin when accounting is on; the static analysis
// (query/exec/memory_bound.h) prices build tables with the same constant
// so estimate and measurement stay in one currency.
inline constexpr uint64_t kHashTableEntryBytes = 64;

// Per-query allocation accounting for the simulated dataflow: datasets
// charge the serialized bytes of materialized intermediates (operator
// outputs, shuffle staging, join build tables) and release them when the
// owning kernel returns. The engine enables it per query
// (CypherEngine::set_account_memory) and reads the totals into the
// memory.bytes.peak / memory.bytes.current telemetry gauges; the
// GRADOOP_AUDIT_MEMORY runtime audit compares the per-operator peaks it
// records against the static MemoryBound claims.
//
// DRIVER-THREAD ONLY: every Charge/Release site runs on the thread that
// drives the query (operators execute sequentially; Dataset methods
// charge before/after dispatching partition work to the pool, never from
// inside it). That discipline is what lets the counters be plain
// integers — no atomics, no lock — and is why frames strictly nest.
//
// Frames measure subtree-relative peaks: PhysicalOperator::Execute pushes
// a frame on entry and pops on exit; the frame's high-water mark minus
// its entry level is the subtree's own resident peak, unpolluted by
// whatever older siblings already held when it started. Child frames fold
// their high into the parent's, mirroring the static lifetime-interval
// fold of query/exec/memory_bound.h.
class MemoryAccountant {
 public:
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }

  void Reset() {
    current_ = 0;
    peak_ = 0;
    frames_.clear();
  }

  // Global counters across the whole query.
  uint64_t current_bytes() const { return current_; }
  uint64_t peak_bytes() const { return peak_; }

  // Open frames. 0 between queries; the cancellation audit asserts an
  // unwound query popped every frame it pushed.
  size_t frame_depth() const { return frames_.size(); }

  void Charge(uint64_t bytes) {
    if (!enabled_) return;
    current_ += bytes;
    peak_ = std::max(peak_, current_);
    if (!frames_.empty()) {
      frames_.back().high = std::max(frames_.back().high, current_);
    }
  }

  void Release(uint64_t bytes) {
    if (!enabled_) return;
    current_ = bytes > current_ ? 0 : current_ - bytes;
  }

  void PushFrame() {
    if (!enabled_) return;
    frames_.push_back({current_, current_});
  }

  // Returns the frame's relative peak (high-water mark minus the level at
  // entry) and folds its high into the enclosing frame.
  uint64_t PopFrame() {
    if (!enabled_ || frames_.empty()) return 0;
    const Frame frame = frames_.back();
    frames_.pop_back();
    if (!frames_.empty()) {
      frames_.back().high = std::max(frames_.back().high, frame.high);
    }
    return frame.high - frame.entry;
  }

 private:
  struct Frame {
    uint64_t entry = 0;  // current_ when the frame opened
    uint64_t high = 0;   // max current_ observed while open
  };

  bool enabled_ = false;
  uint64_t current_ = 0;
  uint64_t peak_ = 0;
  std::vector<Frame> frames_;
};

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_MEMORY_ACCOUNTANT_H_
