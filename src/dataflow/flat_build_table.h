#ifndef GRADOOP_DATAFLOW_FLAT_BUILD_TABLE_H_
#define GRADOOP_DATAFLOW_FLAT_BUILD_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gradoop::dataflow {

// The hash table of one partition's join build side, shared by the row
// joins (Dataset::PrepareBuild/ProbeJoin) and the batch join kernel. It
// is flat: the entries sit in one array grouped by bucket, and bucket b
// owns entries [starts[b], starts[b+1]). One stable counting pass builds
// it (count per bucket, prefix sum, scatter in build order), so nothing
// is allocated per entry and equal keys come back in build order.
//
// Each entry keeps its key's full hash, computed once. A routed join
// side never hashes a key twice: its exchange routes entries, not
// records (Dataset::RouteByKey), so the hash that placed a record is the
// one its table entry keeps and the one its probe passes to
// ForEachMatch. Probes compare the hash before the key. The bucket is
// taken from a remix of that hash: within one partition, hash % p is the
// partition index, so the hash's low bits are fixed and could not spread
// the buckets.
template <typename K, typename Ref>
struct BuildEntry {
  size_t hash = 0;
  K key{};
  Ref ref{};
};

template <typename K, typename Ref>
class FlatBuildTable {
 public:
  using Entry = BuildEntry<K, Ref>;

  FlatBuildTable() = default;

  // Groups `staged` (in build order) by bucket. There are at least twice
  // as many buckets as entries, so most probes for an absent key end at
  // an empty bucket.
  explicit FlatBuildTable(std::vector<Entry> staged) {
    if (staged.empty()) return;
    assert(staged.size() < UINT32_MAX);
    size_t buckets = 2;
    shift_ = 63;
    while (buckets < 2 * staged.size()) {
      buckets <<= 1;
      --shift_;
    }
    starts_.assign(buckets + 1, 0);
    // cancellation: counting pass over entries the caller staged while
    // polling per record; no per-record work beyond one increment.
    for (const Entry& e : staged) ++starts_[BucketOf(e.hash)];
    uint32_t sum = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t count = starts_[b];
      starts_[b] = sum;
      sum += count;
    }
    starts_[buckets] = sum;
    entries_.resize(staged.size());
    // cancellation: scatter of the same staged entries, one move each.
    for (Entry& e : staged) {
      entries_[starts_[BucketOf(e.hash)]++] = std::move(e);
    }
    // The scatter advanced every start to its bucket's end, which is the
    // next bucket's start: shift them back by one bucket.
    for (size_t b = buckets - 1; b > 0; --b) starts_[b] = starts_[b - 1];
    starts_[0] = 0;
  }

  size_t size() const { return entries_.size(); }

  // Calls fn(ref) for every entry whose key equals `key`, in build order;
  // `hash` must be the key's hash as staged.
  template <typename Fn>
  void ForEachMatch(const K& key, size_t hash, Fn&& fn) const {
    if (entries_.empty()) return;
    const size_t b = BucketOf(hash);
    // cancellation: one bucket's entries for one probe record; the
    // caller's probe loop polls per record.
    for (uint32_t i = starts_[b], end = starts_[b + 1]; i < end; ++i) {
      const Entry& e = entries_[i];
      if (e.hash == hash && e.key == key) fn(e.ref);
    }
  }

 private:
  // Fibonacci remix: the top bits of hash × 2^64/φ depend on every bit
  // of the hash.
  size_t BucketOf(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<uint32_t> starts_;  // buckets + 1 offsets into entries_
  std::vector<Entry> entries_;
  unsigned shift_ = 63;  // 64 - log2(buckets)
};

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_FLAT_BUILD_TABLE_H_
