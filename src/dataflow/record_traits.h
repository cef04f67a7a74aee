#ifndef GRADOOP_DATAFLOW_RECORD_TRAITS_H_
#define GRADOOP_DATAFLOW_RECORD_TRAITS_H_

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace gradoop::dataflow {

// Concept: a record type that knows its own wire size. Graph elements and
// embeddings implement SerializedSize() so that shuffle-byte accounting
// reflects their true variable-length encoding.
template <typename T>
concept SelfSizingRecord = requires(const T& t) {
  { t.SerializedSize() } -> std::convertible_to<size_t>;
};

template <typename T>
size_t RecordBytes(const T& v);
template <typename A, typename B>
size_t RecordBytes(const std::pair<A, B>& v);
template <typename T>
size_t RecordBytes(const std::vector<T>& v);

// Returns the number of bytes record `v` occupies on the wire when shuffled
// between workers. Falls back to sizeof(T) for flat PODs.
template <typename T>
size_t RecordBytes(const T& v) {
  if constexpr (SelfSizingRecord<T>) {
    return v.SerializedSize();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return sizeof(uint32_t) + v.size();
  } else {
    static_assert(!std::is_pointer_v<T>,
                  "a pointer's wire size is its record's: size the record");
    static_assert(std::is_trivially_copyable_v<T>,
                  "non-trivial record types must provide SerializedSize()");
    return sizeof(T);
  }
}

template <typename A, typename B>
size_t RecordBytes(const std::pair<A, B>& v) {
  return RecordBytes(v.first) + RecordBytes(v.second);
}

template <typename T>
size_t RecordBytes(const std::vector<T>& v) {
  size_t total = sizeof(uint32_t);
  for (const T& e : v) total += RecordBytes(e);
  return total;
}

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_RECORD_TRAITS_H_
