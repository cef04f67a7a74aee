#ifndef GRADOOP_QUERY_EMBEDDING_H_
#define GRADOOP_QUERY_EMBEDDING_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "epgm/property_value.h"

namespace gradoop::query {

// Compact binary representation of one (partial) query embedding (§3.3).
//
//   idEntry   := (ID, id)
//   pathEntry := (PATH, offset)
//   Embedding := idData[], pathData[], propData[]
//
// idData is an array of fixed-width entries — a one-byte flag followed by
// an 8-byte payload. ID entries hold a vertex/edge identifier; PATH
// entries hold a byte offset into pathData, where the path is stored as
// (path-length, ids...) with the alternating edge/vertex identifiers of a
// variable-length expansion. propData stores length-prefixed property
// values bound to query variables.
//
// The three arrays live back to back in one buffer, [idData | pathData |
// propData], delimited by two offsets, so a copy or a Merge is a single
// exact-size allocation. The wire format (EncodeTo) still writes them as
// three length-prefixed arrays.
//
// Identifier and path entries are readable in constant time; property
// access walks the length prefixes. Merging two embeddings is append-only
// for ids and properties; path offsets of the right side are rebased.
//
// Column semantics (which query variable lives at which index) are NOT
// part of the embedding — they live in EmbeddingMetaData, maintained by
// the query operators.
class Embedding {
 public:
  static constexpr uint8_t kIdFlag = 0;
  static constexpr uint8_t kPathFlag = 1;
  static constexpr size_t kEntryWidth = 9;  // flag byte + 8-byte payload

  Embedding() = default;
  Embedding(const Embedding&) = default;
  Embedding& operator=(const Embedding&) = default;
  // A moved-from embedding is empty (its offsets must not outlive the
  // buffer they delimit). The constructor moves the buffer in place, so a
  // growing vector of embeddings relocates them without reassigning.
  Embedding(Embedding&& other) noexcept
      : data_(std::move(other.data_)),
        path_offset_(std::exchange(other.path_offset_, 0)),
        prop_offset_(std::exchange(other.prop_offset_, 0)),
        num_properties_(std::exchange(other.num_properties_, 0)) {
    other.data_.clear();
  }
  Embedding& operator=(Embedding&& other) noexcept {
    data_ = std::move(other.data_);
    path_offset_ = other.path_offset_;
    prop_offset_ = other.prop_offset_;
    num_properties_ = other.num_properties_;
    other.data_.clear();
    other.path_offset_ = other.prop_offset_ = 0;
    other.num_properties_ = 0;
    return *this;
  }

  // --- id/path columns -----------------------------------------------

  int NumIdEntries() const {
    return static_cast<int>(path_offset_ / kEntryWidth);
  }
  bool IsPathEntry(int column) const {
    assert(column >= 0 && column < NumIdEntries());
    return static_cast<uint8_t>(data_[column * kEntryWidth]) == kPathFlag;
  }
  // Identifier stored at `column` (must be an ID entry).
  uint64_t IdAt(int column) const {
    assert(!IsPathEntry(column));
    return PayloadAt(column);
  }
  // Decoded path stored at `column` (must be a PATH entry): the
  // alternating edge/vertex ids between the expansion's endpoints.
  std::vector<uint64_t> PathAt(int column) const;

  void AppendId(uint64_t id) {
    if (path_offset_ != data_.size()) {
      InsertEntry(kIdFlag, id);  // moves the path and property bytes
      return;
    }
    char entry[kEntryWidth];
    entry[0] = static_cast<char>(kIdFlag);
    std::memcpy(entry + 1, &id, 8);
    data_.append(entry, kEntryWidth);
    path_offset_ += kEntryWidth;
    prop_offset_ += kEntryWidth;
  }
  void AppendPath(const std::vector<uint64_t>& via_ids);
  // Appends a PATH entry whose payload is an already-encoded segment
  // (u32 length + 8-byte ids) copied verbatim — the batch-to-row
  // conversion transplants path_pool slices through this instead of
  // decoding and re-encoding them.
  void AppendPathSegment(std::string_view segment);
  // Makes room for `bytes` more bytes of appends, so a caller that knows
  // the final footprint (the batch-to-row conversion) allocates once.
  void Reserve(size_t bytes) { data_.reserve(data_.size() + bytes); }
  // A copy with room for `extra_bytes` more bytes of appends: Expand
  // copies its input row and appends a path and an end vertex to it.
  Embedding CopyWithRoom(size_t extra_bytes) const;

  // True if any listed ID column holds `id` (morphism uniqueness checks).
  bool ContainsIdAt(uint64_t id, const std::vector<int>& columns) const;
  // True if any listed PATH column contains `id` among its even (edge) or
  // odd (vertex) positions; `edges` selects which alternation to scan.
  bool PathContains(uint64_t id, const std::vector<int>& path_columns,
                    bool edges) const;
  // Calls fn(id) for each edge id (the even positions) of the PATH entry
  // at `column`, without materialising the path.
  template <typename Fn>
  void ForEachPathEdge(int column, Fn fn) const {
    assert(IsPathEntry(column));
    const char* path = data_.data() + path_offset_ + PayloadAt(column);
    uint32_t len;
    std::memcpy(&len, path, 4);
    for (uint32_t i = 0; i < len; i += 2) {
      uint64_t id;
      std::memcpy(&id, path + 4 + 8 * i, 8);
      fn(id);
    }
  }

  // --- property columns ----------------------------------------------

  int NumProperties() const { return num_properties_; }
  epgm::PropertyValue PropertyAt(int index) const;
  void AppendProperty(const epgm::PropertyValue& value);
  // Appends an already-encoded value (the bytes EncodeTo would produce)
  // verbatim. The columnar EmbeddingBatch reconstructs rows through this
  // so no decode/re-encode round trip can perturb the byte layout.
  void AppendPropertyEncoded(std::string_view encoded);

  // --- merge / size ---------------------------------------------------

  // Concatenates two embeddings: ids and properties append; the right
  // side's path offsets are rebased by the left pathData length.
  static Embedding Merge(const Embedding& left, const Embedding& right);

  // Wire size: the three byte arrays plus their length headers.
  size_t SerializedSize() const { return 3 * sizeof(uint32_t) + data_.size(); }

  // Wire format: three length-prefixed byte arrays, appended to `out`.
  // The payload needs no re-encoding — the in-memory representation IS
  // the wire representation, which is the point of §3.3. DecodeFrom reads
  // one embedding back, advancing *pos.
  void EncodeTo(std::string* out) const;
  static Result<Embedding> DecodeFrom(const std::string& data, size_t* pos);

  bool operator==(const Embedding& other) const {
    return path_offset_ == other.path_offset_ &&
           prop_offset_ == other.prop_offset_ && data_ == other.data_;
  }

  // Raw views of the three arrays (tests, serialization).
  std::string_view id_data() const {
    return std::string_view(data_).substr(0, path_offset_);
  }
  std::string_view path_data() const {
    return std::string_view(data_).substr(path_offset_,
                                          prop_offset_ - path_offset_);
  }
  std::string_view prop_data() const {
    return std::string_view(data_).substr(prop_offset_);
  }

  // Debug form: [10, path(5,20,7), 30 | Alice, Bob].
  std::string ToString() const;

 private:
  uint64_t PayloadAt(int column) const {
    assert(column >= 0 && column < NumIdEntries());
    uint64_t v;
    std::memcpy(&v, data_.data() + column * kEntryWidth + 1, 8);
    return v;
  }
  // Inserts one id entry at the end of idData, in front of any path and
  // property bytes.
  void InsertEntry(uint8_t flag, uint64_t payload);

  std::string data_;          // [idData | pathData | propData]
  uint32_t path_offset_ = 0;  // end of idData, start of pathData
  uint32_t prop_offset_ = 0;  // end of pathData, start of propData
  int num_properties_ = 0;
};

// Join key of an id join: the ids at `columns` of one embedding. It is a
// view — building one copies two pointers — and is only valid while the
// embedding and the column list live. Two keys are equal when their ids
// are equal column by column.
struct IdJoinKey {
  const Embedding* row = nullptr;
  const std::vector<int>* columns = nullptr;

  friend bool operator==(const IdJoinKey& a, const IdJoinKey& b) {
    const size_t k = a.columns->size();
    if (k != b.columns->size()) return false;
    for (size_t i = 0; i < k; ++i) {
      if (a.row->IdAt((*a.columns)[i]) != b.row->IdAt((*b.columns)[i])) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace gradoop::query

// The hash every id join places its rows by, in both engines: std::hash
// over the key's ids concatenated as 8-byte values, taken as a
// std::string_view, which the standard makes equal to std::hash<std::string>
// over the same bytes. Partitioning claims and the
// GRADOOP_AUDIT_PARTITIONING re-hash therefore agree with the shuffle.
// Keys of up to kInline columns are gathered on the stack.
template <>
struct std::hash<gradoop::query::IdJoinKey> {
  size_t operator()(const gradoop::query::IdJoinKey& key) const {
    constexpr size_t kInline = 8;
    const size_t k = key.columns->size();
    uint64_t inline_ids[kInline] = {};
    std::vector<uint64_t> spilled(k > kInline ? k : 0);
    uint64_t* ids = k > kInline ? spilled.data() : inline_ids;
    for (size_t i = 0; i < k; ++i) ids[i] = key.row->IdAt((*key.columns)[i]);
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(ids), k * sizeof(uint64_t)));
  }
};

#endif  // GRADOOP_QUERY_EMBEDDING_H_
