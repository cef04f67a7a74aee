#include "query/embedding.h"

#include <cassert>
#include <cstring>

namespace gradoop::query {

namespace {

uint64_t ReadUint64(std::string_view data, size_t pos) {
  uint64_t v;
  std::memcpy(&v, data.data() + pos, 8);
  return v;
}

uint32_t ReadUint32(std::string_view data, size_t pos) {
  uint32_t v;
  std::memcpy(&v, data.data() + pos, 4);
  return v;
}

void AppendUint32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

}  // namespace

std::vector<uint64_t> Embedding::PathAt(int column) const {
  assert(IsPathEntry(column));
  const std::string_view path = path_data();
  const size_t offset = PayloadAt(column);
  assert(offset + 4 <= path.size());
  const uint32_t len = ReadUint32(path, offset);
  std::vector<uint64_t> ids(len);
  for (uint32_t i = 0; i < len; ++i) {
    ids[i] = ReadUint64(path, offset + 4 + 8 * i);
  }
  return ids;
}

void Embedding::InsertEntry(uint8_t flag, uint64_t payload) {
  char entry[kEntryWidth];
  entry[0] = static_cast<char>(flag);
  std::memcpy(entry + 1, &payload, 8);
  data_.insert(path_offset_, entry, kEntryWidth);
  path_offset_ += kEntryWidth;
  prop_offset_ += kEntryWidth;
}

void Embedding::AppendPath(const std::vector<uint64_t>& via_ids) {
  InsertEntry(kPathFlag, prop_offset_ - path_offset_);
  // Open a gap at the end of pathData and fill it in place.
  const size_t bytes = 4 + 8 * via_ids.size();
  data_.insert(prop_offset_, bytes, '\0');
  char* out = data_.data() + prop_offset_;
  const uint32_t len = static_cast<uint32_t>(via_ids.size());
  std::memcpy(out, &len, 4);
  if (!via_ids.empty()) std::memcpy(out + 4, via_ids.data(), 8 * len);
  prop_offset_ += bytes;
}

void Embedding::AppendPathSegment(std::string_view segment) {
  InsertEntry(kPathFlag, prop_offset_ - path_offset_);
  data_.insert(prop_offset_, segment.data(), segment.size());
  prop_offset_ += segment.size();
}

Embedding Embedding::CopyWithRoom(size_t extra_bytes) const {
  Embedding out;
  out.data_.reserve(data_.size() + extra_bytes);
  out.data_.append(data_);
  out.path_offset_ = path_offset_;
  out.prop_offset_ = prop_offset_;
  out.num_properties_ = num_properties_;
  return out;
}

bool Embedding::ContainsIdAt(uint64_t id,
                             const std::vector<int>& columns) const {
  for (int c : columns) {
    if (!IsPathEntry(c) && PayloadAt(c) == id) return true;
  }
  return false;
}

bool Embedding::PathContains(uint64_t id,
                             const std::vector<int>& path_columns,
                             bool edges) const {
  // Paths store alternating identifiers starting with an edge:
  // e1, v1, e2, v2, ..., ek — edges at even indices, vertices at odd.
  const std::string_view path = path_data();
  for (int c : path_columns) {
    if (!IsPathEntry(c)) continue;
    const size_t offset = PayloadAt(c);
    const uint32_t len = ReadUint32(path, offset);
    for (uint32_t i = edges ? 0 : 1; i < len; i += 2) {
      if (ReadUint64(path, offset + 4 + 8 * i) == id) return true;
    }
  }
  return false;
}

epgm::PropertyValue Embedding::PropertyAt(int index) const {
  assert(index >= 0 && index < num_properties_);
  size_t pos = prop_offset_;
  for (int i = 0; i < index; ++i) {
    const uint32_t len = ReadUint32(data_, pos);
    pos += 4 + len;
  }
  size_t value_pos = pos + 4;
  auto decoded = epgm::PropertyValue::DecodeFrom(data_, &value_pos);
  assert(decoded.ok());
  return std::move(decoded).value();
}

void Embedding::AppendProperty(const epgm::PropertyValue& value) {
  AppendUint32(&data_, static_cast<uint32_t>(value.SerializedSize()));
  value.EncodeTo(&data_);
  ++num_properties_;
}

void Embedding::AppendPropertyEncoded(std::string_view encoded) {
  AppendUint32(&data_, static_cast<uint32_t>(encoded.size()));
  data_.append(encoded);
  ++num_properties_;
}

void Embedding::EncodeTo(std::string* out) const {
  for (const std::string_view part : {id_data(), path_data(), prop_data()}) {
    AppendUint32(out, static_cast<uint32_t>(part.size()));
    out->append(part);
  }
}

Result<Embedding> Embedding::DecodeFrom(const std::string& data,
                                        size_t* pos) {
  // Locates the three length-prefixed chunks first, so the buffer is
  // allocated once at its final size.
  std::string_view chunks[3];
  size_t at = *pos;
  for (std::string_view& chunk : chunks) {
    if (at + 4 > data.size()) {
      return Status::InvalidArgument("truncated embedding");
    }
    const uint32_t len = ReadUint32(data, at);
    at += 4;
    if (at + len > data.size()) {
      return Status::InvalidArgument("truncated embedding");
    }
    chunk = std::string_view(data).substr(at, len);
    at += len;
  }
  const auto& [ids, paths, props] = chunks;
  if (ids.size() % kEntryWidth != 0) {
    return Status::InvalidArgument("corrupt embedding id data");
  }
  // Recount the length-prefixed property entries.
  size_t p = 0;
  int count = 0;
  while (p < props.size()) {
    if (p + 4 > props.size()) {
      return Status::InvalidArgument("corrupt embedding property data");
    }
    const uint32_t len = ReadUint32(props, p);
    p += 4 + len;
    ++count;
  }
  if (p != props.size()) {
    return Status::InvalidArgument("corrupt embedding property data");
  }
  Embedding e;
  e.data_.reserve(ids.size() + paths.size() + props.size());
  e.data_.append(ids).append(paths).append(props);
  e.path_offset_ = static_cast<uint32_t>(ids.size());
  e.prop_offset_ = static_cast<uint32_t>(ids.size() + paths.size());
  e.num_properties_ = count;
  *pos = at;
  return e;
}

Embedding Embedding::Merge(const Embedding& left, const Embedding& right) {
  Embedding out;
  out.data_.reserve(left.data_.size() + right.data_.size());
  out.data_.append(left.id_data()).append(right.id_data());
  // Right PATH payloads rebase by the left pathData length (bounded by
  // the number of right id entries).
  const uint64_t rebase = left.prop_offset_ - left.path_offset_;
  if (rebase != 0) {
    char* entries = out.data_.data() + left.path_offset_;
    const int right_entries = right.NumIdEntries();
    for (int c = 0; c < right_entries; ++c) {
      char* entry = entries + c * kEntryWidth;
      if (static_cast<uint8_t>(entry[0]) != kPathFlag) continue;
      uint64_t payload;
      std::memcpy(&payload, entry + 1, 8);
      payload += rebase;
      std::memcpy(entry + 1, &payload, 8);
    }
  }
  out.data_.append(left.path_data()).append(right.path_data());
  out.data_.append(left.prop_data()).append(right.prop_data());
  out.path_offset_ = left.path_offset_ + right.path_offset_;
  out.prop_offset_ = out.path_offset_ +
                     (left.prop_offset_ - left.path_offset_) +
                     (right.prop_offset_ - right.path_offset_);
  out.num_properties_ = left.num_properties_ + right.num_properties_;
  return out;
}

std::string Embedding::ToString() const {
  std::string out = "[";
  for (int c = 0; c < NumIdEntries(); ++c) {
    if (c > 0) out += ", ";
    if (IsPathEntry(c)) {
      out += "path(";
      const auto ids = PathAt(c);
      for (size_t i = 0; i < ids.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(ids[i]);
      }
      out += ")";
    } else {
      out += std::to_string(IdAt(c));
    }
  }
  if (num_properties_ > 0) {
    out += " | ";
    for (int i = 0; i < num_properties_; ++i) {
      if (i > 0) out += ", ";
      out += PropertyAt(i).ToString();
    }
  }
  out += "]";
  return out;
}

}  // namespace gradoop::query
