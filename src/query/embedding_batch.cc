#include "query/embedding_batch.h"

#include <algorithm>
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

void AppendUint64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

// Makes room for `extra` more elements, growing the capacity at least
// geometrically. An exact reserve(size() + extra) reallocates on every
// call, so a builder fed many small chunks (the join kernel's merged
// rows) would copy each column once per chunk.
template <typename T>
void ReserveMore(std::vector<T>* v, size_t extra) {
  const size_t need = v->size() + extra;
  if (need > v->capacity()) v->reserve(std::max(need, 2 * v->capacity()));
}

}  // namespace

std::vector<uint64_t> EmbeddingBatch::PathAt(int column, uint32_t row) const {
  assert(IsPathColumn(column));
  const size_t offset = PayloadAt(column, row);
  const uint32_t len = ReadUint32(cols_->path_pool, offset);
  std::vector<uint64_t> ids(len);
  for (uint32_t i = 0; i < len; ++i) {
    ids[i] = ReadUint64(cols_->path_pool, offset + 4 + 8 * i);
  }
  return ids;
}

epgm::PropertyValue EmbeddingBatch::PropertyAt(int column,
                                               uint32_t row) const {
  const size_t cell =
      static_cast<size_t>(row) * cols_->property_columns + column;
  size_t pos = cols_->prop_offsets[cell];
  auto decoded = epgm::PropertyValue::DecodeFrom(cols_->prop_pool, &pos);
  assert(decoded.ok());
  return std::move(decoded).value();
}

void EmbeddingBatch::PushPath(int column,
                              const std::vector<uint64_t>& via_ids) {
  Columns& cols = MutableColumns();
  const uint64_t offset = cols.path_pool.size();
  AppendUint32(&cols.path_pool, static_cast<uint32_t>(via_ids.size()));
  for (const uint64_t id : via_ids) AppendUint64(&cols.path_pool, id);
  cols.ids[static_cast<size_t>(column)].push_back(offset);
}

void EmbeddingBatch::PushProperty(const epgm::PropertyValue& value) {
  Columns& cols = MutableColumns();
  cols.prop_offsets.push_back(cols.prop_pool.size());
  cols.prop_lens.push_back(static_cast<uint32_t>(value.SerializedSize()));
  value.EncodeTo(&cols.prop_pool);
}

void EmbeddingBatch::PushPropertyEncoded(std::string_view encoded) {
  Columns& cols = MutableColumns();
  cols.prop_offsets.push_back(cols.prop_pool.size());
  cols.prop_lens.push_back(static_cast<uint32_t>(encoded.size()));
  cols.prop_pool.append(encoded);
}

void EmbeddingBatch::CommitRow() {
  Columns& cols = MutableColumns();
  ++cols.rows;
#ifndef NDEBUG
  for (const auto& column : cols.ids) {
    assert(column.size() == cols.rows && "row is missing an id cell");
  }
  assert(cols.prop_offsets.size() ==
             static_cast<size_t>(cols.rows) * cols.property_columns &&
         "row is missing a property cell");
#endif
}

void EmbeddingBatch::Rollback(const RowMark& mark) {
  Columns& cols = MutableColumns();
  for (auto& column : cols.ids) {
    if (column.size() > mark.rows) column.resize(mark.rows);
  }
  cols.path_pool.resize(mark.path_pool_bytes);
  cols.prop_pool.resize(mark.prop_pool_bytes);
  cols.prop_offsets.resize(mark.prop_cells);
  cols.prop_lens.resize(mark.prop_cells);
  cols.rows = mark.rows;
}

void EmbeddingBatch::AppendRowCells(const EmbeddingBatch& src, uint32_t row,
                                    int col_offset) {
  const int src_columns = src.num_id_columns();
  for (int c = 0; c < src_columns; ++c) {
    if (src.IsPathColumn(c)) {
      // Copy the raw path segment into this batch's pool; the new offset
      // replaces the old one, the segment bytes stay verbatim.
      Columns& cols = MutableColumns();
      const size_t offset = src.PayloadAt(c, row);
      const uint32_t len = ReadUint32(src.cols_->path_pool, offset);
      const uint64_t new_offset = cols.path_pool.size();
      cols.path_pool.append(src.cols_->path_pool, offset, 4 + 8 * len);
      cols.ids[static_cast<size_t>(col_offset + c)].push_back(new_offset);
    } else {
      PushId(col_offset + c, src.PayloadAt(c, row));
    }
  }
  // cancellation: one row's cells, bounded by the layout's column count.
  for (int c = 0; c < src.num_property_columns(); ++c) {
    PushPropertyEncoded(src.PropertyCellAt(c, row));
  }
}

void EmbeddingBatch::AppendRows(const EmbeddingBatch& src,
                                const std::vector<uint32_t>& rows) {
  Columns& cols = MutableColumns();
  const Columns& s = *src.cols_;
  const int columns = num_id_columns();
  for (int c = 0; c < columns; ++c) {
    auto& dst_col = cols.ids[static_cast<size_t>(c)];
    const auto& src_col = s.ids[static_cast<size_t>(c)];
    ReserveMore(&dst_col, rows.size());
    if (IsPathColumn(c)) {
      for (const uint32_t row : rows) {
        const size_t offset = src_col[row];
        const uint32_t len = ReadUint32(s.path_pool, offset);
        dst_col.push_back(cols.path_pool.size());
        cols.path_pool.append(s.path_pool, offset, 4 + 8 * len);
      }
    } else {
      for (const uint32_t row : rows) dst_col.push_back(src_col[row]);
    }
  }
  const int props = cols.property_columns;
  if (props > 0) {
    const size_t cells = rows.size() * static_cast<size_t>(props);
    ReserveMore(&cols.prop_offsets, cells);
    ReserveMore(&cols.prop_lens, cells);
    // Pre-size the pool once for the whole gather — appending row by row
    // into a growing megabyte string re-copies it log-many times.
    size_t pool_bytes = 0;
    for (const uint32_t row : rows) {
      const size_t base = static_cast<size_t>(row) * props;
      for (int c = 0; c < props; ++c) pool_bytes += s.prop_lens[base + c];
    }
    cols.prop_pool.reserve(cols.prop_pool.size() + pool_bytes);
    for (const uint32_t row : rows) {
      const size_t base = static_cast<size_t>(row) * props;
      // A row's cells are contiguous in the source pool whenever the
      // source was built row-major (every builder is); copy them with a
      // single append and fall back to per-cell copies otherwise.
      size_t row_bytes = s.prop_lens[base];
      bool contiguous = true;
      for (int c = 1; c < props; ++c) {
        contiguous = contiguous && s.prop_offsets[base + c] ==
                                       s.prop_offsets[base + c - 1] +
                                           s.prop_lens[base + c - 1];
        row_bytes += s.prop_lens[base + c];
      }
      if (contiguous) {
        size_t offset = cols.prop_pool.size();
        for (int c = 0; c < props; ++c) {
          cols.prop_offsets.push_back(offset);
          cols.prop_lens.push_back(s.prop_lens[base + c]);
          offset += s.prop_lens[base + c];
        }
        cols.prop_pool.append(s.prop_pool, s.prop_offsets[base],
                              row_bytes);
      } else {
        for (int c = 0; c < props; ++c) {
          const uint32_t len = s.prop_lens[base + c];
          cols.prop_offsets.push_back(cols.prop_pool.size());
          cols.prop_lens.push_back(len);
          cols.prop_pool.append(s.prop_pool, s.prop_offsets[base + c],
                                len);
        }
      }
    }
  }
  cols.rows += static_cast<uint32_t>(rows.size());
}

void EmbeddingBatch::AppendMergedRows(const EmbeddingBatch& left,
                                      int left_id_columns,
                                      const std::vector<MergePair>& pairs,
                                      size_t offset, size_t count) {
  Columns& cols = MutableColumns();
  const Columns& l = *left.cols_;
  const int columns = num_id_columns();
  for (int c = 0; c < columns; ++c) {
    auto& dst_col = cols.ids[static_cast<size_t>(c)];
    ReserveMore(&dst_col, count);
    const bool is_path = IsPathColumn(c);
    if (c < left_id_columns) {
      const auto& src_col = l.ids[static_cast<size_t>(c)];
      if (is_path) {
        for (size_t i = 0; i < count; ++i) {
          const size_t off = src_col[pairs[offset + i].left_row];
          const uint32_t len = ReadUint32(l.path_pool, off);
          dst_col.push_back(cols.path_pool.size());
          cols.path_pool.append(l.path_pool, off, 4 + 8 * len);
        }
      } else {
        for (size_t i = 0; i < count; ++i) {
          dst_col.push_back(src_col[pairs[offset + i].left_row]);
        }
      }
    } else {
      const size_t rc = static_cast<size_t>(c - left_id_columns);
      if (is_path) {
        for (size_t i = 0; i < count; ++i) {
          const MergePair& pr = pairs[offset + i];
          const Columns& r = *pr.right->cols_;
          const size_t off = r.ids[rc][pr.right_row];
          const uint32_t len = ReadUint32(r.path_pool, off);
          dst_col.push_back(cols.path_pool.size());
          cols.path_pool.append(r.path_pool, off, 4 + 8 * len);
        }
      } else {
        for (size_t i = 0; i < count; ++i) {
          const MergePair& pr = pairs[offset + i];
          dst_col.push_back(pr.right->cols_->ids[rc][pr.right_row]);
        }
      }
    }
  }
  const int props = cols.property_columns;
  if (props > 0) {
    const int left_props = left.num_property_columns();
    const size_t cells = count * static_cast<size_t>(props);
    ReserveMore(&cols.prop_offsets, cells);
    ReserveMore(&cols.prop_lens, cells);
    // One side's cells for one row: contiguous in the source pool for
    // every row-major-built batch — single append; per-cell otherwise.
    auto copy_cells = [&cols](const Columns& src, uint32_t row) {
      const int n = src.property_columns;
      if (n == 0) return;
      const size_t base = static_cast<size_t>(row) * n;
      size_t row_bytes = src.prop_lens[base];
      bool contiguous = true;
      for (int c = 1; c < n; ++c) {
        contiguous = contiguous &&
                     src.prop_offsets[base + c] ==
                         src.prop_offsets[base + c - 1] +
                             src.prop_lens[base + c - 1];
        row_bytes += src.prop_lens[base + c];
      }
      if (contiguous) {
        size_t at = cols.prop_pool.size();
        for (int c = 0; c < n; ++c) {
          cols.prop_offsets.push_back(at);
          cols.prop_lens.push_back(src.prop_lens[base + c]);
          at += src.prop_lens[base + c];
        }
        cols.prop_pool.append(src.prop_pool, src.prop_offsets[base],
                              row_bytes);
      } else {
        for (int c = 0; c < n; ++c) {
          const uint32_t len = src.prop_lens[base + c];
          cols.prop_offsets.push_back(cols.prop_pool.size());
          cols.prop_lens.push_back(len);
          cols.prop_pool.append(src.prop_pool, src.prop_offsets[base + c],
                                len);
        }
      }
    };
    size_t pool_bytes = 0;
    for (size_t i = 0; i < count; ++i) {
      const MergePair& pr = pairs[offset + i];
      const size_t lbase = static_cast<size_t>(pr.left_row) * left_props;
      for (int c = 0; c < left_props; ++c) {
        pool_bytes += l.prop_lens[lbase + c];
      }
      const Columns& r = *pr.right->cols_;
      const size_t rbase =
          static_cast<size_t>(pr.right_row) * r.property_columns;
      for (int c = 0; c < r.property_columns; ++c) {
        pool_bytes += r.prop_lens[rbase + c];
      }
    }
    cols.prop_pool.reserve(cols.prop_pool.size() + pool_bytes);
    for (size_t i = 0; i < count; ++i) {
      const MergePair& pr = pairs[offset + i];
      copy_cells(l, pr.left_row);
      copy_cells(*pr.right->cols_, pr.right_row);
    }
  }
  cols.rows += static_cast<uint32_t>(count);
}

void EmbeddingBatch::AppendRow(const Embedding& embedding) {
  const int columns = num_id_columns();
  assert(embedding.NumIdEntries() == columns);
  for (int c = 0; c < columns; ++c) {
    if (IsPathColumn(c)) {
      assert(embedding.IsPathEntry(c));
      PushPath(c, embedding.PathAt(c));
    } else {
      PushId(c, embedding.IdAt(c));
    }
  }
  // Property cells copy the row's encoded bytes verbatim: walk the
  // length-prefixed prop_data directly instead of decode + re-encode.
  const std::string_view prop_data = embedding.prop_data();
  size_t pos = 0;
  int cells = 0;
  while (pos < prop_data.size()) {
    const uint32_t len = ReadUint32(prop_data, pos);
    PushPropertyEncoded(prop_data.substr(pos + 4, len));
    pos += 4 + len;
    ++cells;
  }
  assert(cells == num_property_columns());
  (void)cells;
  CommitRow();
}

Embedding EmbeddingBatch::RowAt(uint32_t row) const {
  Embedding out;
  const int columns = num_id_columns();
  const int props = cols_->property_columns;
  // The row footprint is knowable up front: reserve the row's buffer
  // exactly once, then transplant path segments and property cells
  // verbatim — no decode/re-encode round trips.
  size_t path_bytes = 0;
  for (int c = 0; c < columns; ++c) {
    if (IsPathColumn(c)) {
      path_bytes +=
          4 + 8 * ReadUint32(cols_->path_pool, PayloadAt(c, row));
    }
  }
  size_t prop_bytes = 0;
  const size_t base = static_cast<size_t>(row) * props;
  for (int c = 0; c < props; ++c) {
    prop_bytes += 4 + cols_->prop_lens[base + c];
  }
  out.Reserve(columns * Embedding::kEntryWidth + path_bytes + prop_bytes);
  for (int c = 0; c < columns; ++c) {
    if (IsPathColumn(c)) {
      const size_t offset = PayloadAt(c, row);
      const uint32_t len = ReadUint32(cols_->path_pool, offset);
      out.AppendPathSegment(
          std::string_view(cols_->path_pool).substr(offset, 4 + 8 * len));
    } else {
      out.AppendId(IdAt(c, row));
    }
  }
  for (int c = 0; c < props; ++c) {
    out.AppendPropertyEncoded(PropertyCellAt(c, row));
  }
  return out;
}

}  // namespace gradoop::query
