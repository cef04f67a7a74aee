#include "query/batch_operators.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "common/cancellation.h"
#include "dataflow/flat_build_table.h"
#include "dataflow/partitioning_audit.h"
#include "query/expand_loop.h"
#include "query/morphism.h"

namespace gradoop::query {

namespace dfl = ::gradoop::dataflow;

namespace {

using BatchDataset = dfl::Dataset<EmbeddingBatch>;

bool EvaluateClauses(const std::vector<cypher::CnfClause>& clauses,
                     const cypher::ValueResolver& resolver) {
  for (const cypher::CnfClause& clause : clauses) {
    if (!cypher::EvaluateClause(clause, resolver)) return false;
  }
  return true;
}

// Whether a raw element passes a leaf scan's element predicates (the row
// kernels' PassesElementPredicates): only the scanned variable's
// properties are in scope, and an unfiltered scan builds no resolver.
bool PassesElementPredicates(const std::vector<cypher::CnfClause>& predicates,
                             const std::string& variable,
                             const epgm::Properties& properties) {
  if (predicates.empty()) return true;
  return EvaluateClauses(
      predicates,
      [&variable, &properties](
          const std::string& var,
          const std::string& key) -> epgm::PropertyValue {
        if (var != variable) return epgm::PropertyValue::Null();
        return properties.Get(key);
      });
}

// Clause evaluation against one batch row — the columnar counterpart of
// EmbeddingMetaData::MakeResolver. Also valid for the *pending* row of a
// builder (cells pushed, CommitRow not yet called), which is how the
// kernels evaluate fused residuals speculatively before committing.
bool RowPassesClauses(const std::vector<cypher::CnfClause>& clauses,
                      const EmbeddingMetaData& meta, const EmbeddingBatch& b,
                      uint32_t row) {
  if (clauses.empty()) return true;
  const auto resolver = [&meta, &b, row](
                            const std::string& var,
                            const std::string& key) -> epgm::PropertyValue {
    const int column = meta.PropertyColumn(var, key);
    if (column < 0) return epgm::PropertyValue::Null();
    return b.PropertyAt(column, row);
  };
  return EvaluateClauses(clauses, resolver);
}

// Projection keys for one scanned variable, read off the compiled meta.
std::vector<std::string> ProjectedKeys(const EmbeddingMetaData& meta,
                                       const std::string& variable) {
  std::vector<std::string> out;
  for (const auto& [var, key] : meta.PropertyColumnsInOrder()) {
    assert(var == variable && "scan meta projects only the scanned variable");
    (void)variable;
    out.push_back(key);
  }
  return out;
}

// Column flags of a fresh batch for `meta`: kPathFlag on columns bound to
// a path variable, kIdFlag elsewhere. A merged layout's duplicate column
// of a shared variable stays kIdFlag: shared variables are join keys, and
// path bindings cannot be joined on.
std::vector<uint8_t> FlagsOf(const EmbeddingMetaData& meta) {
  std::vector<uint8_t> flags(static_cast<size_t>(meta.id_column_count()),
                             Embedding::kIdFlag);
  for (const std::string& var : meta.Variables()) {
    if (meta.TypeOf(var) == EntryType::kPath) {
      flags[static_cast<size_t>(meta.IdColumn(var))] = Embedding::kPathFlag;
    }
  }
  return flags;
}

// Appends the row's join key — concatenated 8-byte ids, the bytes whose
// hash places the row engine's IdJoinKey, so both engines route every
// row through the same std::hash<std::string> placement.
void AppendIdKey(const EmbeddingBatch& b, uint32_t row,
                 const std::vector<int>& columns, std::string* key) {
  for (const int c : columns) {
    const uint64_t id = b.IdAt(c, row);
    char buf[8];
    std::memcpy(buf, &id, 8);
    key->append(buf, 8);
  }
}

// Appends the row's value-join key: concatenated encodings of the key
// properties, numerics normalized so 2 and 2.0 join. Callers prune NULL
// keys first; a NULL here would be a kernel bug.
void AppendValueKey(const EmbeddingBatch& b, uint32_t row,
                    const std::vector<int>& columns, std::string* key) {
  for (const int c : columns) {
    const epgm::PropertyValue value = b.PropertyAt(c, row);
    assert(!value.is_null() && "NULL keys must be pruned before the join");
    if (value.is_numeric()) {
      epgm::PropertyValue(value.AsDouble()).EncodeTo(key);
    } else {
      value.EncodeTo(key);
    }
  }
}

// Places a row by its join key: std::hash<std::string> over the key's
// bytes (AppendIdKey / AppendValueKey), the hash the row engine places
// the same row by. An id key of up to kInline columns is hashed from a
// stack buffer with no string built; a value key is encoded into a
// string the placer reuses. Not thread-safe: one placer per routing loop.
class KeyPlacer {
 public:
  KeyPlacer(bool id_join, std::vector<int> columns)
      : id_join_(id_join), columns_(std::move(columns)) {}

  size_t Hash(const EmbeddingBatch& b, uint32_t row) {
    const size_t k = columns_.size();
    if (id_join_ && k <= kInline) {
      uint64_t ids[kInline];
      for (size_t i = 0; i < k; ++i) ids[i] = b.IdAt(columns_[i], row);
      return std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(ids), k * sizeof(uint64_t)));
    }
    key_.clear();
    if (id_join_) {
      AppendIdKey(b, row, columns_, &key_);
    } else {
      AppendValueKey(b, row, columns_, &key_);
    }
    return std::hash<std::string>{}(key_);
  }

 private:
  static constexpr size_t kInline = 8;
  bool id_join_;
  std::vector<int> columns_;
  std::string key_;
};

// Scatters the active rows of every batch to hash(key) % p, compacting
// them into per-target sub-batches. Placement is the row engine's.
BatchDataset ScatterBatches(const BatchDataset& data,
                            std::vector<uint8_t> flags, int props,
                            KeyPlacer placer, const char* label) {
  const int p = data.num_partitions();
  return data.ScatterShuffle(
      [flags = std::move(flags), props, placer = std::move(placer), p,
       rows_by_target = std::vector<std::vector<uint32_t>>(
           static_cast<size_t>(p))](
          const EmbeddingBatch& b, int /*source*/,
          std::vector<std::pair<int, EmbeddingBatch>>* frags) mutable {
        // Two passes: route every active row first, then compact each
        // target's rows with one column-major bulk gather (AppendRows)
        // instead of row-at-a-time appends. The row lists are reused
        // from batch to batch.
        for (std::vector<uint32_t>& rows : rows_by_target) rows.clear();
        const uint32_t active = b.ActiveRows();
        for (uint32_t i = 0; i < active; ++i) {
          const uint32_t row = b.ActiveRow(i);
          const size_t target = placer.Hash(b, row) % static_cast<size_t>(p);
          rows_by_target[target].push_back(row);
        }
        for (int target = 0; target < p; ++target) {
          const auto& rows = rows_by_target[static_cast<size_t>(target)];
          if (rows.empty()) continue;
          frags->emplace_back(target, EmbeddingBatch(flags, props));
          frags->back().second.AppendRows(b, rows);
        }
      },
      label);
}

// Adopts an input the partitioning analysis proved co-partitioned on the
// join key: no exchange, no stage, no network bytes. Mirrors the row
// engine's elided join sides — under GRADOOP_AUDIT_PARTITIONING every
// *active row* is re-hashed and the process hard-fails on the first
// misplaced one; telemetry records what the elision saved.
BatchDataset AdoptBatches(const BatchDataset& data, KeyPlacer placer,
                          const char* label) {
  const int p = data.num_partitions();
  if (dfl::PartitioningAuditEnabled()) {
    uint64_t checked = 0;
    uint64_t misplaced = 0;
    for (int i = 0; i < p; ++i) {
      // cancellation: opt-in partitioning audit must re-hash every row
      // even while unwinding — a partial check could miss the violation.
      for (const EmbeddingBatch& b : data.partition(i)) {
        const uint32_t active = b.ActiveRows();
        for (uint32_t j = 0; j < active; ++j) {
          ++checked;
          if (p != 0 && placer.Hash(b, b.ActiveRow(j)) %
                                static_cast<size_t>(p) !=
                            static_cast<size_t>(i)) {
            ++misplaced;
          }
        }
      }
    }
    dfl::PartitioningAuditStats::Instance().RecordCheck(checked, misplaced);
    if (misplaced != 0) {
      std::fprintf(stderr,
                   "[gradoop] partitioning audit FAILED at %s: %llu of "
                   "%llu rows of an elided batch shuffle sit in the wrong "
                   "partition — the partitioning analysis is unsound\n",
                   label, static_cast<unsigned long long>(misplaced),
                   static_cast<unsigned long long>(checked));
      std::abort();
    }
  }
  const auto& ctx = data.context();
  if (ctx->telemetry().enabled()) {
    uint64_t bytes = 0;
    uint64_t records = 0;
    for (int i = 0; i < p; ++i) {
      // cancellation: telemetry byte walk, O(batches) with no row work.
      for (const EmbeddingBatch& b : data.partition(i)) {
        records += b.ActiveRows();
        bytes += b.SerializedSize();
      }
    }
    telemetry::Telemetry& tel = ctx->telemetry();
    tel.metrics().AddCounter("shuffle.elided.count", 1);
    tel.metrics().AddCounter("shuffle.elided.bytes", bytes);
    const double now_us = tel.tracer().NowMicros();
    tel.tracer().AddSpan(std::string(label) + "/ShuffleElided",
                         telemetry::kCategoryStage, now_us, now_us,
                         /*worker=*/-1,
                         {{"bytes_saved", static_cast<double>(bytes)},
                          {"records", static_cast<double>(records)}});
  }
  return data;
}

// Everything the build+probe stage needs to merge a (left, right) row
// pair and decide whether it survives.
struct MergeParams {
  std::vector<uint8_t> flags;  // merged layout
  int props = 0;
  int left_id_columns = 0;
  MorphismPlan morphism;
  EmbeddingMetaData merged_meta;
  std::vector<cypher::CnfClause> residual;
  int batch_size = 0;

  MergeParams(const EmbeddingMetaData& merged, int left_cols,
              const MorphismSetting& semantics,
              std::vector<cypher::CnfClause> residual_clauses, int size)
      : flags(FlagsOf(merged)),
        props(merged.property_column_count()),
        left_id_columns(left_cols),
        morphism(merged, semantics),
        merged_meta(merged),
        residual(std::move(residual_clauses)),
        batch_size(size) {}
};

// Local-probe hash for two-column id keys (placement was already decided
// by the scatter, so the table hash is free to be cheap).
struct U64PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
    uint64_t h = k.first * 0x9e3779b97f4a7c15ull;
    h ^= k.second + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

// The vectorized probe loop: builds the flat build table
// (dataflow/flat_build_table.h) over the build (right) side's active
// rows, probes with every left row and appends surviving merged rows.
// Key extraction is a template parameter so one- and two-column id joins
// probe on raw u64 columns with no per-row key materialization.
template <typename Key, typename Hash = std::hash<Key>, typename LeftKeyFn,
          typename RightKeyFn>
void BuildProbeMerge(const std::vector<EmbeddingBatch>& left_batches,
                     const std::vector<EmbeddingBatch>& right_batches,
                     LeftKeyFn left_key, RightKeyFn right_key,
                     const MergeParams& mp, std::vector<EmbeddingBatch>* dst,
                     dfl::ZipPartitionStats* st,
                     common::CancellationToken& cancel) {
  // Build over the right side (HashJoin's build side), one entry per
  // active row addressed as (batch, row).
  using Table = dfl::FlatBuildTable<Key, std::pair<uint32_t, uint32_t>>;
  uint64_t build_rows = 0;
  // cancellation: O(batches) size prepass; the build loop below polls.
  for (const EmbeddingBatch& b : right_batches) build_rows += b.ActiveRows();
  std::vector<typename Table::Entry> staged;
  staged.reserve(build_rows);
  const Hash key_hash;
  for (uint32_t bi = 0; bi < right_batches.size(); ++bi) {
    if (cancel.CheckCancelled()) break;
    const EmbeddingBatch& b = right_batches[bi];
    const uint32_t active = b.ActiveRows();
    for (uint32_t i = 0; i < active; ++i) {
      const uint32_t row = b.ActiveRow(i);
      Key key = right_key(b, row);
      const size_t hash = key_hash(key);
      staged.push_back({hash, std::move(key), {bi, row}});
    }
  }
  const Table table(std::move(staged));
  st->state_records = build_rows;
  // cancellation: O(batches) accounting byte walk, no per-row work.
  for (const EmbeddingBatch& b : right_batches) {
    st->state_bytes += b.SerializedSize();
  }

  EmbeddingBatch builder(mp.flags, mp.props);
  auto flush = [&] {
    if (builder.num_rows() == 0) return;
    dst->push_back(std::move(builder));
    builder = EmbeddingBatch(mp.flags, mp.props);
  };
  const bool no_residual = mp.residual.empty();
  std::vector<EmbeddingBatch::MergePair> pairs;
  for (const EmbeddingBatch& lb : left_batches) {
    if (cancel.CheckCancelled()) break;
    const uint32_t active = lb.ActiveRows();
    for (uint32_t i = 0; i < active; ++i) {
      const uint32_t lrow = lb.ActiveRow(i);
      const Key probe = left_key(lb, lrow);
      table.ForEachMatch(probe, key_hash(probe), [&](const auto& ref) {
        const EmbeddingBatch& rb = right_batches[ref.first];
        const uint32_t rrow = ref.second;
        // Morphism first, straight off the source rows: on selective
        // joins most pairs die here without a single cell copied.
        if (!mp.morphism.PairSatisfies(lb, lrow, rb, rrow)) return;
        if (no_residual) {
          // No residual to check on the merged row: defer the copy and
          // bulk-gather all of this probe batch's survivors below.
          pairs.push_back({lrow, &rb, rrow});
          return;
        }
        // Speculative merge: lay the left and right slices side by side,
        // check the fused residual on the pending row, and either commit
        // or roll back — the batch analogue of build-Merge-then-drop in
        // the row FlatJoin.
        const EmbeddingBatch::RowMark mark = builder.Mark();
        builder.AppendRowCells(lb, lrow, 0);
        builder.AppendRowCells(rb, rrow, mp.left_id_columns);
        if (!RowPassesClauses(mp.residual, mp.merged_meta, builder,
                              builder.num_rows())) {
          builder.Rollback(mark);
          return;
        }
        builder.CommitRow();
        if (static_cast<int>(builder.num_rows()) >= mp.batch_size) flush();
      });
    }
    // Column-major merge of the survivors, chunked at the batch size so
    // output batches break exactly where the row-at-a-time path breaks.
    size_t done = 0;
    while (done < pairs.size()) {
      const size_t room =
          static_cast<size_t>(mp.batch_size) - builder.num_rows();
      const size_t take = std::min(room, pairs.size() - done);
      builder.AppendMergedRows(lb, mp.left_id_columns, pairs, done, take);
      done += take;
      if (static_cast<int>(builder.num_rows()) >= mp.batch_size) flush();
    }
    pairs.clear();
  }
  flush();
}

// Shared tail of the two join kernels: exchange (scatter / adopt /
// broadcast, matching HashJoin's strategies), then build+probe.
BatchSet ExchangeAndMerge(const BatchSet& left, const BatchSet& right,
                          const std::vector<int>& left_columns,
                          const std::vector<int>& right_columns,
                          bool id_join, const MergeParams& mp,
                          dfl::JoinStrategy strategy,
                          dfl::JoinShuffleHints hints, const char* label) {
  BatchDataset left_exchanged = left.data;
  BatchDataset right_exchanged = right.data;
  if (strategy == dfl::JoinStrategy::kRepartition) {
    left_exchanged =
        hints.left_prepartitioned
            ? AdoptBatches(left.data, KeyPlacer(id_join, left_columns), label)
            : ScatterBatches(left.data, FlagsOf(left.meta),
                             left.meta.property_column_count(),
                             KeyPlacer(id_join, left_columns), label);
    right_exchanged =
        hints.right_prepartitioned
            ? AdoptBatches(right.data, KeyPlacer(id_join, right_columns),
                           label)
            : ScatterBatches(right.data, FlagsOf(right.meta),
                             right.meta.property_column_count(),
                             KeyPlacer(id_join, right_columns), label);
  } else {
    // Broadcast: the left side stays in place, the right (build) side
    // replicates to every worker.
    right_exchanged = right.data.Replicate(label);
  }
  common::CancellationToken& cancel = left.data.context()->cancellation();
  auto data = left_exchanged.ZipPartitions<EmbeddingBatch>(
      right_exchanged,
      [&](int /*partition*/, const std::vector<EmbeddingBatch>& ls,
          const std::vector<EmbeddingBatch>& rs,
          std::vector<EmbeddingBatch>* dst, dfl::ZipPartitionStats* st) {
        if (id_join && left_columns.size() == 1) {
          // Single-column id join: probe directly on the raw u64 column.
          const int lc = left_columns[0];
          const int rc = right_columns[0];
          BuildProbeMerge<uint64_t>(
              ls, rs,
              [lc](const EmbeddingBatch& b, uint32_t row) {
                return b.IdAt(lc, row);
              },
              [rc](const EmbeddingBatch& b, uint32_t row) {
                return b.IdAt(rc, row);
              },
              mp, dst, st, cancel);
          return;
        }
        if (id_join && left_columns.size() == 2) {
          // Two-column id join (e.g. closing a triangle): packed u64
          // pair, no per-row key strings.
          const int lc0 = left_columns[0], lc1 = left_columns[1];
          const int rc0 = right_columns[0], rc1 = right_columns[1];
          BuildProbeMerge<std::pair<uint64_t, uint64_t>, U64PairHash>(
              ls, rs,
              [lc0, lc1](const EmbeddingBatch& b, uint32_t row) {
                return std::make_pair(b.IdAt(lc0, row), b.IdAt(lc1, row));
              },
              [rc0, rc1](const EmbeddingBatch& b, uint32_t row) {
                return std::make_pair(b.IdAt(rc0, row), b.IdAt(rc1, row));
              },
              mp, dst, st, cancel);
          return;
        }
        auto materialize = [id_join](const std::vector<int>& columns) {
          return [id_join, &columns](const EmbeddingBatch& b, uint32_t row) {
            std::string key;
            if (id_join) {
              AppendIdKey(b, row, columns, &key);
            } else {
              AppendValueKey(b, row, columns, &key);
            }
            return key;
          };
        };
        BuildProbeMerge<std::string>(ls, rs, materialize(left_columns),
                                     materialize(right_columns), mp, dst, st,
                                     cancel);
      },
      label);
  return {std::move(data), mp.merged_meta};
}

}  // namespace

BatchSet RowsToBatches(const EmbeddingSet& rows, int batch_size) {
  assert(batch_size > 0);
  std::vector<uint8_t> flags = FlagsOf(rows.meta);
  const int props = rows.meta.property_column_count();
  common::CancellationToken& cancel = rows.data.context()->cancellation();
  auto data = rows.data.MapPartition<EmbeddingBatch>(
      [flags = std::move(flags), props, batch_size, &cancel](
          int /*partition*/, const std::vector<Embedding>& src,
          std::vector<EmbeddingBatch>* out) {
        EmbeddingBatch builder(flags, props);
        for (const Embedding& e : src) {
          if (cancel.CheckCancelled()) break;
          builder.AppendRow(e);
          if (static_cast<int>(builder.num_rows()) >= batch_size) {
            out->push_back(std::move(builder));
            builder = EmbeddingBatch(flags, props);
          }
        }
        if (builder.num_rows() > 0) out->push_back(std::move(builder));
      },
      "RowsToBatches");
  return {std::move(data), rows.meta};
}

EmbeddingSet BatchesToRows(const BatchSet& batches) {
  auto data = batches.data.FlatMap<Embedding>(
      [](const EmbeddingBatch& b, std::vector<Embedding>* out) {
        const uint32_t active = b.ActiveRows();
        // No exact-size reserve here: `out` is the whole partition, and
        // growing it by one batch at a time would reallocate per batch.
        for (uint32_t i = 0; i < active; ++i) {
          out->push_back(b.RowAt(b.ActiveRow(i)));
        }
      },
      "BatchesToRows");
  return {std::move(data), batches.meta};
}

BatchSet ScanVerticesBatch(
    const std::vector<dataflow::Dataset<epgm::Vertex>>& vertices,
    const cypher::QueryVertex& query_vertex,
    const std::vector<cypher::CnfClause>& predicates,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual, int batch_size) {
  assert(batch_size > 0 && !vertices.empty());
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query_vertex.variable);
  std::vector<uint8_t> flags = FlagsOf(meta);
  const int props = meta.property_column_count();
  const dfl::ExecutionContextPtr& ctx = vertices.front().context();
  common::CancellationToken& cancel = ctx->cancellation();
  auto data = dfl::Dataset<epgm::Vertex>::MapPartitions<EmbeddingBatch>(
      ctx, vertices,
      [&](int /*partition*/,
          const std::vector<const std::vector<epgm::Vertex>*>& pieces,
          std::vector<EmbeddingBatch>* out) {
        EmbeddingBatch builder(flags, props);
        for (const std::vector<epgm::Vertex>* piece : pieces) {
          if (cancel.cancelled()) break;
          for (const epgm::Vertex& v : *piece) {
            if (cancel.CheckCancelled()) break;
            if (!query_vertex.MatchesLabel(v.label)) continue;
            if (!PassesElementPredicates(predicates, query_vertex.variable,
                                         v.properties)) {
              continue;
            }
            // Speculative append: push the row's cells, evaluate the
            // fused residual on the pending row, roll back on failure.
            const EmbeddingBatch::RowMark mark = builder.Mark();
            builder.PushId(0, v.id);
            for (const std::string& key : projected) {
              builder.PushProperty(v.properties.Get(key));
            }
            if (!RowPassesClauses(residual, meta, builder,
                                  builder.num_rows())) {
              builder.Rollback(mark);
              continue;
            }
            builder.CommitRow();
            if (static_cast<int>(builder.num_rows()) >= batch_size) {
              out->push_back(std::move(builder));
              builder = EmbeddingBatch(flags, props);
            }
          }
        }
        if (builder.num_rows() > 0) out->push_back(std::move(builder));
      },
      "SelectAndProjectVertices");
  return {std::move(data), meta};
}

BatchSet ScanEdgesBatch(
    const std::vector<dataflow::Dataset<epgm::Edge>>& edges,
    const cypher::QueryEdge& query_edge,
    const std::vector<cypher::CnfClause>& predicates,
    const MorphismSetting& semantics, bool self_loop,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual, int batch_size) {
  assert(!query_edge.IsVariableLength());
  assert(batch_size > 0 && !edges.empty());
  const bool drop_data_self_loops =
      !self_loop && semantics.vertex == MatchSemantics::kIsomorphism;
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query_edge.variable);
  const bool any_direction = query_edge.any_direction;
  std::vector<uint8_t> flags = FlagsOf(meta);
  const int props = meta.property_column_count();
  const dfl::ExecutionContextPtr& ctx = edges.front().context();
  common::CancellationToken& cancel = ctx->cancellation();
  auto data = dfl::Dataset<epgm::Edge>::MapPartitions<EmbeddingBatch>(
      ctx, edges,
      [&](int /*partition*/,
          const std::vector<const std::vector<epgm::Edge>*>& pieces,
          std::vector<EmbeddingBatch>* out) {
        EmbeddingBatch builder(flags, props);
        auto emit = [&](const epgm::Edge& edge, uint64_t source,
                        uint64_t target) {
          const EmbeddingBatch::RowMark mark = builder.Mark();
          int column = 0;
          builder.PushId(column++, source);
          builder.PushId(column++, edge.id);
          if (!self_loop) builder.PushId(column++, target);
          for (const std::string& key : projected) {
            builder.PushProperty(edge.properties.Get(key));
          }
          if (!RowPassesClauses(residual, meta, builder,
                                builder.num_rows())) {
            builder.Rollback(mark);
            return;
          }
          builder.CommitRow();
          if (static_cast<int>(builder.num_rows()) >= batch_size) {
            out->push_back(std::move(builder));
            builder = EmbeddingBatch(flags, props);
          }
        };
        for (const std::vector<epgm::Edge>* piece : pieces) {
          if (cancel.cancelled()) break;
          for (const epgm::Edge& edge : *piece) {
            if (cancel.CheckCancelled()) break;
            if (!query_edge.MatchesType(edge.label)) continue;
            if (self_loop && edge.source_id != edge.target_id) continue;
            if (drop_data_self_loops && edge.source_id == edge.target_id) {
              continue;
            }
            if (!PassesElementPredicates(predicates, query_edge.variable,
                                         edge.properties)) {
              continue;
            }
            emit(edge, edge.source_id, edge.target_id);
            // Undirected pattern: the edge also matches flipped (unless
            // it is a data self-loop, which would duplicate).
            if (any_direction && edge.source_id != edge.target_id) {
              emit(edge, edge.target_id, edge.source_id);
            }
          }
        }
        if (builder.num_rows() > 0) out->push_back(std::move(builder));
      },
      "SelectAndProjectEdges");
  return {std::move(data), meta};
}

BatchSet SelectBatches(const BatchSet& input,
                       const std::vector<cypher::CnfClause>& clauses) {
  const EmbeddingMetaData meta = input.meta;
  // The select-loop: no row moves — the survivors' indices become the
  // batch's selection vector over the shared column store.
  auto data = input.data.Map(
      [meta, clauses](const EmbeddingBatch& b) {
        std::vector<uint32_t> selected;
        const uint32_t active = b.ActiveRows();
        selected.reserve(active);
        for (uint32_t i = 0; i < active; ++i) {
          const uint32_t row = b.ActiveRow(i);
          if (RowPassesClauses(clauses, meta, b, row)) {
            selected.push_back(row);
          }
        }
        return b.WithSelection(std::move(selected));
      },
      "SelectEmbeddings");
  return {std::move(data), input.meta};
}

BatchSet JoinBatches(const BatchSet& left, const BatchSet& right,
                     const std::vector<int>& left_columns,
                     const std::vector<int>& right_columns,
                     const EmbeddingMetaData& merged_meta,
                     const MorphismSetting& semantics,
                     dataflow::JoinStrategy strategy,
                     const std::vector<cypher::CnfClause>& residual,
                     dataflow::JoinShuffleHints hints, int batch_size) {
  assert(left_columns.size() == right_columns.size());
  const MergeParams mp(merged_meta, left.meta.id_column_count(), semantics,
                       residual, batch_size);
  return ExchangeAndMerge(left, right, left_columns, right_columns,
                          /*id_join=*/true, mp, strategy, hints,
                          "JoinEmbeddings");
}

BatchSet ValueJoinBatches(const BatchSet& left, const BatchSet& right,
                          const std::vector<int>& left_key_columns,
                          const std::vector<int>& right_key_columns,
                          const EmbeddingMetaData& merged_meta,
                          const MorphismSetting& semantics,
                          dataflow::JoinStrategy strategy,
                          const std::vector<cypher::CnfClause>& residual,
                          dataflow::JoinShuffleHints hints, int batch_size) {
  assert(left_key_columns.size() == right_key_columns.size() &&
         !left_key_columns.empty());
  // Rows with NULL keys can never match (Cypher equality with NULL is
  // NULL); a selection pass masks them before the exchange — the batch
  // form of the row engine's pre-join prune Filters.
  auto prune = [](const BatchSet& side, const std::vector<int>& columns,
                  const char* label) {
    return side.data.Map(
        [columns](const EmbeddingBatch& b) {
          std::vector<uint32_t> selected;
          const uint32_t active = b.ActiveRows();
          selected.reserve(active);
          for (uint32_t i = 0; i < active; ++i) {
            const uint32_t row = b.ActiveRow(i);
            bool has_null = false;
            for (const int c : columns) {
              if (b.PropertyAt(c, row).is_null()) {
                has_null = true;
                break;
              }
            }
            if (!has_null) selected.push_back(row);
          }
          return b.WithSelection(std::move(selected));
        },
        label);
  };
  const BatchSet pruned_left{
      prune(left, left_key_columns, "ValueJoinPruneLeft"), left.meta};
  const BatchSet pruned_right{
      prune(right, right_key_columns, "ValueJoinPruneRight"), right.meta};
  const MergeParams mp(merged_meta, left.meta.id_column_count(), semantics,
                       residual, batch_size);
  return ExchangeAndMerge(pruned_left, pruned_right, left_key_columns,
                          right_key_columns, /*id_join=*/false, mp, strategy,
                          hints, "ValueJoinEmbeddings");
}

namespace {

// How a batch-engine frontier record reads its input row: in place, as
// (batch, row) into the input dataset, which outlives the expansion. The
// row's modelled wire size is taken once, when the frontier starts.
struct BatchRow {
  const EmbeddingBatch* batch = nullptr;
  uint32_t row = 0;
  uint32_t bytes = 0;  // RowSerializedSize(row)

  uint64_t IdAt(int column) const { return batch->IdAt(column, row); }
  bool ContainsIdAt(uint64_t id, const std::vector<int>& columns) const {
    for (const int c : columns) {
      if (batch->IdAt(c, row) == id) return true;
    }
    return false;
  }
  bool PathContainsEdge(uint64_t id,
                        const std::vector<int>& path_columns) const {
    bool found = false;
    for (const int c : path_columns) {
      batch->ForEachPathEdge(c, row,
                             [&](uint64_t edge) { found |= edge == id; });
    }
    return found;
  }
  size_t SerializedSize() const { return bytes; }
};

// One partition's output: finished batches and the builder the next
// completed path lands in, which carries over from one hop to the next.
struct BatchSink {
  std::vector<EmbeddingBatch> batches;
  EmbeddingBatch builder;
  uint64_t rows = 0;
};

}  // namespace

BatchSet ExpandBatches(const BatchSet& input, const EdgeBuildSource& edges,
                       int start_column, int bound_end_column,
                       const EmbeddingMetaData& result_meta, int lower_bound,
                       int upper_bound, bool reverse,
                       const MorphismSetting& semantics,
                       const std::vector<cypher::CnfClause>& residual,
                       int batch_size) {
  assert(start_column >= 0 && "expansion start must be bound");
  assert(batch_size > 0);
  using Record = expand_loop::FrontierRecord<BatchRow>;
  const bool end_bound = bound_end_column >= 0;
  const expand_loop::HopParams params{
      .start_column = start_column,
      .bound_end_column = bound_end_column,
      .lower_bound = lower_bound,
      .upper_bound = upper_bound,
      .reverse = reverse,
      .semantics = semantics,
      .base_edge_columns = input.meta.EdgeColumns(),
      .base_path_columns = input.meta.PathColumns()};

  // Initial frontier: every active input row positioned at its start
  // binding with an empty path. This one stage stands for the
  // BatchesToRows conversion and the ExpandInit map it fed, and the
  // model still charges both.
  dfl::Dataset<Record> frontier = input.data.FlatMap<Record>(
      [start_column](const EmbeddingBatch& b, std::vector<Record>* out) {
        const uint32_t active = b.ActiveRows();
        for (uint32_t i = 0; i < active; ++i) {
          Record r;
          const uint32_t row = b.ActiveRow(i);
          r.row = BatchRow{&b, row,
                           static_cast<uint32_t>(b.RowSerializedSize(row))};
          r.end = b.IdAt(start_column, row);
          out->push_back(r);
        }
      },
      "BatchesToRows");
  const int p = frontier.num_partitions();
  std::vector<uint64_t> frontier_rows(static_cast<size_t>(p), 0);
  for (int part = 0; part < p; ++part) {
    frontier_rows[static_cast<size_t>(part)] = frontier.partition(part).size();
  }
  frontier.ChargeStage("ExpandInit", frontier_rows, frontier_rows);

  // The completed row: the input row's cells, then the path column and
  // (unless the end is bound) the end vertex column, pushed as a pending
  // row that the morphism and the fused residual check before it commits.
  const std::vector<uint8_t> flags = FlagsOf(result_meta);
  const int props = result_meta.property_column_count();
  const int path_column = input.meta.id_column_count();
  std::vector<BatchSink> sinks(static_cast<size_t>(p));
  for (BatchSink& sink : sinks) sink.builder = EmbeddingBatch(flags, props);
  const MorphismPlan morphism(result_meta, semantics);
  expand_loop::RunHops(
      std::move(frontier), edges, params,
      [&](int part, const Record& r,
          const std::vector<uint64_t>& via) -> uint64_t {
        BatchSink& sink = sinks[static_cast<size_t>(part)];
        EmbeddingBatch& builder = sink.builder;
        const EmbeddingBatch::RowMark mark = builder.Mark();
        builder.AppendRowCells(*r.row.batch, r.row.row, 0);
        builder.PushPath(path_column, via);
        if (!end_bound) builder.PushId(path_column + 1, r.end);
        const uint32_t pending = builder.num_rows();
        if (!morphism.Satisfies(builder, pending) ||
            !RowPassesClauses(residual, result_meta, builder, pending)) {
          builder.Rollback(mark);
          return 0;
        }
        builder.CommitRow();
        ++sink.rows;
        if (static_cast<int>(builder.num_rows()) >= batch_size) {
          sink.batches.push_back(std::move(builder));
          builder = EmbeddingBatch(flags, props);
        }
        return 1;
      });

  // Close every partition's last batch, and charge the RowsToBatches
  // stage that re-batched the emitted rows: rows in, batches out.
  auto out = std::make_shared<BatchDataset::Partitions>(static_cast<size_t>(p));
  std::vector<uint64_t> rows(static_cast<size_t>(p), 0);
  std::vector<uint64_t> batches(static_cast<size_t>(p), 0);
  for (int part = 0; part < p; ++part) {
    BatchSink& sink = sinks[static_cast<size_t>(part)];
    if (sink.builder.num_rows() > 0) {
      sink.batches.push_back(std::move(sink.builder));
    }
    rows[static_cast<size_t>(part)] = sink.rows;
    batches[static_cast<size_t>(part)] = sink.batches.size();
    (*out)[static_cast<size_t>(part)] = std::move(sink.batches);
  }
  BatchDataset data(input.data.context(), std::move(out));
  data.ChargeStage("RowsToBatches", rows, batches);
  return {std::move(data), result_meta};
}

}  // namespace gradoop::query
