#include "query/operators.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "query/expand_loop.h"
#include "query/morphism.h"

namespace gradoop::query {

namespace dfl = ::gradoop::dataflow;

namespace {

bool EvaluateClauses(const std::vector<cypher::CnfClause>& clauses,
                     const cypher::ValueResolver& resolver) {
  for (const cypher::CnfClause& clause : clauses) {
    if (!cypher::EvaluateClause(clause, resolver)) return false;
  }
  return true;
}

// Whether a raw element passes a leaf scan's element predicates; only
// the scanned variable's properties are in scope. The resolver refers
// to the variable and the element, which outlive it, and is not built at
// all for an unfiltered scan.
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

// Residual clauses of a fused filter, evaluated on the produced embedding.
bool PassesResidual(const std::vector<cypher::CnfClause>& residual,
                    const EmbeddingMetaData& meta, const Embedding& e) {
  if (residual.empty()) return true;
  return EvaluateClauses(residual, meta.MakeResolver(e));
}

// FlatMap over the partition-wise concatenation of `inputs` (see
// Dataset::MapPartitions): fn(record, &out) for every record of every
// input, partition by partition, in the order Union would lay them out.
template <typename U, typename T, typename F>
dfl::Dataset<U> FlatMapConcatenated(const std::vector<dfl::Dataset<T>>& inputs,
                                    F fn, const char* label) {
  assert(!inputs.empty());
  const dfl::ExecutionContextPtr& ctx = inputs.front().context();
  common::CancellationToken& cancel = ctx->cancellation();
  return dfl::Dataset<T>::template MapPartitions<U>(
      ctx, inputs,
      [&](int /*partition*/, const std::vector<const std::vector<T>*>& pieces,
          std::vector<U>* out) {
        for (const std::vector<T>* piece : pieces) {
          if (cancel.cancelled()) break;
          for (const T& rec : *piece) {
            if (cancel.CheckCancelled()) break;
            fn(rec, out);
          }
        }
      },
      label);
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

}  // namespace

EmbeddingSet SelectAndProjectVertices(
    const std::vector<dataflow::Dataset<epgm::Vertex>>& vertices,
    const cypher::QueryVertex& query_vertex,
    const std::vector<cypher::CnfClause>& predicates,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual) {
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query_vertex.variable);
  auto data = FlatMapConcatenated<Embedding>(
      vertices,
      [query_vertex, predicates, projected, meta, residual](
          const epgm::Vertex& v, std::vector<Embedding>* out) {
        if (!query_vertex.MatchesLabel(v.label)) return;
        if (!PassesElementPredicates(predicates, query_vertex.variable,
                                     v.properties)) {
          return;
        }
        Embedding e;
        e.AppendId(v.id);
        for (const std::string& key : projected) {
          e.AppendProperty(v.properties.Get(key));
        }
        if (!PassesResidual(residual, meta, e)) return;
        out->push_back(std::move(e));
      },
      "SelectAndProjectVertices");
  return {std::move(data), meta};
}

EmbeddingSet SelectAndProjectEdges(
    const std::vector<dataflow::Dataset<epgm::Edge>>& edges,
    const cypher::QueryEdge& query_edge,
    const std::vector<cypher::CnfClause>& predicates,
    const MorphismSetting& semantics, bool self_loop,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual) {
  assert(!query_edge.IsVariableLength());
  // Under vertex isomorphism a data self-loop cannot bind two distinct
  // query vertices; the scan enforces it so that scan-only plans are
  // already morphism-correct.
  const bool drop_data_self_loops =
      !self_loop && semantics.vertex == MatchSemantics::kIsomorphism;
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query_edge.variable);
  const bool any_direction = query_edge.any_direction;
  auto data = FlatMapConcatenated<Embedding>(
      edges,
      [query_edge, predicates, projected, self_loop, any_direction,
       drop_data_self_loops, meta, residual](const epgm::Edge& edge,
                                             std::vector<Embedding>* out) {
        if (!query_edge.MatchesType(edge.label)) return;
        if (self_loop && edge.source_id != edge.target_id) return;
        if (drop_data_self_loops && edge.source_id == edge.target_id) return;
        if (!PassesElementPredicates(predicates, query_edge.variable,
                                     edge.properties)) {
          return;
        }
        auto emit = [&](uint64_t src, uint64_t dst) {
          Embedding e;
          e.AppendId(src);
          e.AppendId(edge.id);
          if (!self_loop) e.AppendId(dst);
          for (const std::string& key : projected) {
            e.AppendProperty(edge.properties.Get(key));
          }
          if (!PassesResidual(residual, meta, e)) return;
          out->push_back(std::move(e));
        };
        emit(edge.source_id, edge.target_id);
        // Undirected pattern: the edge also matches flipped (unless it is
        // a data self-loop, which would duplicate).
        if (any_direction && edge.source_id != edge.target_id) {
          emit(edge.target_id, edge.source_id);
        }
      },
      "SelectAndProjectEdges");
  return {std::move(data), meta};
}

bool SatisfiesMorphism(const Embedding& embedding,
                       const EmbeddingMetaData& meta,
                       const MorphismSetting& semantics) {
  return MorphismPlan(meta, semantics).Satisfies(embedding);
}

EmbeddingSet JoinEmbeddings(const EmbeddingSet& left,
                            const EmbeddingSet& right,
                            const std::vector<int>& left_columns,
                            const std::vector<int>& right_columns,
                            const EmbeddingMetaData& merged_meta,
                            const MorphismSetting& semantics,
                            dataflow::JoinStrategy strategy,
                            const std::vector<cypher::CnfClause>& residual,
                            dataflow::JoinShuffleHints hints) {
  assert(left_columns.size() == right_columns.size());
  // The keys are views into the records and these column lists, which
  // outlive the join; the morphism check runs before the merge.
  const MorphismPlan morphism(merged_meta, semantics);
  auto data = left.data.HashJoin<Embedding>(
      right.data,
      [&left_columns](const Embedding& e) {
        return IdJoinKey{&e, &left_columns};
      },
      [&right_columns](const Embedding& e) {
        return IdJoinKey{&e, &right_columns};
      },
      [&](const Embedding& l, const Embedding& r,
          std::vector<Embedding>* out) {
        if (!morphism.PairSatisfies(l, r)) return;
        Embedding merged = Embedding::Merge(l, r);
        if (!PassesResidual(residual, merged_meta, merged)) return;
        out->push_back(std::move(merged));
      },
      strategy, "JoinEmbeddings", hints);
  return {std::move(data), merged_meta};
}

namespace {

// Value-join key: concatenated encodings of the key properties, or
// nullopt when any key property is NULL (such rows never join).
std::optional<std::string> ValueJoinKeyOf(const Embedding& embedding,
                                          const std::vector<int>& columns) {
  std::string out;
  for (int c : columns) {
    const epgm::PropertyValue value = embedding.PropertyAt(c);
    if (value.is_null()) return std::nullopt;
    // Normalize numerics so 2 and 2.0 join (Cypher equality semantics).
    if (value.is_numeric()) {
      epgm::PropertyValue(value.AsDouble()).EncodeTo(&out);
    } else {
      value.EncodeTo(&out);
    }
  }
  return out;
}

}  // namespace

EmbeddingSet ValueJoinEmbeddings(const EmbeddingSet& left,
                                 const EmbeddingSet& right,
                                 const std::vector<int>& left_key_columns,
                                 const std::vector<int>& right_key_columns,
                                 const EmbeddingMetaData& merged_meta,
                                 const MorphismSetting& semantics,
                                 dataflow::JoinStrategy strategy,
                                 const std::vector<cypher::CnfClause>&
                                     residual,
                                 dataflow::JoinShuffleHints hints) {
  assert(left_key_columns.size() == right_key_columns.size() &&
         !left_key_columns.empty());
  // Rows with NULL keys are dropped before the join (they can never
  // match), keeping the join key total.
  auto left_data = left.data.Filter(
      [left_key_columns](const Embedding& e) {
        return ValueJoinKeyOf(e, left_key_columns).has_value();
      },
      "ValueJoinPruneLeft");
  auto right_data = right.data.Filter(
      [right_key_columns](const Embedding& e) {
        return ValueJoinKeyOf(e, right_key_columns).has_value();
      },
      "ValueJoinPruneRight");
  const MorphismPlan morphism(merged_meta, semantics);
  auto data = left_data.HashJoin<Embedding>(
      right_data,
      [left_key_columns](const Embedding& e) {
        return *ValueJoinKeyOf(e, left_key_columns);
      },
      [right_key_columns](const Embedding& e) {
        return *ValueJoinKeyOf(e, right_key_columns);
      },
      [&](const Embedding& l, const Embedding& r,
          std::vector<Embedding>* out) {
        if (!morphism.PairSatisfies(l, r)) return;
        Embedding merged = Embedding::Merge(l, r);
        if (!PassesResidual(residual, merged_meta, merged)) return;
        out->push_back(std::move(merged));
      },
      strategy, "ValueJoinEmbeddings", hints);
  return {std::move(data), merged_meta};
}

EmbeddingSet SelectEmbeddings(const EmbeddingSet& input,
                              const std::vector<cypher::CnfClause>& clauses) {
  const EmbeddingMetaData meta = input.meta;
  auto data = input.data.Filter(
      [meta, clauses](const Embedding& e) {
        return EvaluateClauses(clauses, meta.MakeResolver(e));
      },
      "SelectEmbeddings");
  return {std::move(data), input.meta};
}

namespace {

// How a row-engine frontier record reads its input row: in place, through
// a pointer into the input dataset, which outlives the expansion.
struct EmbeddingRow {
  const Embedding* row = nullptr;

  uint64_t IdAt(int column) const { return row->IdAt(column); }
  bool ContainsIdAt(uint64_t id, const std::vector<int>& columns) const {
    return row->ContainsIdAt(id, columns);
  }
  bool PathContainsEdge(uint64_t id,
                        const std::vector<int>& path_columns) const {
    return row->PathContains(id, path_columns, /*edges=*/true);
  }
  size_t SerializedSize() const { return row->SerializedSize(); }
};

}  // namespace

EmbeddingSet ExpandEmbeddings(const EmbeddingSet& input,
                              const EdgeBuildSource& edges, int start_column,
                              int bound_end_column,
                              const EmbeddingMetaData& result_meta,
                              int lower_bound, int upper_bound, bool reverse,
                              const MorphismSetting& semantics,
                              const std::vector<cypher::CnfClause>& residual) {
  assert(start_column >= 0 && "expansion start must be bound");
  using Record = expand_loop::FrontierRecord<EmbeddingRow>;
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

  // Initial frontier: every input embedding positioned at its start
  // binding with an empty path.
  dataflow::Dataset<Record> frontier = input.data.Map(
      [start_column](const Embedding& e) {
        Record r;
        r.row = EmbeddingRow{&e};
        r.end = e.IdAt(start_column);
        return r;
      },
      "ExpandInit");

  // Completed paths, appended per partition in hop order: the layout the
  // union of the per-hop emissions has.
  auto out = std::make_shared<dataflow::Dataset<Embedding>::Partitions>(
      input.data.num_partitions());
  const MorphismPlan morphism(result_meta, semantics);
  const size_t tail_bytes = end_bound ? 0 : Embedding::kEntryWidth;
  expand_loop::RunHops(
      std::move(frontier), edges, params,
      [&](int part, const Record& r,
          const std::vector<uint64_t>& via) -> uint64_t {
        // The input row copied once into a buffer sized for the path
        // column and (unless the end is bound) the end vertex column.
        Embedding result = r.row.row->CopyWithRoom(
            Embedding::kEntryWidth + sizeof(uint32_t) + 8 * via.size() +
            tail_bytes);
        result.AppendPath(via);
        if (!end_bound) result.AppendId(r.end);
        if (!morphism.Satisfies(result)) return 0;
        if (!PassesResidual(residual, result_meta, result)) return 0;
        (*out)[static_cast<size_t>(part)].push_back(std::move(result));
        return 1;
      });
  return {dataflow::Dataset<Embedding>(input.data.context(), std::move(out)),
          result_meta};
}

}  // namespace gradoop::query
