#include "query/operators.h"

#include <algorithm>
#include <cassert>
#include <optional>

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

// One in-flight path of a variable-length expansion (§3.1's bulk-iteration
// working set). Instead of copying the input embedding and the whole path
// every hop, a record links to the record it grew from: the path is the
// chain of `edge`/`end` pairs back to the hop-0 record, at most
// `upper_bound` long. Rows are materialised only on emission.
struct FrontierRecord {
  const Embedding* row = nullptr;          // the input embedding
  const FrontierRecord* parent = nullptr;  // one hop shorter; null at hop 0
  uint64_t edge = 0;                       // edge walked by the last hop
  uint64_t end = 0;                        // current path end vertex
  uint32_t hops = 0;

  // Modelled wire size: the row-based working record this stands for —
  // the input embedding, the via list (u32 length + 8 bytes per id of
  // its 2·hops-1 alternating edge/vertex ids) and the 8-byte end vertex.
  size_t SerializedSize() const {
    const size_t via = hops == 0 ? 0 : 2 * hops - 1;
    return row->SerializedSize() + sizeof(uint32_t) + 8 * via + 8;
  }
};

// The alternating edge/vertex ids walked from the start to `r.end`
// (exclusive), in walk order.
std::vector<uint64_t> ViaOf(const FrontierRecord& r) {
  std::vector<uint64_t> via(r.hops == 0 ? 0 : 2 * r.hops - 1);
  // cancellation: parent chain, at most upper_bound records long.
  for (const FrontierRecord* n = &r; n->hops > 0; n = n->parent) {
    const size_t at = 2 * (n->hops - 1);
    via[at] = n->edge;
    if (n != &r) via[at + 1] = n->end;
  }
  return via;
}

}  // namespace

EmbeddingSet ExpandEmbeddings(const EmbeddingSet& input,
                              const dataflow::Dataset<epgm::Edge>& edges,
                              int start_column, int bound_end_column,
                              const EmbeddingMetaData& result_meta,
                              int lower_bound, int upper_bound, bool reverse,
                              const MorphismSetting& semantics,
                              const std::vector<cypher::CnfClause>& residual) {
  assert(start_column >= 0 && "expansion start must be bound");
  const bool end_bound = bound_end_column >= 0;

  // Columns of the *input* layout, read off the input's compiled meta
  // (the result meta additionally holds the fresh path/end columns).
  const std::vector<int> base_edge_columns = input.meta.EdgeColumns();
  const std::vector<int> base_path_columns = input.meta.PathColumns();
  const bool vertex_iso = semantics.vertex == MatchSemantics::kIsomorphism;
  const bool edge_iso = semantics.edge == MatchSemantics::kIsomorphism;

  // Materialises the embedding of a completed path of k >= 0 hops: the
  // input row copied once into a buffer sized for the path column and
  // (unless the end is bound) the end vertex column.
  const MorphismPlan morphism(result_meta, semantics);
  auto emit = [=, &morphism](const FrontierRecord& r,
                             std::vector<Embedding>* out) {
    if (end_bound && r.row->IdAt(bound_end_column) != r.end) return;
    std::vector<uint64_t> via = ViaOf(r);
    if (reverse) std::reverse(via.begin(), via.end());
    Embedding result = r.row->CopyWithRoom(
        Embedding::kEntryWidth + sizeof(uint32_t) + 8 * via.size() +
        (end_bound ? 0 : Embedding::kEntryWidth));
    result.AppendPath(via);
    if (!end_bound) result.AppendId(r.end);
    if (!morphism.Satisfies(result)) return;
    if (!PassesResidual(residual, result_meta, result)) return;
    out->push_back(std::move(result));
  };

  // Initial frontier: every input embedding positioned at its start
  // binding with an empty path. The records point into `input`, which
  // outlives the call.
  dataflow::Dataset<FrontierRecord> frontier = input.data.Map(
      [start_column](const Embedding& e) {
        FrontierRecord r;
        r.row = &e;
        r.end = e.IdAt(start_column);
        return r;
      },
      "ExpandInit");

  std::vector<dataflow::Dataset<Embedding>> emitted;

  if (lower_bound == 0) {
    emitted.push_back(frontier.FlatMap<Embedding>(emit, "ExpandEmitZero"));
  }

  // The edge side is loop-invariant: it is exchanged on the join key and
  // hashed once, on the first hop that has a frontier to probe with. Each
  // hop's probe still charges the model one edge exchange and one build,
  // exactly as a fresh per-hop HashJoin would.
  const auto edge_key = [reverse](const epgm::Edge& e) {
    return reverse ? e.target_id : e.source_id;
  };
  std::optional<dataflow::JoinBuildSide<epgm::Edge, uint64_t>> edge_table;
  // Every hop's frontier as it entered its probe: the exchange routes
  // pointers to these records, so the next frontier's parent links point
  // into them.
  std::vector<dataflow::Dataset<FrontierRecord>> probed;

  common::CancellationToken& cancel = input.data.context()->cancellation();
  for (int k = 1; k <= upper_bound; ++k) {
    // Each hop runs a full join stage, so one boundary check per hop
    // bounds the loop's cancel latency to one stage.
    if (cancel.CancelledOrExpired()) break;
    uint64_t frontier_size = 0;
    // cancellation: O(partitions) size walk, no per-record work.
    for (int p = 0; p < frontier.num_partitions(); ++p) {
      frontier_size += frontier.partition(p).size();
    }
    if (frontier_size == 0) break;  // no more valid paths
    if (!edge_table) {
      edge_table = edges.PrepareBuild(
          edge_key, dataflow::JoinStrategy::kRepartition, "ExpandStep");
    }

    // 1-hop expansion: probe the edge table with the frontier on the
    // current end vertex, enforcing morphism constraints on the grown path.
    probed.push_back(frontier);
    frontier = frontier.ProbeJoin<FrontierRecord>(
        *edge_table, [](const FrontierRecord& r) { return r.end; },
        [=](const FrontierRecord& s, const epgm::Edge& e,
            std::vector<FrontierRecord>* out) {
          const uint64_t new_end = reverse ? e.source_id : e.target_id;
          if (edge_iso) {
            // The new edge must not repeat within the path nor collide
            // with edges already bound in the base embedding.
            // cancellation: parent chain, at most upper_bound records.
            for (const FrontierRecord* n = &s; n->hops > 0; n = n->parent) {
              if (n->edge == e.id) return;
            }
            if (s.row->ContainsIdAt(e.id, base_edge_columns)) return;
            if (s.row->PathContains(e.id, base_path_columns, true)) return;
          }
          if (vertex_iso) {
            // Path-local distinctness: the new end must not revisit an
            // interior vertex, and must not return to the path's start —
            // unless it is the bound end binding (cycle queries where the
            // path's endpoints are the same query variable). Distinctness
            // of the end against other vertex *columns* is enforced at
            // emission by SatisfiesMorphism; path interiors are free, as
            // they bind no query variable.
            if (new_end == s.end) return;  // data self-loop revisits the end
            // cancellation: parent chain, at most upper_bound records.
            for (const FrontierRecord* n = s.parent;
                 n != nullptr && n->hops > 0; n = n->parent) {
              if (n->end == new_end) return;
            }
            const bool is_bound_end =
                end_bound && s.row->IdAt(bound_end_column) == new_end;
            if (!is_bound_end && new_end == s.row->IdAt(start_column)) {
              return;
            }
          }
          FrontierRecord next;
          next.row = s.row;
          next.parent = &s;
          next.edge = e.id;
          next.end = new_end;
          next.hops = s.hops + 1;
          out->push_back(next);
        },
        "ExpandStep");

    if (k >= lower_bound) {
      emitted.push_back(frontier.FlatMap<Embedding>(emit, "ExpandEmit"));
    }
  }
  // One pass: each hop's emissions are moved, not copied, into place.
  return {dataflow::Dataset<Embedding>::Concat(input.data.context(),
                                               std::move(emitted)),
          result_meta};
}

}  // namespace gradoop::query
