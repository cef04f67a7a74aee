#ifndef GRADOOP_QUERY_EXPAND_LOOP_H_
#define GRADOOP_QUERY_EXPAND_LOOP_H_

// The hop loop of variable-length Expand (§3.1's bulk iteration), written
// once for both engines. An engine supplies two things: how a frontier
// record reads its input row (`Row`: an Embedding under the row engine,
// a (batch, row) pair under the batch engine, both read in place) and
// where a completed path is emitted (its per-partition sinks). Only the
// path state iterates; the input row is never copied until emission.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "dataflow/dataset.h"
#include "query/match_semantics.h"
#include "query/operators.h"

namespace gradoop::query::expand_loop {

// One in-flight path. Instead of copying the input row and the whole path
// every hop, a record links to the record it grew from: the path is the
// chain of `edge`/`end` pairs back to the hop-0 record, at most
// `upper_bound` long. `Row` provides IdAt(column), ContainsIdAt(id,
// columns), PathContainsEdge(id, path_columns) and SerializedSize().
template <typename Row>
struct FrontierRecord {
  Row row;                                 // the input row, read in place
  const FrontierRecord* parent = nullptr;  // one hop shorter; null at hop 0
  uint64_t edge = 0;                       // edge walked by the last hop
  uint64_t end = 0;                        // current path end vertex
  uint32_t hops = 0;

  // Modelled wire size: the row-based working record this stands for —
  // the input embedding, the via list (u32 length + 8 bytes per id of
  // its 2·hops-1 alternating edge/vertex ids) and the 8-byte end vertex.
  size_t SerializedSize() const {
    const size_t via = hops == 0 ? 0 : 2 * hops - 1;
    return row.SerializedSize() + sizeof(uint32_t) + 8 * via + 8;
  }
};

// What the hop loop needs of the operator: its columns, bounds and
// morphism setting, read off the compiled input layout.
struct HopParams {
  int start_column = -1;
  int bound_end_column = -1;  // >= 0 closes a cycle at that column
  int lower_bound = 1;
  int upper_bound = 1;
  bool reverse = false;
  MorphismSetting semantics;
  std::vector<int> base_edge_columns;  // edge columns of the input layout
  std::vector<int> base_path_columns;  // path columns of the input layout
};

// Writes the alternating edge/vertex ids walked from the start to `r.end`
// (exclusive) into `via`, in walk order (reversed for a reverse walk, so
// that the path column always reads from the path's source).
template <typename Row>
void ViaOf(const FrontierRecord<Row>& r, bool reverse,
           std::vector<uint64_t>* via) {
  via->assign(r.hops == 0 ? 0 : 2 * r.hops - 1, 0);
  // cancellation: parent chain, at most upper_bound records long.
  for (const FrontierRecord<Row>* n = &r; n->hops > 0; n = n->parent) {
    const size_t at = 2 * (n->hops - 1);
    (*via)[at] = n->edge;
    if (n != &r) (*via)[at + 1] = n->end;
  }
  if (reverse) std::reverse(via->begin(), via->end());
}

// Runs the iteration from `frontier` (every input row at hop 0, its end
// at the start binding). For every path of lower..upper hops whose end
// matches a bound end, calls `emit(partition, record, via)`, which
// appends the completed row to that partition's sink and returns how many
// rows it emitted (0 when the morphism or a fused residual rejects it).
// Each hop is one ProbeJoin of the frontier against the edge side, which
// `edges` supplies on the first hop that has a frontier to probe with;
// the probe charges the model one edge exchange and one build per hop, as
// a join per superstep would. Emissions of hop k are one FlatMap stage,
// labelled ExpandEmitZero for k = 0 and ExpandEmit after.
template <typename Row, typename Emit>
void RunHops(dataflow::Dataset<FrontierRecord<Row>> frontier,
             const EdgeBuildSource& edges, const HopParams& params,
             Emit emit) {
  using Record = FrontierRecord<Row>;
  const bool end_bound = params.bound_end_column >= 0;
  const bool vertex_iso =
      params.semantics.vertex == MatchSemantics::kIsomorphism;
  const bool edge_iso = params.semantics.edge == MatchSemantics::kIsomorphism;
  const int bound_end_column = params.bound_end_column;
  const bool reverse = params.reverse;

  // One via scratch list per partition: emission runs partition-parallel.
  std::vector<std::vector<uint64_t>> via(
      static_cast<size_t>(frontier.num_partitions()));
  const auto emit_hop = [&](const dataflow::Dataset<Record>& completed,
                            const char* label) {
    completed.FlatMapInto(
        [&](int part, const Record& r) -> uint64_t {
          if (end_bound && r.row.IdAt(bound_end_column) != r.end) return 0;
          std::vector<uint64_t>& v = via[static_cast<size_t>(part)];
          ViaOf(r, reverse, &v);
          return emit(part, r, v);
        },
        label);
  };

  if (params.lower_bound == 0) emit_hop(frontier, "ExpandEmitZero");

  std::shared_ptr<const epgm::EdgeBuildSide> edge_table;
  // Every hop's frontier as it entered its probe: the exchange routes
  // pointers to these records, so the next frontier's parent links point
  // into them.
  std::vector<dataflow::Dataset<Record>> probed;

  common::CancellationToken& cancel = frontier.context()->cancellation();
  for (int k = 1; k <= params.upper_bound; ++k) {
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
      edge_table = edges();
      if (cancel.cancelled()) break;
    }

    // 1-hop expansion: probe the edge table with the frontier on the
    // current end vertex, enforcing morphism constraints on the grown path.
    probed.push_back(frontier);
    frontier = frontier.template ProbeJoin<Record>(
        *edge_table, [](const Record& r) { return r.end; },
        [&](const Record& s, const epgm::Edge& e, std::vector<Record>* out) {
          const uint64_t new_end = reverse ? e.source_id : e.target_id;
          if (edge_iso) {
            // The new edge must not repeat within the path nor collide
            // with edges already bound in the base embedding.
            // cancellation: parent chain, at most upper_bound records.
            for (const Record* n = &s; n->hops > 0; n = n->parent) {
              if (n->edge == e.id) return;
            }
            if (s.row.ContainsIdAt(e.id, params.base_edge_columns)) return;
            if (s.row.PathContainsEdge(e.id, params.base_path_columns)) {
              return;
            }
          }
          if (vertex_iso) {
            // Path-local distinctness: the new end must not revisit an
            // interior vertex, and must not return to the path's start —
            // unless it is the bound end binding (cycle queries where the
            // path's endpoints are the same query variable). Distinctness
            // of the end against other vertex *columns* is enforced at
            // emission by the MorphismPlan; path interiors are free, as
            // they bind no query variable.
            if (new_end == s.end) return;  // data self-loop revisits the end
            // cancellation: parent chain, at most upper_bound records.
            for (const Record* n = s.parent; n != nullptr && n->hops > 0;
                 n = n->parent) {
              if (n->end == new_end) return;
            }
            const bool is_bound_end =
                end_bound && s.row.IdAt(bound_end_column) == new_end;
            if (!is_bound_end && new_end == s.row.IdAt(params.start_column)) {
              return;
            }
          }
          Record next;
          next.row = s.row;
          next.parent = &s;
          next.edge = e.id;
          next.end = new_end;
          next.hops = s.hops + 1;
          out->push_back(next);
        },
        "ExpandStep");

    if (k >= params.lower_bound) emit_hop(frontier, "ExpandEmit");
  }
}

}  // namespace gradoop::query::expand_loop

#endif  // GRADOOP_QUERY_EXPAND_LOOP_H_
