#ifndef GRADOOP_QUERY_OPERATORS_H_
#define GRADOOP_QUERY_OPERATORS_H_

#include <string>
#include <vector>

#include "cypher/query_graph.h"
#include "dataflow/dataset.h"
#include "epgm/elements.h"
#include "query/embedding.h"
#include "query/embedding_meta_data.h"
#include "query/match_semantics.h"

namespace gradoop::query {

// A distributed set of (partial) embeddings together with the meta data
// describing its columns. Every physical query operator consumes and
// produces this pair (§3.1).
struct EmbeddingSet {
  dataflow::Dataset<Embedding> data;
  EmbeddingMetaData meta;
};

// The operator kernels below execute against column layouts resolved
// ahead of time by exec::PlanCompiler — they never derive meta data
// themselves. `residual` carries cross-variable clauses a fused filter
// pushed into the operator; they are evaluated on each produced embedding
// via the output meta's resolver before it is emitted.

// SelectAndProjectVertices: filters `vertices` by the query vertex's label
// alternation and its element-centric predicates, projects the properties
// listed in `meta` and transforms each survivor into a one-column
// embedding. Executed as a single FlatMap (Select -> Project -> Transform
// fusion).
EmbeddingSet SelectAndProjectVertices(
    const dataflow::Dataset<epgm::Vertex>& vertices,
    const cypher::QueryVertex& query_vertex,
    const std::vector<cypher::CnfClause>& predicates,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual = {});

// SelectAndProjectEdges: same for a fixed-length query edge; emits
// three-column embeddings [source, edge, target] (plus projected edge
// properties). When `self_loop` is set (the query edge's source variable
// equals its target variable), only edges with source == target survive
// and the embedding carries two columns.
EmbeddingSet SelectAndProjectEdges(
    const dataflow::Dataset<epgm::Edge>& edges,
    const cypher::QueryEdge& query_edge,
    const std::vector<cypher::CnfClause>& predicates,
    const MorphismSetting& semantics, bool self_loop,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual = {});

// Checks the global morphism constraints on a merged embedding: under
// vertex isomorphism all vertex bindings (distinct query variables) are
// pairwise distinct; under edge isomorphism all edge bindings including
// the edges inside variable-length paths are pairwise distinct.
bool SatisfiesMorphism(const Embedding& embedding,
                       const EmbeddingMetaData& meta,
                       const MorphismSetting& semantics);

// JoinEmbeddings: equi-join of two embedding sets on the id columns
// `left_columns[i]` == `right_columns[i]`, implemented as a FlatJoin —
// the merged embedding is emitted only if the morphism constraints hold
// (§3.1). `merged_meta` must be EmbeddingMetaData::Merge of the inputs'
// metas, resolved at compile time.
// `hints` marks sides the partitioning analysis proved co-partitioned on
// the join key; those sides skip the repartition shuffle (audited under
// GRADOOP_AUDIT_PARTITIONING).
EmbeddingSet JoinEmbeddings(const EmbeddingSet& left,
                            const EmbeddingSet& right,
                            const std::vector<int>& left_columns,
                            const std::vector<int>& right_columns,
                            const EmbeddingMetaData& merged_meta,
                            const MorphismSetting& semantics,
                            dataflow::JoinStrategy strategy =
                                dataflow::JoinStrategy::kRepartition,
                            const std::vector<cypher::CnfClause>& residual =
                                {},
                            dataflow::JoinShuffleHints hints = {});

// SelectEmbeddings: evaluates cross-variable CNF clauses on complete
// (partial) embeddings.
EmbeddingSet SelectEmbeddings(const EmbeddingSet& input,
                              const std::vector<cypher::CnfClause>& clauses);

// ValueJoinEmbeddings: equi-join of two embedding sets on property VALUES
// instead of identifiers — the extension operator §3.1 names ("to join
// subqueries on property values"). `left_key_columns[i]` (a property
// column of the left input) must equal `right_key_columns[i]` value-wise
// for a pair to join; embeddings whose key property is NULL never join
// (Cypher equality with NULL is NULL). The merged embedding is checked
// against the morphism constraints like a regular join.
EmbeddingSet ValueJoinEmbeddings(const EmbeddingSet& left,
                                 const EmbeddingSet& right,
                                 const std::vector<int>& left_key_columns,
                                 const std::vector<int>& right_key_columns,
                                 const EmbeddingMetaData& merged_meta,
                                 const MorphismSetting& semantics,
                                 dataflow::JoinStrategy strategy =
                                     dataflow::JoinStrategy::kRepartition,
                                 const std::vector<cypher::CnfClause>&
                                     residual = {},
                                 dataflow::JoinShuffleHints hints = {});

// ExpandEmbeddings: evaluates a variable-length path expression by bulk
// iteration (§3.1). Starting from the embeddings of `input` positioned at
// `start_column`, repeatedly performs 1-hop expansions by joining the
// frontier with `edges`, keeping only paths that satisfy the morphism
// semantics, and unions an emission into the result once the iteration
// count reaches `lower_bound`. Terminates at `upper_bound` or when no
// valid path remains. The host exchanges and hashes `edges` once per call
// and probes that build side every hop; the cost model still charges one
// edge exchange and one build per hop, as a join per superstep would.
//
// `reverse` expands against edge direction (used when the plan binds the
// path's target first). A non-negative `bound_end_column` closes a cycle:
// no new column is added and the path end must equal the id at that
// column; otherwise `result_meta` appends a fresh vertex column after the
// path column. A `lower_bound` of 0 admits the empty path (end == start).
EmbeddingSet ExpandEmbeddings(const EmbeddingSet& input,
                              const dataflow::Dataset<epgm::Edge>& edges,
                              int start_column, int bound_end_column,
                              const EmbeddingMetaData& result_meta,
                              int lower_bound, int upper_bound, bool reverse,
                              const MorphismSetting& semantics,
                              const std::vector<cypher::CnfClause>& residual =
                                  {});

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_OPERATORS_H_
