#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

#include "cypher/parser.h"
#include "cypher/query_graph.h"
#include "epgm/indexed_logical_graph.h"
#include "ldbc/ldbc_generator.h"
#include "query/batch_operators.h"
#include "query/naive_matcher.h"
#include "query/operators.h"

namespace gradoop::query {
namespace {

using cypher::QueryGraph;
using epgm::Edge;
using epgm::PropertyValue;
using epgm::Vertex;

dataflow::ExecutionContextPtr Ctx() { return dataflow::MakeContext(); }

QueryGraph QG(const std::string& text) {
  auto ast = cypher::ParseCypher(text);
  EXPECT_TRUE(ast.ok()) << ast.status();
  auto qg = QueryGraph::Build(ast.value());
  EXPECT_TRUE(qg.ok()) << qg.status();
  return std::move(qg).value();
}

// The kernels execute against layouts resolved by exec::PlanCompiler;
// these helpers build the same layouts by hand for kernel-level tests.
EmbeddingMetaData VertexScanMeta(const cypher::QueryVertex& qv,
                                 const std::set<std::string>& projection) {
  EmbeddingMetaData meta;
  meta.AddIdColumn(qv.variable, EntryType::kVertex);
  for (const std::string& key : projection) {
    meta.AddPropertyColumn(qv.variable, key);
  }
  return meta;
}

EmbeddingMetaData EdgeScanMeta(const QueryGraph& qg,
                               const cypher::QueryEdge& qe,
                               const std::set<std::string>& projection) {
  const std::string& src = qg.vertices()[qe.source].variable;
  const std::string& dst = qg.vertices()[qe.target].variable;
  EmbeddingMetaData meta;
  meta.AddIdColumn(src, EntryType::kVertex);
  meta.AddIdColumn(qe.variable, EntryType::kEdge);
  if (src != dst) meta.AddIdColumn(dst, EntryType::kVertex);
  for (const std::string& key : projection) {
    meta.AddPropertyColumn(qe.variable, key);
  }
  return meta;
}

EmbeddingSet ScanEdges(const dataflow::Dataset<Edge>& ds,
                       const QueryGraph& qg, const cypher::QueryEdge& qe,
                       const std::vector<cypher::CnfClause>& predicates,
                       const std::set<std::string>& projection,
                       const MorphismSetting& semantics =
                           MorphismSetting::Neo4j()) {
  const std::string& src = qg.vertices()[qe.source].variable;
  const std::string& dst = qg.vertices()[qe.target].variable;
  return SelectAndProjectEdges({ds}, qe, predicates, semantics, src == dst,
                               EdgeScanMeta(qg, qe, projection));
}

EmbeddingSet Join(const EmbeddingSet& left, const EmbeddingSet& right,
                  const std::vector<std::string>& join_variables,
                  const MorphismSetting& semantics,
                  dataflow::JoinStrategy strategy =
                      dataflow::JoinStrategy::kRepartition) {
  std::vector<int> left_columns, right_columns;
  for (const std::string& var : join_variables) {
    left_columns.push_back(left.meta.IdColumn(var));
    right_columns.push_back(right.meta.IdColumn(var));
  }
  return JoinEmbeddings(left, right, left_columns, right_columns,
                        EmbeddingMetaData::Merge(left.meta, right.meta),
                        semantics, strategy);
}

using KeyRef = std::pair<std::string, std::string>;

EmbeddingSet ValueJoin(const EmbeddingSet& left, const EmbeddingSet& right,
                       const std::vector<KeyRef>& left_keys,
                       const std::vector<KeyRef>& right_keys,
                       const MorphismSetting& semantics) {
  std::vector<int> left_columns, right_columns;
  for (const auto& [var, key] : left_keys) {
    left_columns.push_back(left.meta.PropertyColumn(var, key));
  }
  for (const auto& [var, key] : right_keys) {
    right_columns.push_back(right.meta.PropertyColumn(var, key));
  }
  return ValueJoinEmbeddings(left, right, left_columns, right_columns,
                             EmbeddingMetaData::Merge(left.meta, right.meta),
                             semantics);
}

EmbeddingSet Expand(const EmbeddingSet& input,
                    const dataflow::Dataset<Edge>& edges,
                    const std::string& start, const std::string& path_var,
                    const std::string& end, int lower, int upper,
                    bool reverse, const MorphismSetting& semantics) {
  const int start_column = input.meta.IdColumn(start);
  const int bound_end_column = input.meta.IdColumn(end);
  EmbeddingMetaData meta = input.meta;
  meta.AddIdColumn(path_var, EntryType::kPath);
  if (bound_end_column < 0) meta.AddIdColumn(end, EntryType::kVertex);
  return ExpandEmbeddings(input, edges, start_column, bound_end_column, meta,
                          lower, upper, reverse, semantics);
}

std::vector<uint64_t> SortedIds(const EmbeddingSet& set,
                                const std::string& var) {
  const int col = set.meta.IdColumn(var);
  std::vector<uint64_t> ids;
  for (const Embedding& e : set.data.Collect()) ids.push_back(e.IdAt(col));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ScanVerticesTest, FiltersLabelAndPredicateAndProjects) {
  auto ctx = Ctx();
  std::vector<Vertex> vertices = {
      Vertex(1, "Person", {{"name", "Alice"}, {"age", int64_t{30}}}),
      Vertex(2, "Person", {{"name", "Bob"}, {"age", int64_t{20}}}),
      Vertex(3, "City", {{"name", "Leipzig"}}),
  };
  auto ds = dataflow::Dataset<Vertex>::FromVector(ctx, vertices);
  QueryGraph qg = QG("MATCH (p:Person) WHERE p.age > 25 RETURN p.name");
  const auto& qv = qg.vertices()[0];
  auto result = SelectAndProjectVertices(
      {ds}, qv, qg.ElementPredicates("p"),
      VertexScanMeta(qv, qg.NeededProperties("p")));
  auto rows = result.data.Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].IdAt(result.meta.IdColumn("p")), 1u);
  // Projected properties: age (WHERE) and name (RETURN).
  const int name_col = result.meta.PropertyColumn("p", "name");
  ASSERT_GE(name_col, 0);
  EXPECT_EQ(rows[0].PropertyAt(name_col), PropertyValue("Alice"));
}

TEST(ScanVerticesTest, LabelAlternation) {
  auto ctx = Ctx();
  std::vector<Vertex> vertices = {Vertex(1, "Comment"), Vertex(2, "Post"),
                                  Vertex(3, "Person")};
  auto ds = dataflow::Dataset<Vertex>::FromVector(ctx, vertices);
  QueryGraph qg = QG("MATCH (m:Comment|Post) RETURN *");
  const auto& qv = qg.vertices()[0];
  auto result =
      SelectAndProjectVertices({ds}, qv, {}, VertexScanMeta(qv, {}));
  EXPECT_EQ(SortedIds(result, "m"), (std::vector<uint64_t>{1, 2}));
}

TEST(ScanVerticesTest, ResidualClausePrunesRows) {
  // A fused filter clause evaluates inside the scan's emission loop.
  auto ctx = Ctx();
  std::vector<Vertex> vertices = {
      Vertex(1, "Person", {{"age", int64_t{30}}}),
      Vertex(2, "Person", {{"age", int64_t{20}}}),
  };
  auto ds = dataflow::Dataset<Vertex>::FromVector(ctx, vertices);
  QueryGraph qg = QG("MATCH (p:Person) WHERE p.age > 25 RETURN *");
  const auto& qv = qg.vertices()[0];
  // Hand the predicate to the kernel as a residual instead of an element
  // predicate: same rows must survive.
  auto result =
      SelectAndProjectVertices({ds}, qv, {}, VertexScanMeta(qv, {"age"}),
                               qg.ElementPredicates("p"));
  EXPECT_EQ(SortedIds(result, "p"), (std::vector<uint64_t>{1}));
}

// What one scan produced and charged: the encoded rows of every
// partition in order (a batch's active rows in order), the batches per
// partition (none under the row engine), and the model's stages,
// records and seconds.
struct ScanRun {
  std::vector<std::vector<std::string>> rows;
  std::vector<size_t> batches;
  std::vector<std::pair<std::string, double>> stages;
  uint64_t records = 0;
  double seconds = 0.0;
};

void AppendEncoded(const Embedding& e, std::vector<std::string>* rows) {
  rows->emplace_back();
  e.EncodeTo(&rows->back());
}

// Runs `scan` on a fresh tracker and captures what it produced.
template <typename Scan>
ScanRun RunScan(dataflow::ExecutionContext& ctx, Scan scan) {
  ctx.tracker().Reset();
  const auto set = scan();
  ScanRun run;
  for (const dataflow::StageCost& stage : ctx.tracker().Stages()) {
    run.stages.emplace_back(stage.label, stage.TotalSeconds());
  }
  run.records = ctx.tracker().TotalRecords();
  run.seconds = ctx.tracker().SimulatedSeconds();
  for (int p = 0; p < set.data.num_partitions(); ++p) {
    run.rows.emplace_back();
    run.batches.push_back(0);
    for (const auto& record : set.data.partition(p)) {
      if constexpr (std::is_same_v<std::decay_t<decltype(record)>,
                                   EmbeddingBatch>) {
        ++run.batches.back();
        for (uint32_t i = 0; i < record.ActiveRows(); ++i) {
          AppendEncoded(record.RowAt(record.ActiveRow(i)), &run.rows.back());
        }
      } else {
        AppendEncoded(record, &run.rows.back());
      }
    }
  }
  return run;
}

void ExpectSameScan(const ScanRun& got, const ScanRun& want,
                    const std::string& what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.batches, want.batches) << what;
  EXPECT_EQ(got.stages, want.stages) << what;
  EXPECT_EQ(got.records, want.records) << what;
  EXPECT_EQ(got.seconds, want.seconds) << what;
}

// The per-label index datasets of `labels` (every label when empty) and
// their Union, the single dataset scans read before they read the index
// datasets in place.
template <typename T>
std::pair<std::vector<dataflow::Dataset<T>>, dataflow::Dataset<T>>
PerLabelAndUnion(const epgm::IndexedLogicalGraph& graph,
                 const std::vector<std::string>& labels, bool vertices) {
  std::vector<dataflow::Dataset<T>> per_label;
  const std::vector<std::string> all =
      vertices ? graph.VertexLabels() : graph.EdgeLabels();
  for (const std::string& label : labels.empty() ? all : labels) {
    if constexpr (std::is_same_v<T, Vertex>) {
      per_label.push_back(graph.VerticesByLabel(label));
    } else {
      per_label.push_back(graph.EdgesByLabel(label));
    }
  }
  dataflow::Dataset<T> unioned = per_label.front();
  for (size_t i = 1; i < per_label.size(); ++i) {
    unioned = unioned.Union(per_label[i]);
  }
  return {per_label, unioned};
}

epgm::IndexedLogicalGraph SmallLdbcIndex() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  return epgm::IndexedLogicalGraph::Build(
      ldbc::LdbcGenerator(cfg).Generate(Ctx()));
}

// Scans of a label alternation and of an unlabeled vertex read the
// per-label index datasets in place. On both engines they produce and
// charge what scanning the datasets' Union did: the same rows in the
// same order, the same batches (a batch spans a label boundary exactly
// where it did over the Union), and the same stages, records and
// simulated seconds.
TEST(ScanVerticesTest, AlternationReadsIndexDatasetsLikeTheirUnion) {
  const epgm::IndexedLogicalGraph graph = SmallLdbcIndex();
  dataflow::ExecutionContext& ctx = *graph.context();
  for (const std::string text :
       {"MATCH (m:Comment|Post) WHERE m.creationDate > 20120101 "
        "RETURN m.content",
        "MATCH (v) RETURN v.creationDate"}) {
    const QueryGraph qg = QG(text);
    const auto& qv = qg.vertices()[0];
    const auto predicates = qg.ElementPredicates(qv.variable);
    const EmbeddingMetaData meta =
        VertexScanMeta(qv, qg.NeededProperties(qv.variable));
    const auto [per_label, unioned] =
        PerLabelAndUnion<Vertex>(graph, qv.labels, /*vertices=*/true);
    ASSERT_GE(per_label.size(), 2u) << text;
    const ScanRun row = RunScan(ctx, [&] {
      return SelectAndProjectVertices(per_label, qv, predicates, meta);
    });
    EXPECT_GT(row.records, 0u);
    ExpectSameScan(row, RunScan(ctx, [&] {
                     return SelectAndProjectVertices({unioned}, qv,
                                                     predicates, meta);
                   }),
                   text + " (row)");
    for (const int batch_size : {7, kDefaultBatchSize}) {
      const ScanRun batch = RunScan(ctx, [&] {
        return ScanVerticesBatch(per_label, qv, predicates, meta, {},
                                 batch_size);
      });
      ExpectSameScan(batch, RunScan(ctx, [&] {
                       return ScanVerticesBatch({unioned}, qv, predicates,
                                                meta, {}, batch_size);
                     }),
                     text + " (batch " + std::to_string(batch_size) + ")");
      EXPECT_EQ(batch.rows, row.rows) << text;
    }
  }
}

// The same for an edge type alternation.
TEST(ScanEdgesTest, AlternationReadsIndexDatasetsLikeTheirUnion) {
  const epgm::IndexedLogicalGraph graph = SmallLdbcIndex();
  dataflow::ExecutionContext& ctx = *graph.context();
  const QueryGraph qg = QG("MATCH (a)-[e:replyOf|hasCreator]->(b) RETURN *");
  const auto& qe = qg.edges()[0];
  const EmbeddingMetaData meta = EdgeScanMeta(qg, qe, {});
  const auto [per_label, unioned] =
      PerLabelAndUnion<Edge>(graph, qe.types, /*vertices=*/false);
  const MorphismSetting semantics = MorphismSetting::Neo4j();
  const ScanRun row = RunScan(ctx, [&] {
    return SelectAndProjectEdges(per_label, qe, {}, semantics, false, meta);
  });
  EXPECT_GT(row.records, 0u);
  ExpectSameScan(row, RunScan(ctx, [&] {
                   return SelectAndProjectEdges({unioned}, qe, {}, semantics,
                                                false, meta);
                 }),
                 "row");
  const ScanRun batch = RunScan(ctx, [&] {
    return ScanEdgesBatch(per_label, qe, {}, semantics, false, meta, {}, 7);
  });
  ExpectSameScan(batch, RunScan(ctx, [&] {
                   return ScanEdgesBatch({unioned}, qe, {}, semantics, false,
                                         meta, {}, 7);
                 }),
                 "batch");
  EXPECT_EQ(batch.rows, row.rows);
}

TEST(ScanEdgesTest, EmitsSourceEdgeTargetColumns) {
  auto ctx = Ctx();
  std::vector<Edge> edges = {
      Edge(10, "knows", 1, 2),
      Edge(11, "likes", 1, 3),
  };
  auto ds = dataflow::Dataset<Edge>::FromVector(ctx, edges);
  QueryGraph qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  auto result = ScanEdges(ds, qg, qg.edges()[0], {}, {});
  auto rows = result.data.Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].IdAt(result.meta.IdColumn("a")), 1u);
  EXPECT_EQ(rows[0].IdAt(result.meta.IdColumn("e")), 10u);
  EXPECT_EQ(rows[0].IdAt(result.meta.IdColumn("b")), 2u);
  EXPECT_EQ(result.meta.TypeOf("e"), EntryType::kEdge);
}

TEST(ScanEdgesTest, UndirectedEmitsBothOrientations) {
  auto ctx = Ctx();
  std::vector<Edge> edges = {Edge(10, "knows", 1, 2)};
  auto ds = dataflow::Dataset<Edge>::FromVector(ctx, edges);
  QueryGraph qg = QG("MATCH (a)-[e:knows]-(b) RETURN *");
  auto result = ScanEdges(ds, qg, qg.edges()[0], {}, {});
  EXPECT_EQ(result.data.Collect().size(), 2u);
}

TEST(ScanEdgesTest, SelfLoopQueryEdge) {
  auto ctx = Ctx();
  std::vector<Edge> edges = {Edge(10, "likes", 1, 1), Edge(11, "likes", 1, 2)};
  auto ds = dataflow::Dataset<Edge>::FromVector(ctx, edges);
  QueryGraph qg = QG("MATCH (a)-[e:likes]->(a) RETURN *");
  auto result = ScanEdges(ds, qg, qg.edges()[0], {}, {});
  auto rows = result.data.Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].IdAt(result.meta.IdColumn("e")), 10u);
}

TEST(ScanEdgesTest, EdgePredicatePushdown) {
  auto ctx = Ctx();
  std::vector<Edge> edges = {
      Edge(10, "studyAt", 1, 2, {{"classYear", int64_t{2015}}}),
      Edge(11, "studyAt", 3, 2, {{"classYear", int64_t{2013}}}),
  };
  auto ds = dataflow::Dataset<Edge>::FromVector(ctx, edges);
  QueryGraph qg =
      QG("MATCH (a)-[s:studyAt]->(b) WHERE s.classYear > 2014 RETURN *");
  auto result = ScanEdges(ds, qg, qg.edges()[0], qg.ElementPredicates("s"),
                          qg.NeededProperties("s"));
  EXPECT_EQ(SortedIds(result, "s"), (std::vector<uint64_t>{10}));
}

// --- morphism checks --------------------------------------------------------

TEST(MorphismTest, VertexIsomorphismRejectsDuplicates) {
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddIdColumn("b", EntryType::kVertex);
  Embedding dup;
  dup.AppendId(7);
  dup.AppendId(7);
  Embedding ok;
  ok.AppendId(7);
  ok.AppendId(8);
  EXPECT_FALSE(
      SatisfiesMorphism(dup, meta, MorphismSetting::FullIsomorphism()));
  EXPECT_TRUE(
      SatisfiesMorphism(ok, meta, MorphismSetting::FullIsomorphism()));
  EXPECT_TRUE(
      SatisfiesMorphism(dup, meta, MorphismSetting::FullHomomorphism()));
}

TEST(MorphismTest, EdgeIsomorphismIncludesPathEdges) {
  EmbeddingMetaData meta;
  meta.AddIdColumn("e1", EntryType::kEdge);
  meta.AddIdColumn("p", EntryType::kPath);
  Embedding conflict;
  conflict.AppendId(5);
  conflict.AppendPath({5, 20, 7});  // edge 5 reused inside the path
  Embedding ok;
  ok.AppendId(6);
  ok.AppendPath({5, 20, 7});
  const MorphismSetting neo = MorphismSetting::Neo4j();  // edge iso
  EXPECT_FALSE(SatisfiesMorphism(conflict, meta, neo));
  EXPECT_TRUE(SatisfiesMorphism(ok, meta, neo));
  // Path *vertices* do not participate in edge checks.
  Embedding vertex_overlap;
  vertex_overlap.AppendId(20);
  vertex_overlap.AppendPath({5, 20, 7});
  EXPECT_TRUE(SatisfiesMorphism(vertex_overlap, meta, neo));
}

TEST(MorphismTest, SharedVariableDuplicateColumnsAreNotConflicts) {
  // After a join on a shared variable the merged embedding physically
  // contains the id twice, but only one column is addressed by the meta.
  EmbeddingMetaData left, right;
  left.AddIdColumn("u", EntryType::kVertex);
  right.AddIdColumn("u", EntryType::kVertex);
  auto merged = EmbeddingMetaData::Merge(left, right);
  Embedding e;
  e.AppendId(40);
  e.AppendId(40);
  EXPECT_TRUE(
      SatisfiesMorphism(e, merged, MorphismSetting::FullIsomorphism()));
}

// --- join -------------------------------------------------------------------

EmbeddingSet MakeSet(dataflow::ExecutionContextPtr ctx,
                     const std::vector<std::vector<uint64_t>>& rows,
                     const std::vector<std::string>& vars,
                     const std::vector<EntryType>& types) {
  EmbeddingMetaData meta;
  for (size_t i = 0; i < vars.size(); ++i) meta.AddIdColumn(vars[i], types[i]);
  std::vector<Embedding> embeddings;
  for (const auto& row : rows) {
    Embedding e;
    for (uint64_t id : row) e.AppendId(id);
    embeddings.push_back(std::move(e));
  }
  return {dataflow::Dataset<Embedding>::FromVector(std::move(ctx),
                                                   std::move(embeddings)),
          std::move(meta)};
}

TEST(JoinEmbeddingsTest, JoinsOnSharedVariable) {
  auto ctx = Ctx();
  auto left = MakeSet(ctx, {{1, 10}, {2, 20}}, {"a", "b"},
                      {EntryType::kVertex, EntryType::kVertex});
  auto right = MakeSet(ctx, {{10, 100}, {30, 300}}, {"b", "c"},
                       {EntryType::kVertex, EntryType::kVertex});
  auto joined = Join(left, right, {"b"}, MorphismSetting::FullHomomorphism());
  auto rows = joined.data.Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].IdAt(joined.meta.IdColumn("a")), 1u);
  EXPECT_EQ(rows[0].IdAt(joined.meta.IdColumn("b")), 10u);
  EXPECT_EQ(rows[0].IdAt(joined.meta.IdColumn("c")), 100u);
}

TEST(JoinEmbeddingsTest, IsomorphismDropsConflicts) {
  auto ctx = Ctx();
  // Join a-b with b-c where c == a: homomorphism keeps, isomorphism drops.
  auto left = MakeSet(ctx, {{1, 10}}, {"a", "b"},
                      {EntryType::kVertex, EntryType::kVertex});
  auto right = MakeSet(ctx, {{10, 1}}, {"b", "c"},
                       {EntryType::kVertex, EntryType::kVertex});
  auto homo = Join(left, right, {"b"}, MorphismSetting::FullHomomorphism());
  EXPECT_EQ(homo.data.Collect().size(), 1u);
  auto iso = Join(left, right, {"b"}, MorphismSetting::FullIsomorphism());
  EXPECT_EQ(iso.data.Collect().size(), 0u);
}

TEST(JoinEmbeddingsTest, MultiColumnJoinKey) {
  auto ctx = Ctx();
  auto left = MakeSet(ctx, {{1, 2}, {1, 3}}, {"a", "b"},
                      {EntryType::kVertex, EntryType::kVertex});
  auto right = MakeSet(ctx, {{1, 2}, {1, 9}}, {"a", "b"},
                       {EntryType::kVertex, EntryType::kVertex});
  auto joined =
      Join(left, right, {"a", "b"}, MorphismSetting::FullHomomorphism());
  EXPECT_EQ(joined.data.Collect().size(), 1u);
}

TEST(JoinEmbeddingsTest, CartesianWithEmptyJoinVars) {
  auto ctx = Ctx();
  auto left = MakeSet(ctx, {{1}, {2}}, {"a"}, {EntryType::kVertex});
  auto right = MakeSet(ctx, {{10}, {20}, {30}}, {"b"}, {EntryType::kVertex});
  auto joined = Join(left, right, {}, MorphismSetting::FullHomomorphism());
  EXPECT_EQ(joined.data.Collect().size(), 6u);
}

TEST(JoinEmbeddingsTest, BroadcastMatchesRepartition) {
  auto ctx = Ctx();
  auto left = MakeSet(ctx, {{1, 10}, {2, 20}, {3, 10}}, {"a", "b"},
                      {EntryType::kVertex, EntryType::kVertex});
  auto right = MakeSet(ctx, {{10}}, {"b"}, {EntryType::kVertex});
  auto a = Join(left, right, {"b"}, MorphismSetting::FullHomomorphism(),
                dataflow::JoinStrategy::kRepartition);
  auto b = Join(left, right, {"b"}, MorphismSetting::FullHomomorphism(),
                dataflow::JoinStrategy::kBroadcast);
  EXPECT_EQ(a.data.Collect().size(), 2u);
  EXPECT_EQ(b.data.Collect().size(), 2u);
}

// --- join keys and placement -------------------------------------------------

// The bytes the id join key used to be materialised as: the ids of
// `columns` concatenated, 8 bytes each.
std::string IdKeyBytes(const Embedding& e, const std::vector<int>& columns) {
  std::string bytes;
  for (const int c : columns) {
    const uint64_t id = e.IdAt(c);
    char buf[8];
    std::memcpy(buf, &id, 8);
    bytes.append(buf, 8);
  }
  return bytes;
}

TEST(JoinPlacementTest, IdJoinKeyHashesTheConcatenatedIdBytes) {
  uint64_t state = 0x243F6A8885A308D3ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 7;
  };
  const std::vector<std::vector<int>> key_columns = {{2}, {3, 0}, {1, 3, 2}};
  for (const std::vector<int>& columns : key_columns) {
    for (int i = 0; i < 200; ++i) {
      Embedding e;
      for (int c = 0; c < 4; ++c) e.AppendId(i < 3 ? c : next());
      EXPECT_EQ(std::hash<IdJoinKey>{}(IdJoinKey{&e, &columns}),
                std::hash<std::string>{}(IdKeyBytes(e, columns)))
          << columns.size() << " columns";
    }
  }
}

// Both engines place every joined row on hash(key bytes) % p, the
// placement the partitioning claims and audit assume.
TEST(JoinPlacementTest, BothEnginesPlaceJoinedRowsByTheKeyBytes) {
  auto ctx = Ctx();
  const int p = ctx->num_workers();
  ASSERT_GT(p, 1);
  std::vector<std::vector<uint64_t>> rows;
  for (uint64_t i = 0; i < 64; ++i) rows.push_back({i % 13, i % 5, i % 7});
  const std::vector<std::string> vars = {"a", "b", "c"};
  const std::vector<EntryType> types(3, EntryType::kVertex);
  const EmbeddingSet left = MakeSet(ctx, rows, vars, types);
  const EmbeddingSet right = MakeSet(ctx, rows, vars, types);
  const EmbeddingMetaData merged = EmbeddingMetaData::Merge(left.meta,
                                                            right.meta);
  for (const std::vector<int>& columns :
       std::vector<std::vector<int>>{{0}, {1, 2}, {2, 0, 1}}) {
    const auto placed = [&](const Embedding& e, int partition) {
      const size_t hash = std::hash<std::string>{}(IdKeyBytes(e, columns));
      return hash % static_cast<size_t>(p) == static_cast<size_t>(partition);
    };
    const EmbeddingSet row_join =
        JoinEmbeddings(left, right, columns, columns, merged,
                       MorphismSetting::FullHomomorphism());
    const BatchSet batch_join = JoinBatches(
        RowsToBatches(left, 16), RowsToBatches(right, 16), columns, columns,
        merged, MorphismSetting::FullHomomorphism(),
        dataflow::JoinStrategy::kRepartition, {}, {}, 16);
    uint64_t row_count = 0, batch_count = 0;
    for (int part = 0; part < p; ++part) {
      for (const Embedding& e : row_join.data.partition(part)) {
        EXPECT_TRUE(placed(e, part)) << columns.size() << " columns";
        ++row_count;
      }
      for (const EmbeddingBatch& b : batch_join.data.partition(part)) {
        for (uint32_t i = 0; i < b.ActiveRows(); ++i) {
          EXPECT_TRUE(placed(b.RowAt(b.ActiveRow(i)), part))
              << columns.size() << " columns";
          ++batch_count;
        }
      }
    }
    EXPECT_GT(row_count, 0u);
    EXPECT_EQ(batch_count, row_count);
  }
}

// --- morphism before merge ----------------------------------------------------

NaiveBinding ToBinding(const Embedding& e, const EmbeddingMetaData& meta) {
  NaiveBinding b;
  for (const std::string& var : meta.Variables()) {
    const int c = meta.IdColumn(var);
    if (e.IsPathEntry(c)) {
      b.paths[var] = e.PathAt(c);
    } else {
      b.elements[var] = e.IdAt(c);
    }
  }
  return b;
}

// Merge-then-check, written out independently of MorphismPlan.
bool MergedRowSatisfies(const Embedding& m, const EmbeddingMetaData& meta,
                        const MorphismSetting& semantics) {
  const auto distinct = [](std::vector<uint64_t> ids) {
    std::sort(ids.begin(), ids.end());
    return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
  };
  if (semantics.vertex == MatchSemantics::kIsomorphism) {
    std::vector<uint64_t> ids;
    for (const int c : meta.VertexColumns()) ids.push_back(m.IdAt(c));
    if (!distinct(ids)) return false;
  }
  if (semantics.edge == MatchSemantics::kIsomorphism) {
    std::vector<uint64_t> ids;
    for (const int c : meta.EdgeColumns()) ids.push_back(m.IdAt(c));
    for (const int c : meta.PathColumns()) {
      const std::vector<uint64_t> via = m.PathAt(c);
      for (size_t i = 0; i < via.size(); i += 2) ids.push_back(via[i]);
    }
    if (!distinct(ids)) return false;
  }
  return true;
}

// (a)-[e1]->(b) joined on b with (b)-[p*1..3]->(c): the pairs a join must
// drop conflict only in the right side's path (it walks e1 again) or only
// across the sides' vertex columns (c is a), while b's duplicate column
// is no conflict. The pair check before the merge must keep exactly what
// merge-then-check keeps, and both must equal the naive oracle.
TEST(JoinMorphismTest, PairCheckEqualsMergeThenCheckAndNaiveOracle) {
  const std::vector<Vertex> vertices = {Vertex(1, "V", {}), Vertex(2, "V", {}),
                                        Vertex(3, "V", {})};
  const std::vector<Edge> edge_list = {
      Edge(100, "knows", 1, 2), Edge(101, "knows", 2, 3),
      Edge(102, "knows", 3, 1), Edge(103, "knows", 3, 2)};
  const QueryGraph qg = QG("MATCH (a)-[e1]->(b)-[p*1..3]->(c) RETURN *");
  const cypher::QueryEdge* e1 = nullptr;
  for (const auto& qe : qg.edges()) {
    if (qe.variable == "e1") e1 = &qe;
  }
  const cypher::QueryVertex* b_vertex = nullptr;
  for (const auto& qv : qg.vertices()) {
    if (qv.variable == "b") b_vertex = &qv;
  }
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(b_vertex, nullptr);
  const NaiveMatcher oracle(vertices, edge_list);

  NaiveBinding edge_conflict;  // p walks e1 = 100 again
  edge_conflict.elements = {{"a", 1}, {"e1", 100}, {"b", 2}, {"c", 2}};
  edge_conflict.paths = {{"p", {101, 3, 102, 1, 100}}};
  NaiveBinding vertex_conflict;  // c binds a's vertex
  vertex_conflict.elements = {{"a", 1}, {"e1", 100}, {"b", 2}, {"c", 1}};
  vertex_conflict.paths = {{"p", {101, 3, 102}}};

  std::map<std::string, std::vector<NaiveBinding>> kept;
  for (const auto& [name, semantics] :
       std::vector<std::pair<std::string, MorphismSetting>>{
           {"iso", MorphismSetting::FullIsomorphism()},
           {"homo", MorphismSetting::FullHomomorphism()},
           {"neo4j", MorphismSetting::Neo4j()}}) {
    for (const auto strategy : {dataflow::JoinStrategy::kRepartition,
                                dataflow::JoinStrategy::kBroadcast}) {
      auto ctx = Ctx();
      const auto edges = dataflow::Dataset<Edge>::FromVector(ctx, edge_list);
      const auto vertex_ds =
          dataflow::Dataset<Vertex>::FromVector(ctx, vertices);
      const EmbeddingSet left = ScanEdges(edges, qg, *e1, {}, {}, semantics);
      const EmbeddingSet starts = SelectAndProjectVertices(
          {vertex_ds}, *b_vertex, {}, VertexScanMeta(*b_vertex, {}));
      const EmbeddingSet right =
          Expand(starts, edges, "b", "p", "c", 1, 3, false, semantics);
      const EmbeddingSet joined = Join(left, right, {"b"}, semantics,
                                       strategy);

      std::vector<NaiveBinding> actual;
      for (const Embedding& e : joined.data.Collect()) {
        actual.push_back(ToBinding(e, joined.meta));
      }
      std::vector<NaiveBinding> merged_then_checked;
      const int lb = left.meta.IdColumn("b");
      const int rb = right.meta.IdColumn("b");
      for (const Embedding& l : left.data.Collect()) {
        for (const Embedding& r : right.data.Collect()) {
          if (l.IdAt(lb) != r.IdAt(rb)) continue;
          const Embedding m = Embedding::Merge(l, r);
          if (!MergedRowSatisfies(m, joined.meta, semantics)) continue;
          merged_then_checked.push_back(ToBinding(m, joined.meta));
        }
      }
      std::vector<NaiveBinding> expected = oracle.FindMatches(qg, semantics);
      std::sort(actual.begin(), actual.end());
      std::sort(merged_then_checked.begin(), merged_then_checked.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_FALSE(expected.empty()) << name;
      EXPECT_EQ(actual, merged_then_checked) << name;
      EXPECT_EQ(actual, expected) << name;
      kept[name] = actual;
    }
  }
  const auto has = [&](const std::string& name, const NaiveBinding& b) {
    return std::binary_search(kept[name].begin(), kept[name].end(), b);
  };
  // The conflicts are real: homomorphism keeps both rows, edge
  // isomorphism drops the path conflict, vertex isomorphism the other.
  EXPECT_TRUE(has("homo", edge_conflict));
  EXPECT_FALSE(has("neo4j", edge_conflict));
  EXPECT_TRUE(has("homo", vertex_conflict));
  EXPECT_TRUE(has("neo4j", vertex_conflict));
  EXPECT_FALSE(has("iso", vertex_conflict));
}

TEST(JoinEmbeddingsTest, ResidualClauseFiltersMergedRows) {
  auto ctx = Ctx();
  EmbeddingMetaData left_meta, right_meta;
  left_meta.AddIdColumn("a", EntryType::kVertex);
  left_meta.AddPropertyColumn("a", "x");
  right_meta.AddIdColumn("b", EntryType::kVertex);
  right_meta.AddPropertyColumn("b", "x");
  auto make = [](uint64_t id, int64_t x) {
    Embedding e;
    e.AppendId(id);
    e.AppendProperty(PropertyValue(x));
    return e;
  };
  EmbeddingSet left{
      dataflow::Dataset<Embedding>::FromVector(ctx, {make(1, 5)}), left_meta};
  EmbeddingSet right{dataflow::Dataset<Embedding>::FromVector(
                         ctx, {make(10, 5), make(11, 9)}),
                     right_meta};
  QueryGraph qg = QG("MATCH (a)-[e]->(b) WHERE a.x = b.x RETURN *");
  auto merged = EmbeddingMetaData::Merge(left_meta, right_meta);
  auto joined = JoinEmbeddings(left, right, {}, {}, merged,
                               MorphismSetting::FullHomomorphism(),
                               dataflow::JoinStrategy::kRepartition,
                               qg.CrossPredicates());
  // Cartesian 1x2, fused a.x = b.x keeps only the (1, 10) pair.
  auto rows = joined.data.Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].IdAt(merged.IdColumn("b")), 10u);
}

TEST(ValueJoinTest, JoinsOnPropertyValues) {
  auto ctx = Ctx();
  EmbeddingMetaData left_meta, right_meta;
  left_meta.AddIdColumn("a", EntryType::kVertex);
  left_meta.AddPropertyColumn("a", "x");
  right_meta.AddIdColumn("b", EntryType::kVertex);
  right_meta.AddPropertyColumn("b", "y");

  auto make = [](uint64_t id, PropertyValue v) {
    Embedding e;
    e.AppendId(id);
    e.AppendProperty(v);
    return e;
  };
  EmbeddingSet left{dataflow::Dataset<Embedding>::FromVector(
                        ctx, {make(1, PropertyValue(int64_t{7})),
                              make(2, PropertyValue(int64_t{9})),
                              make(3, PropertyValue::Null())}),
                    left_meta};
  EmbeddingSet right{dataflow::Dataset<Embedding>::FromVector(
                         ctx, {make(10, PropertyValue(int64_t{7})),
                               make(11, PropertyValue(int64_t{7})),
                               make(12, PropertyValue::Null())}),
                     right_meta};
  auto joined = ValueJoin(left, right, {{"a", "x"}}, {{"b", "y"}},
                          MorphismSetting::FullHomomorphism());
  // a=1 (x=7) joins b=10 and b=11; NULLs never join each other.
  auto rows = joined.data.Collect();
  ASSERT_EQ(rows.size(), 2u);
  for (const Embedding& e : rows) {
    EXPECT_EQ(e.IdAt(joined.meta.IdColumn("a")), 1u);
  }
}

TEST(ValueJoinTest, NumericTypesJoinAcrossIntAndDouble) {
  auto ctx = Ctx();
  EmbeddingMetaData left_meta, right_meta;
  left_meta.AddIdColumn("a", EntryType::kVertex);
  left_meta.AddPropertyColumn("a", "x");
  right_meta.AddIdColumn("b", EntryType::kVertex);
  right_meta.AddPropertyColumn("b", "y");
  Embedding l;
  l.AppendId(1);
  l.AppendProperty(PropertyValue(int64_t{2}));
  Embedding r;
  r.AppendId(2);
  r.AppendProperty(PropertyValue(2.0));
  EmbeddingSet left{dataflow::Dataset<Embedding>::FromVector(ctx, {l}),
                    left_meta};
  EmbeddingSet right{dataflow::Dataset<Embedding>::FromVector(ctx, {r}),
                     right_meta};
  auto joined = ValueJoin(left, right, {{"a", "x"}}, {{"b", "y"}},
                          MorphismSetting::FullHomomorphism());
  EXPECT_EQ(joined.data.Collect().size(), 1u);  // 2 == 2.0 (Cypher)
}

TEST(ValueJoinTest, MorphismStillEnforced) {
  auto ctx = Ctx();
  EmbeddingMetaData left_meta, right_meta;
  left_meta.AddIdColumn("a", EntryType::kVertex);
  left_meta.AddPropertyColumn("a", "x");
  right_meta.AddIdColumn("b", EntryType::kVertex);
  right_meta.AddPropertyColumn("b", "x");
  Embedding same;
  same.AppendId(1);
  same.AppendProperty(PropertyValue(int64_t{5}));
  EmbeddingSet left{dataflow::Dataset<Embedding>::FromVector(ctx, {same}),
                    left_meta};
  EmbeddingSet right{dataflow::Dataset<Embedding>::FromVector(ctx, {same}),
                     right_meta};
  auto homo = ValueJoin(left, right, {{"a", "x"}}, {{"b", "x"}},
                        MorphismSetting::FullHomomorphism());
  EXPECT_EQ(homo.data.Collect().size(), 1u);
  auto iso = ValueJoin(left, right, {{"a", "x"}}, {{"b", "x"}},
                       MorphismSetting::FullIsomorphism());
  EXPECT_EQ(iso.data.Collect().size(), 0u);  // both bind vertex 1
}

// --- select -----------------------------------------------------------------

TEST(SelectEmbeddingsTest, EvaluatesCrossPredicates) {
  auto ctx = Ctx();
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddIdColumn("b", EntryType::kVertex);
  meta.AddPropertyColumn("a", "x");
  meta.AddPropertyColumn("b", "x");
  std::vector<Embedding> rows;
  for (int i = 0; i < 2; ++i) {
    Embedding e;
    e.AppendId(1);
    e.AppendId(2);
    e.AppendProperty(PropertyValue(int64_t{5}));
    e.AppendProperty(PropertyValue(int64_t{i == 0 ? 5 : 9}));
    rows.push_back(std::move(e));
  }
  EmbeddingSet input{
      dataflow::Dataset<Embedding>::FromVector(ctx, std::move(rows)), meta};
  QueryGraph qg = QG("MATCH (a)-[e]->(b) WHERE a.x = b.x RETURN *");
  auto result = SelectEmbeddings(input, qg.CrossPredicates());
  EXPECT_EQ(result.data.Collect().size(), 1u);
}

// --- expand -------------------------------------------------------------------

struct ExpandFixture {
  dataflow::ExecutionContextPtr ctx = Ctx();
  // Chain 1 -> 2 -> 3 -> 4 plus a back edge 3 -> 1.
  dataflow::Dataset<Edge> edges = dataflow::Dataset<Edge>::FromVector(
      ctx, {Edge(100, "knows", 1, 2), Edge(101, "knows", 2, 3),
            Edge(102, "knows", 3, 4), Edge(103, "knows", 3, 1)});

  EmbeddingSet InputAt(uint64_t vertex) {
    EmbeddingMetaData meta;
    meta.AddIdColumn("a", EntryType::kVertex);
    Embedding e;
    e.AppendId(vertex);
    return {dataflow::Dataset<Embedding>::FromVector(ctx, {e}), meta};
  }
};

TEST(ExpandEmbeddingsTest, ForwardBounds) {
  ExpandFixture fx;
  auto result = Expand(fx.InputAt(1), fx.edges, "a", "p", "b", 1, 2,
                       /*reverse=*/false, MorphismSetting::Neo4j());
  // 1 hop: 1->2. 2 hops: 1->2->3.
  auto rows = result.data.Collect();
  ASSERT_EQ(rows.size(), 2u);
  const int b_col = result.meta.IdColumn("b");
  std::vector<uint64_t> ends;
  for (const auto& r : rows) ends.push_back(r.IdAt(b_col));
  std::sort(ends.begin(), ends.end());
  EXPECT_EQ(ends, (std::vector<uint64_t>{2, 3}));
}

TEST(ExpandEmbeddingsTest, PathColumnHoldsVia) {
  ExpandFixture fx;
  auto result = Expand(fx.InputAt(1), fx.edges, "a", "p", "b", 2, 2, false,
                       MorphismSetting::Neo4j());
  auto rows = result.data.Collect();
  ASSERT_EQ(rows.size(), 1u);
  const int p_col = result.meta.IdColumn("p");
  EXPECT_TRUE(rows[0].IsPathEntry(p_col));
  // via = edge 100, vertex 2, edge 101 (end vertex 3 excluded).
  EXPECT_EQ(rows[0].PathAt(p_col), (std::vector<uint64_t>{100, 2, 101}));
}

TEST(ExpandEmbeddingsTest, ZeroLowerBoundEmitsEmptyPath) {
  ExpandFixture fx;
  auto result = Expand(fx.InputAt(1), fx.edges, "a", "p", "b", 0, 1, false,
                       MorphismSetting::Neo4j());
  auto rows = result.data.Collect();
  ASSERT_EQ(rows.size(), 2u);  // empty path (b=1) and 1-hop (b=2)
  const int p_col = result.meta.IdColumn("p");
  const int b_col = result.meta.IdColumn("b");
  bool saw_empty = false;
  for (const auto& r : rows) {
    if (r.PathAt(p_col).empty()) {
      saw_empty = true;
      EXPECT_EQ(r.IdAt(b_col), 1u);  // zero hops: end == start
    }
  }
  EXPECT_TRUE(saw_empty);
}

TEST(ExpandEmbeddingsTest, ZeroHopRejectedUnderVertexIsomorphism) {
  ExpandFixture fx;
  auto result = Expand(fx.InputAt(1), fx.edges, "a", "p", "b", 0, 0, false,
                       MorphismSetting::FullIsomorphism());
  // b would bind the same vertex as a: vertex isomorphism forbids it.
  EXPECT_EQ(result.data.Collect().size(), 0u);
}

TEST(ExpandEmbeddingsTest, ReverseExpansion) {
  ExpandFixture fx;
  auto result = Expand(fx.InputAt(3), fx.edges, "a", "p", "b", 1, 2,
                       /*reverse=*/true, MorphismSetting::Neo4j());
  // Against direction from 3: 2->3 (b=2), 1->2->3 (b=1).
  auto rows = result.data.Collect();
  ASSERT_EQ(rows.size(), 2u);
  const int p_col = result.meta.IdColumn("p");
  for (const auto& r : rows) {
    const auto via = r.PathAt(p_col);
    if (via.size() == 3) {
      // Forward reading: edge 100 (1->2), vertex 2, edge 101 (2->3).
      EXPECT_EQ(via, (std::vector<uint64_t>{100, 2, 101}));
    }
  }
}

TEST(ExpandEmbeddingsTest, BoundEndClosesCycle) {
  ExpandFixture fx;
  // Input binds both a=1 and b=3; expansion must keep only paths 1 ~> 3.
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddIdColumn("b", EntryType::kVertex);
  Embedding e;
  e.AppendId(1);
  e.AppendId(3);
  EmbeddingSet input{dataflow::Dataset<Embedding>::FromVector(fx.ctx, {e}),
                     meta};
  auto result = Expand(input, fx.edges, "a", "p", "b", 1, 3, false,
                       MorphismSetting::Neo4j());
  auto rows = result.data.Collect();
  ASSERT_EQ(rows.size(), 1u);  // 1->2->3 only
  EXPECT_EQ(rows[0].PathAt(result.meta.IdColumn("p")),
            (std::vector<uint64_t>{100, 2, 101}));
  // No new column was added for b.
  EXPECT_EQ(result.meta.id_column_count(), meta.id_column_count() + 1);
}

TEST(ExpandEmbeddingsTest, EdgeIsomorphismPreventsEdgeReuseInPath) {
  auto ctx = Ctx();
  // 1 <-> 2 two-cycle.
  auto edges = dataflow::Dataset<Edge>::FromVector(
      ctx, {Edge(100, "knows", 1, 2), Edge(101, "knows", 2, 1)});
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  Embedding e;
  e.AppendId(1);
  EmbeddingSet input{dataflow::Dataset<Embedding>::FromVector(ctx, {e}),
                     meta};
  auto iso = Expand(input, edges, "a", "p", "b", 1, 4, false,
                    MorphismSetting::Neo4j());
  // Walks: 1->2, 1->2->1 — then edge 100 would repeat. 2 results.
  EXPECT_EQ(iso.data.Collect().size(), 2u);
  auto homo = Expand(input, edges, "a", "p", "b", 1, 4, false,
                     MorphismSetting::FullHomomorphism());
  // Edge homomorphism: walks of length 1..4 alternating freely = 4.
  EXPECT_EQ(homo.data.Collect().size(), 4u);
}

TEST(ExpandEmbeddingsTest, VertexIsomorphismPreventsRevisit) {
  ExpandFixture fx;
  // Cycle 1->2->3->1 via edge 103; under vertex iso, 3 hops ending back
  // at 1 must be rejected (unless the end is bound to 1 itself).
  auto iso = Expand(fx.InputAt(1), fx.edges, "a", "p", "b", 3, 3, false,
                    MorphismSetting::FullIsomorphism());
  // 1->2->3->4 is the only 3-hop survivor (1->2->3->1 revisits start).
  auto rows = iso.data.Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].IdAt(iso.meta.IdColumn("b")), 4u);
}

// Stages charged under an ExpandStep label (one probe-side exchange, one
// replayed edge exchange and one build/probe per hop that ran).
int ExpandStepStages(const dataflow::ExecutionContext& ctx) {
  int n = 0;
  for (const dataflow::StageCost& stage : ctx.tracker().Stages()) {
    if (stage.label.rfind("ExpandStep", 0) == 0) ++n;
  }
  return n;
}

TEST(ExpandEmbeddingsTest, EmptyFrontierChargesNoExpandStep) {
  for (const MorphismSetting& semantics :
       {MorphismSetting::FullIsomorphism(),
        MorphismSetting::FullHomomorphism()}) {
    ExpandFixture fx;
    fx.ctx->telemetry().Enable();
    EmbeddingMetaData meta;
    meta.AddIdColumn("a", EntryType::kVertex);
    EmbeddingSet empty{dataflow::Dataset<Embedding>::Empty(fx.ctx), meta};
    fx.ctx->tracker().Reset();
    auto none = Expand(empty, fx.edges, "a", "p", "b", 1, 10, false,
                       semantics);
    EXPECT_EQ(none.data.Collect().size(), 0u);
    EXPECT_EQ(ExpandStepStages(*fx.ctx), 0);
    // Nothing to probe with, so the edge side was never exchanged or
    // hashed either.
    for (const telemetry::SpanRecord& span :
         fx.ctx->telemetry().tracer().CollectSpans()) {
      EXPECT_EQ(span.name.find("ExpandStep"), std::string::npos)
          << span.name;
    }

    // Vertex 4 has no out-edge: hop 1 runs and empties the frontier, so
    // hop 2 charges nothing.
    fx.ctx->tracker().Reset();
    auto dead_end = Expand(fx.InputAt(4), fx.edges, "a", "p", "b", 1, 10,
                           false, semantics);
    EXPECT_EQ(dead_end.data.Collect().size(), 0u);
    EXPECT_EQ(ExpandStepStages(*fx.ctx), 3);
  }
}

// A path found by the reference walk: the alternating edge/vertex ids as
// the path column stores them, and the end vertex.
using PathAndEnd = std::pair<std::vector<uint64_t>, uint64_t>;

// Naive reference for *lower..upper from `start`: depth-first over every
// walk, keeping those whose vertices (vertex isomorphism) or edges (edge
// isomorphism) are pairwise distinct.
void ReferenceWalks(const std::vector<Edge>& edges, bool reverse,
                    const MorphismSetting& semantics, int lower, int upper,
                    std::vector<uint64_t>* vertices,
                    std::vector<uint64_t>* walked,
                    std::vector<PathAndEnd>* out) {
  const int hops = static_cast<int>(walked->size());
  if (hops >= lower && hops > 0) {
    std::vector<uint64_t> via;
    for (int i = 0; i < hops; ++i) {
      if (i > 0) via.push_back((*vertices)[i]);
      via.push_back((*walked)[i]);
    }
    if (reverse) std::reverse(via.begin(), via.end());
    out->push_back({via, vertices->back()});
  }
  if (hops == upper) return;
  for (const Edge& e : edges) {
    const uint64_t from = reverse ? e.target_id : e.source_id;
    const uint64_t to = reverse ? e.source_id : e.target_id;
    if (from != vertices->back()) continue;
    if (semantics.edge == MatchSemantics::kIsomorphism &&
        std::count(walked->begin(), walked->end(), e.id) > 0) {
      continue;
    }
    if (semantics.vertex == MatchSemantics::kIsomorphism &&
        std::count(vertices->begin(), vertices->end(), to) > 0) {
      continue;
    }
    vertices->push_back(to);
    walked->push_back(e.id);
    ReferenceWalks(edges, reverse, semantics, lower, upper, vertices, walked,
                   out);
    vertices->pop_back();
    walked->pop_back();
  }
}

TEST(ExpandEmbeddingsTest, LongChainDistinctnessFollowsParentLinks) {
  // A 12-edge graph: the chain 1 -> ... -> 10, back edges 7 -> 3 and
  // 10 -> 5 that close cycles five and six hops deep, and a self-loop on
  // 4. Revisits surface only by walking many parent links back.
  std::vector<Edge> edge_list;
  for (uint64_t v = 1; v < 10; ++v) {
    edge_list.emplace_back(100 + v, "knows", v, v + 1);
  }
  edge_list.emplace_back(110, "knows", 7, 3);
  edge_list.emplace_back(111, "knows", 10, 5);
  edge_list.emplace_back(112, "knows", 4, 4);
  ASSERT_EQ(edge_list.size(), 12u);
  for (const MorphismSetting& semantics :
       {MorphismSetting::FullIsomorphism(),
        MorphismSetting::FullHomomorphism(), MorphismSetting::Neo4j()}) {
    for (const bool reverse : {false, true}) {
      auto ctx = Ctx();
      auto edges = dataflow::Dataset<Edge>::FromVector(ctx, edge_list);
      const uint64_t start = reverse ? 10 : 1;
      EmbeddingMetaData meta;
      meta.AddIdColumn("a", EntryType::kVertex);
      Embedding e;
      e.AppendId(start);
      EmbeddingSet input{dataflow::Dataset<Embedding>::FromVector(ctx, {e}),
                         meta};
      auto result =
          Expand(input, edges, "a", "p", "b", 1, 10, reverse, semantics);
      std::vector<PathAndEnd> actual;
      for (const Embedding& row : result.data.Collect()) {
        actual.push_back({row.PathAt(result.meta.IdColumn("p")),
                          row.IdAt(result.meta.IdColumn("b"))});
      }
      std::vector<PathAndEnd> expected;
      std::vector<uint64_t> vertices = {start};
      std::vector<uint64_t> walked;
      ReferenceWalks(edge_list, reverse, semantics, 1, 10, &vertices, &walked,
                     &expected);
      std::sort(actual.begin(), actual.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_FALSE(expected.empty());
      EXPECT_EQ(actual, expected) << "reverse=" << reverse;
    }
  }
}

}  // namespace
}  // namespace gradoop::query
