// Differential tests for the columnar batch engine (docs/vectorized.md):
// row and batch execution of the same compiled plan must produce
// byte-identical embeddings, the runtime audits must stay clean under
// the batch kernels, EXPLAIN must surface the batch layout only under
// --engine=batch, and tampered batch-layout claims must be rejected by
// the compiled-plan verifier before anything runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/plan_verifier.h"
#include "dataflow/partitioning_audit.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/batch_operators.h"
#include "query/cypher_engine.h"
#include "query/exec/batch_layout.h"

namespace gradoop::query {
namespace {

epgm::LogicalGraph SmallLdbc() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  return ldbc::LdbcGenerator(cfg).Generate(dataflow::MakeContext());
}

PlannerOptions BatchOptions(int batch_size = exec::kDefaultBatchSize) {
  PlannerOptions options;
  options.engine = PlannerOptions::ExecutionEngine::kBatch;
  options.batch_size = batch_size;
  return options;
}

// The differential corpus: the paper's six queries (joins, expansions,
// scan predicates) plus shapes they do not cover — a value join, RETURN
// DISTINCT and LIMIT.
std::vector<std::string> Corpus() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  const auto elements = ldbc::LdbcGenerator(cfg).GenerateElements();
  const std::string name =
      ldbc::PickFirstName(elements, ldbc::Selectivity::kLow);
  return {
      ldbc::Query1(name),
      ldbc::Query2(name),
      ldbc::Query3(name),
      ldbc::Query4(),
      ldbc::Query5(),
      ldbc::Query6(),
      // Value join between disjoint components.
      "MATCH (a:Person)-[:isLocatedIn]->(c1:City), "
      "(b:Person)-[:isLocatedIn]->(c2:City) "
      "WHERE a.firstName = b.firstName RETURN *",
      "MATCH (p:Person)-[:hasInterest]->(t:Tag) RETURN DISTINCT t.name",
      "MATCH (p1:Person)-[:knows]->(p2:Person) RETURN p1, p2 LIMIT 25",
  };
}

// Canonical result: every embedding's exact wire encoding, sorted. Two
// engines agree iff these vectors are equal byte for byte (join order
// inside one plan is fixed, only partition/emission order may differ).
std::vector<std::string> Canonical(CypherEngine* engine,
                                   const std::string& query) {
  auto result = engine->Execute(query);
  EXPECT_TRUE(result.ok()) << query << " -> " << result.status();
  std::vector<std::string> rows;
  if (!result.ok()) return rows;
  for (const Embedding& e : result.value().embeddings.data.Collect()) {
    std::string encoded;
    e.EncodeTo(&encoded);
    rows.push_back(std::move(encoded));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(BatchEngineTest, RowAndBatchByteIdenticalOnCorpus) {
  auto graph = SmallLdbc();
  CypherEngine row(graph);
  CypherEngine batch(graph, BatchOptions());
  // A tiny batch size forces every kernel across its flush boundaries
  // (scans, join probes and residual rollbacks all straddle batches).
  CypherEngine tiny(graph, BatchOptions(/*batch_size=*/7));
  for (const std::string& q : Corpus()) {
    const std::vector<std::string> expected = Canonical(&row, q);
    EXPECT_EQ(expected, Canonical(&batch, q)) << q;
    EXPECT_EQ(expected, Canonical(&tiny, q)) << q;
  }
}

TEST(BatchEngineTest, BothMorphismSemanticsAgree) {
  auto graph = SmallLdbc();
  CypherEngine row(graph);
  CypherEngine batch(graph, BatchOptions(/*batch_size=*/16));
  for (const MorphismSetting& semantics :
       {MorphismSetting::Neo4j(), MorphismSetting::FullIsomorphism()}) {
    for (const std::string& q : {ldbc::Query5(), ldbc::Query6()}) {
      auto a = row.Execute(q, semantics);
      auto b = batch.Execute(q, semantics);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(a.value().embeddings.data.Count(),
                b.value().embeddings.data.Count())
          << q;
    }
  }
}

TEST(BatchEngineTest, RuntimeAuditsCleanUnderBatchEngine) {
  auto graph = SmallLdbc();
  // Broadcast off so repartition joins (and their elisions) actually run;
  // the memory audit aborts the process on a violated bound and the
  // partitioning audit aborts on a misplaced record, so surviving the
  // corpus is the assertion.
  PlannerOptions options = BatchOptions(/*batch_size=*/32);
  options.allow_broadcast = false;
  CypherEngine engine(graph, options);
  dataflow::PartitioningAuditStats::Instance().Reset();
  setenv("GRADOOP_AUDIT_MEMORY", "1", 1);
  setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
  for (const std::string& q : {ldbc::Query4(), ldbc::Query5(),
                               ldbc::Query6()}) {
    auto result = engine.Execute(q);
    EXPECT_TRUE(result.ok()) << q << " -> " << result.status();
  }
  unsetenv("GRADOOP_AUDIT_MEMORY");
  unsetenv("GRADOOP_AUDIT_PARTITIONING");
  const auto& audit = dataflow::PartitioningAuditStats::Instance();
  EXPECT_GT(audit.checks(), 0u);
  EXPECT_EQ(audit.misplaced_records(), 0u);
}

TEST(BatchEngineTest, ScanSharingWorksUnderBatchEngine) {
  auto graph = SmallLdbc();
  PlannerOptions shared_options = BatchOptions();
  shared_options.share_scan_results = true;
  CypherEngine row(graph);
  CypherEngine plain(graph, BatchOptions());
  CypherEngine shared(graph, shared_options);
  // Q6 scans :hasInterest three times; the BatchScanCache must reuse the
  // columnar scan without changing the result.
  const std::vector<std::string> expected = Canonical(&row, ldbc::Query6());
  EXPECT_EQ(expected, Canonical(&plain, ldbc::Query6()));
  EXPECT_EQ(expected, Canonical(&shared, ldbc::Query6()));
}

TEST(BatchEngineTest, ExplainRendersBatchLayoutOnlyUnderBatchEngine) {
  auto graph = SmallLdbc();
  CypherEngine row(graph);
  CypherEngine batch(graph, BatchOptions());
  CypherEngine sized(graph, BatchOptions(/*batch_size=*/256));
  auto row_plan = row.Explain(ldbc::Query5());
  auto batch_plan = batch.Explain(ldbc::Query5());
  auto sized_plan = sized.Explain(ldbc::Query5());
  ASSERT_TRUE(row_plan.ok()) << row_plan.status();
  ASSERT_TRUE(batch_plan.ok()) << batch_plan.status();
  ASSERT_TRUE(sized_plan.ok()) << sized_plan.status();
  // Row-engine EXPLAIN stays byte-stable: no batch annotations at all.
  EXPECT_EQ(row_plan.value().find("batch="), std::string::npos);
  EXPECT_NE(batch_plan.value().find("batch=1024"), std::string::npos)
      << batch_plan.value();
  EXPECT_NE(sized_plan.value().find("batch=256"), std::string::npos)
      << sized_plan.value();
}

TEST(BatchEngineTest, ExplainAnalyzeReportsBatchesAndSelectivity) {
  auto graph = SmallLdbc();
  CypherEngine batch(graph, BatchOptions());
  auto analyzed = batch.ExplainAnalyze(ldbc::Query5());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed.value().find("batches="), std::string::npos)
      << analyzed.value();
  EXPECT_NE(analyzed.value().find("sel="), std::string::npos)
      << analyzed.value();
  // The row engine records no batches, so the renderer omits them.
  CypherEngine row(graph);
  auto row_analyzed = row.ExplainAnalyze(ldbc::Query5());
  ASSERT_TRUE(row_analyzed.ok()) << row_analyzed.status();
  EXPECT_EQ(row_analyzed.value().find("batches="), std::string::npos);
}

TEST(BatchEngineTest, VerifierRejectsTamperedBatchLayout) {
  auto graph = SmallLdbc();
  CypherEngine engine(graph);
  auto result = engine.Execute(ldbc::Query5());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result.value().physical, nullptr);
  const int num_workers = graph.vertices().context()->num_workers();
  ASSERT_TRUE(analysis::VerifyCompiledPlan(result.value().query_graph,
                                           *result.value().physical,
                                           num_workers)
                  .ok());
  // An all-zero layout is not what DeriveBatchLayout yields.
  result.value().physical->set_batch_layout(exec::BatchLayout{});
  const Status s = analysis::VerifyCompiledPlan(
      result.value().query_graph, *result.value().physical, num_workers);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("batch layout"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("not derivable"), std::string::npos)
      << s.message();
}

TEST(BatchEngineTest, VerifierRejectsMismatchedBatchSize) {
  // A plan compiled for one batch size does not verify against another:
  // the claim pins the exact buffer capacity the kernels will allocate.
  auto graph = SmallLdbc();
  CypherEngine engine(graph, BatchOptions(/*batch_size=*/512));
  auto result = engine.Execute(ldbc::Query5());
  ASSERT_TRUE(result.ok()) << result.status();
  const int num_workers = graph.vertices().context()->num_workers();
  EXPECT_TRUE(analysis::VerifyCompiledPlan(result.value().query_graph,
                                           *result.value().physical,
                                           num_workers, /*batch_size=*/512)
                  .ok());
  const Status s = analysis::VerifyCompiledPlan(
      result.value().query_graph, *result.value().physical, num_workers,
      /*batch_size=*/1024);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("batch layout"), std::string::npos)
      << s.message();
}

TEST(BatchEngineTest, ManyOneRowBatchesConvertToRowsInOrder) {
  // 20 000 one-row batches in a single partition: the conversion appends
  // them all to one output vector, which must grow geometrically (an
  // exact per-batch reserve made this quadratic) and keep every row's
  // bytes and position.
  auto ctx = dataflow::MakeContext();
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddIdColumn("p", EntryType::kPath);
  meta.AddPropertyColumn("a", "name");
  auto parts = std::make_shared<dataflow::Dataset<Embedding>::Partitions>(
      ctx->num_workers());
  for (uint64_t i = 0; i < 20000; ++i) {
    Embedding e;
    e.AppendId(i);
    e.AppendPath({1000 + i, 2000 + i, 3000 + i});
    e.AppendProperty(epgm::PropertyValue("n" + std::to_string(i)));
    (*parts)[0].push_back(std::move(e));
  }
  const std::vector<Embedding> rows = (*parts)[0];
  EmbeddingSet input{dataflow::Dataset<Embedding>(ctx, std::move(parts)),
                     meta};
  const BatchSet batches = RowsToBatches(input, /*batch_size=*/1);
  ASSERT_EQ(batches.data.partition(0).size(), 20000u);
  const EmbeddingSet converted = BatchesToRows(batches);
  EXPECT_TRUE(converted.data.partition(0) == rows);
  for (int p = 1; p < converted.data.num_partitions(); ++p) {
    EXPECT_TRUE(converted.data.partition(p).empty());
  }
}

}  // namespace
}  // namespace gradoop::query
