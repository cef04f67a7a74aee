// Model identity of variable-length Expand: the simulated-cluster figures
// of LDBC Q2 and Q3 (both expand `replyOf*`) are pinned on both engines.
// The host kernel may change how it evaluates the hops; what the cost
// model charges for them (one exchange and one build/probe stage per hop)
// must not move.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "dataflow/execution_context.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"

namespace gradoop::query {
namespace {

struct ModelFigures {
  double simulated_sec = 0.0;
  uint64_t records = 0;
  uint64_t network_bytes = 0;
  uint64_t spilled_bytes = 0;
  int stages = 0;
  uint64_t peak_bytes = 0;
  uint64_t matches = 0;
};

// sf 0.1 with a 256 KiB worker budget: the replyOf build side spills, so
// the spill model is part of what every hop replays.
epgm::LogicalGraph Graph() {
  dataflow::ClusterConfig config;
  config.worker_memory_bytes = 256ull << 10;
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.1;
  return ldbc::LdbcGenerator(cfg).Generate(dataflow::MakeContext(config));
}

std::string Name() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.1;
  return ldbc::PickFirstName(ldbc::LdbcGenerator(cfg).GenerateElements(),
                             ldbc::Selectivity::kLow);
}

ModelFigures Measure(CypherEngine* engine, const std::string& query) {
  dataflow::ExecutionContext& ctx = *engine->graph().context();
  ctx.tracker().Reset();
  auto result = engine->Execute(query);
  EXPECT_TRUE(result.ok()) << result.status();
  ModelFigures f;
  if (!result.ok()) return f;
  f.simulated_sec = ctx.tracker().SimulatedSeconds();
  f.records = ctx.tracker().TotalRecords();
  f.network_bytes = ctx.tracker().NetworkBytes();
  f.spilled_bytes = ctx.tracker().SpilledBytes();
  f.stages = ctx.tracker().NumStages();
  f.peak_bytes = ctx.accountant().peak_bytes();
  f.matches = result.value().embeddings.data.Count();
  return f;
}

void ExpectFigures(const ModelFigures& actual, const ModelFigures& expected,
                   const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_DOUBLE_EQ(actual.simulated_sec, expected.simulated_sec);
  EXPECT_EQ(actual.records, expected.records);
  EXPECT_EQ(actual.network_bytes, expected.network_bytes);
  EXPECT_EQ(actual.spilled_bytes, expected.spilled_bytes);
  EXPECT_EQ(actual.stages, expected.stages);
  EXPECT_EQ(actual.peak_bytes, expected.peak_bytes);
  EXPECT_EQ(actual.matches, expected.matches);
}

// Captured before the Expand kernel hoisted its edge exchange and build
// out of the hop loop; the model must not notice that change. Row and
// batch differ because the batch engine still charges per batch
// (ROADMAP item 1), not because of Expand.
TEST(ExpandModelTest, Q2AndQ3FiguresArePinnedOnBothEngines) {
  auto graph = Graph();
  const std::string name = Name();
  PlannerOptions batch;
  batch.engine = PlannerOptions::ExecutionEngine::kBatch;
  CypherEngine row_engine(graph);
  CypherEngine batch_engine(graph, batch);

  ExpectFigures(Measure(&row_engine, ldbc::Query2(name)),
                {1.4371816400000001, 30539u, 452004u, 0u, 44, 530876u, 438u},
                "row Q2");
  ExpectFigures(Measure(&row_engine, ldbc::Query3(name)),
                {4.3281304668205323, 188867u, 7762224u, 15036u, 52, 5167336u,
                 81u},
                "row Q3");
  ExpectFigures(Measure(&batch_engine, ldbc::Query2(name)),
                {1.3364761200000002, 21072u, 435039u, 0u, 47, 534904u, 438u},
                "batch Q2");
  ExpectFigures(Measure(&batch_engine, ldbc::Query3(name)),
                {3.9452679902487682, 145442u, 7883442u, 106716u, 55, 5347336u,
                 81u},
                "batch Q3");
}

}  // namespace
}  // namespace gradoop::query
