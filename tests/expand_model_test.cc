// Model identity of variable-length Expand: the simulated-cluster figures
// of LDBC Q2 and Q3 (both expand `replyOf*`) and of expansions over an
// edge type alternation and an unlabeled relationship are pinned on both
// engines. The host kernel may change how it evaluates the hops, and the
// engine keeps Expand's edge build side from one query to the next; what
// the cost model charges for the hops (one exchange and one build/probe
// stage per hop) must not move, whether or not the build was cached.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "dataflow/execution_context.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"
#include "query/naive_matcher.h"

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

// The figures as a brace literal, for re-pinning after a deliberate
// model change.
std::string Literal(const ModelFigures& f) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%.17g, %lluu, %lluu, %lluu, %d, %lluu, %lluu}",
                f.simulated_sec, static_cast<unsigned long long>(f.records),
                static_cast<unsigned long long>(f.network_bytes),
                static_cast<unsigned long long>(f.spilled_bytes), f.stages,
                static_cast<unsigned long long>(f.peak_bytes),
                static_cast<unsigned long long>(f.matches));
  return buf;
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
  SCOPED_TRACE(what + ": actual " + Literal(actual));
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

PlannerOptions EngineOptions(PlannerOptions::ExecutionEngine engine) {
  PlannerOptions options;
  options.engine = engine;
  return options;
}

const char* EngineName(PlannerOptions::ExecutionEngine engine) {
  return engine == PlannerOptions::ExecutionEngine::kBatch ? "batch" : "row";
}

constexpr PlannerOptions::ExecutionEngine kEngines[] = {
    PlannerOptions::ExecutionEngine::kRow,
    PlannerOptions::ExecutionEngine::kBatch};

// The second run of a query on an engine finds Expand's edge build side
// cached; the model sees the same query both times.
TEST(ExpandModelTest, Q2FiguresRepeatAcrossRunsOnBothEngines) {
  auto graph = Graph();
  const std::string query = ldbc::Query2(Name());
  for (const auto engine : kEngines) {
    CypherEngine cypher(graph, EngineOptions(engine));
    const ModelFigures first = Measure(&cypher, query);
    EXPECT_GT(first.matches, 0u);
    ExpectFigures(Measure(&cypher, query), first,
                  std::string(EngineName(engine)) + " Q2, second run");
  }
}

int ExpandStepStages(const dataflow::ExecutionContext& ctx) {
  int n = 0;
  for (const dataflow::StageCost& stage : ctx.tracker().Stages()) {
    if (stage.label.rfind("ExpandStep", 0) == 0) ++n;
  }
  return n;
}

// A cancel that trips while the first Expand prepares its edge side
// leaves nothing cached: the next run builds again and matches an engine
// that never saw the cancel, in results and in every model figure.
TEST(ExpandModelTest, BuildInterruptedByCancellationIsNotKept) {
  auto graph = Graph();
  const std::string query = ldbc::Query2(Name());
  for (const auto engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    CypherEngine clean(graph, EngineOptions(engine));
    const ModelFigures want = Measure(&clean, query);

    CypherEngine cypher(graph, EngineOptions(engine));
    dataflow::ExecutionContext& ctx = *cypher.graph().context();
    // Q2 expands replyOf*0..10: the hop-0 emission is the stage right
    // before the edge side's exchange, which polls once per routed edge.
    // Once every worker finished it, arm the token to trip ten polls on.
    std::atomic<int> emitted{0};
    ctx.pool().set_task_hook([&](const dataflow::ThreadPool::TaskTiming& t) {
      if (t.label == nullptr ||
          std::string_view(t.label) != "ExpandEmitZero") {
        return;
      }
      if (emitted.fetch_add(1) + 1 == ctx.num_workers()) {
        ctx.cancellation().InjectCancelAfter(ctx.cancellation().polls() +
                                             10);
      }
    });
    ctx.tracker().Reset();
    auto cancelled = cypher.Execute(query);
    ctx.pool().set_task_hook(nullptr);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(emitted.load(), ctx.num_workers());
    EXPECT_EQ(ExpandStepStages(ctx), 0) << "the trip missed the build";

    std::vector<std::string> clean_rows, rows;
    ExpectFigures(Measure(&cypher, query), want, "after the cancelled build");
    ExpectFigures(Measure(&cypher, query), want, "with the cached build");
    for (auto [engine_ptr, out] :
         {std::pair{&clean, &clean_rows}, std::pair{&cypher, &rows}}) {
      auto result = engine_ptr->Execute(query);
      ASSERT_TRUE(result.ok()) << result.status();
      for (const Embedding& e : result.value().embeddings.data.Collect()) {
        out->emplace_back();
        e.EncodeTo(&out->back());
      }
      std::sort(out->begin(), out->end());
    }
    EXPECT_EQ(rows, clean_rows);
  }
}

// A small graph whose Expand edge sides span several edge types: 16
// Person and 32 Message vertices and 160 knows, replyOf and hasCreator
// edges drawn from a fixed seed.
struct MixedGraph {
  std::vector<epgm::Vertex> vertices;
  std::vector<epgm::Edge> edges;
};

MixedGraph MakeMixedGraph() {
  Random rng(11);
  MixedGraph g;
  for (uint64_t id = 1; id <= 48; ++id) {
    epgm::Properties props;
    props.Set("x", static_cast<int64_t>(rng.NextUint64(4)));
    g.vertices.emplace_back(id, id <= 16 ? "Person" : "Message",
                            std::move(props));
  }
  const char* const types[] = {"knows", "replyOf", "hasCreator"};
  for (uint64_t i = 0; i < 160; ++i) {
    const char* type = types[rng.NextUint64(3)];
    const uint64_t source = 1 + rng.NextUint64(48);
    const uint64_t target = 1 + rng.NextUint64(48);
    g.edges.emplace_back(1000 + i, type, source, target);
  }
  return g;
}

std::vector<NaiveBinding> Bindings(const EmbeddingSet& set) {
  std::vector<NaiveBinding> out;
  for (const Embedding& e : set.data.Collect()) {
    NaiveBinding b;
    for (const std::string& var : set.meta.Variables()) {
      const int c = set.meta.IdColumn(var);
      if (e.IsPathEntry(c)) {
        b.paths[var] = e.PathAt(c);
      } else {
        b.elements[var] = e.IdAt(c);
      }
    }
    out.push_back(std::move(b));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Expand over a type alternation (whose edge datasets the engine
// concatenates into one build side) and over an unlabeled relationship
// (every edge type): results equal the naive oracle under all four
// morphism settings, and the figures equal those the engine charged
// before it kept the build side, on both runs.
TEST(ExpandModelTest, AlternationAndUnlabeledMatchOracleAndPinnedFigures) {
  const MixedGraph g = MakeMixedGraph();
  auto graph = epgm::LogicalGraph::FromVectors(
      dataflow::MakeContext(), epgm::GraphHead(0, "G"), g.vertices, g.edges);
  const NaiveMatcher oracle(g.vertices, g.edges);
  struct Case {
    const char* query;
    ModelFigures row;
    ModelFigures batch;
  };
  const Case cases[] = {
      {"MATCH (a:Person)-[e:replyOf|hasCreator*1..3]->(b) RETURN *",
       {0.30621160000000003, 1372u, 13395u, 0u, 14, 19922u, 262u},
       {0.37511159999999993, 1642u, 13395u, 0u, 17, 15928u, 262u}},
      {"MATCH (a:Person)-[e*1..2]->(b) RETURN *",
       {0.22444227999999999, 1302u, 12363u, 0u, 10, 19671u, 245u},
       {0.29264227999999998, 1555u, 12363u, 0u, 13, 19531u, 245u}},
  };
  MorphismSetting vertex_iso_only = MorphismSetting::FullHomomorphism();
  vertex_iso_only.vertex = MatchSemantics::kIsomorphism;
  const MorphismSetting settings[] = {
      MorphismSetting::Neo4j(), MorphismSetting::FullIsomorphism(),
      MorphismSetting::FullHomomorphism(), vertex_iso_only};
  for (const auto engine : kEngines) {
    CypherEngine cypher(graph, EngineOptions(engine));
    for (const Case& c : cases) {
      const std::string what =
          std::string(EngineName(engine)) + " " + c.query;
      const ModelFigures& pinned =
          engine == PlannerOptions::ExecutionEngine::kBatch ? c.batch : c.row;
      ExpectFigures(Measure(&cypher, c.query), pinned, what + ", first run");
      ExpectFigures(Measure(&cypher, c.query), pinned, what + ", second run");
      for (const MorphismSetting& semantics : settings) {
        auto result = cypher.Execute(c.query, semantics);
        ASSERT_TRUE(result.ok()) << what << ": " << result.status();
        const std::vector<NaiveBinding> actual =
            Bindings(result.value().embeddings);
        std::vector<NaiveBinding> expected =
            oracle.FindMatches(result.value().query_graph, semantics);
        std::sort(expected.begin(), expected.end());
        EXPECT_FALSE(expected.empty()) << what;
        EXPECT_EQ(actual, expected) << what;
      }
    }
  }
}

}  // namespace
}  // namespace gradoop::query
