// Partitioning-property analysis: the lattice and transfer functions,
// the shuffle-elision proof obligations, the runtime audit that checks
// the proofs record-by-record, the verifier that re-derives every claim,
// and the pinned end-to-end regression the analysis exists for — two
// consecutive same-key joins executing with strictly fewer shuffle bytes
// than the analysis-disabled run while producing identical embeddings.
#include "query/exec/partitioning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/plan_verifier.h"
#include "cypher/parser.h"
#include "dataflow/dataset.h"
#include "dataflow/partitioning_audit.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"
#include "query/exec/plan_compiler.h"
#include "query/planner.h"

namespace gradoop::query {
namespace {

using dataflow::CountMisplacedRecords;
using dataflow::PartitioningAuditStats;
using exec::DeriveLogicalPartitioning;
using exec::ElidesShuffle;
using exec::PartitioningProperty;
using exec::PartitionKeyKind;
using exec::ValueKeySideTokens;

// --- lattice elements and rendering -----------------------------------

TEST(PartitioningPropertyTest, ToStringRendersEveryElement) {
  EXPECT_EQ(PartitioningProperty::Random().ToString(), "random");
  EXPECT_EQ(PartitioningProperty::Replicated().ToString(), "replicated");
  EXPECT_EQ(PartitioningProperty::Singleton().ToString(), "singleton");
  EXPECT_EQ(PartitioningProperty::HashOnVariables({"a", "b"}).ToString(),
            "hash(a,b)");
  EXPECT_EQ(PartitioningProperty::HashOnValues({"a.x", "b.y"}).ToString(),
            "hash-values(a.x,b.y)");
}

TEST(PartitioningPropertyTest, EqualityIsStructural) {
  EXPECT_EQ(PartitioningProperty::HashOnVariables({"a"}),
            PartitioningProperty::HashOnVariables({"a"}));
  EXPECT_FALSE(PartitioningProperty::HashOnVariables({"a"}) ==
               PartitioningProperty::HashOnValues({"a"}));
  EXPECT_FALSE(PartitioningProperty::Random() ==
               PartitioningProperty::Singleton());
}

// --- the elision proof obligation -------------------------------------

TEST(ElidesShuffleTest, RequiresExactKeySequenceInMatchingDomain) {
  const auto hash_a = PartitioningProperty::HashOnVariables({"a"});
  const auto hash_ab = PartitioningProperty::HashOnVariables({"a", "b"});

  EXPECT_TRUE(ElidesShuffle(hash_a, PartitionKeyKind::kIdColumns, {"a"}));
  EXPECT_TRUE(
      ElidesShuffle(hash_ab, PartitionKeyKind::kIdColumns, {"a", "b"}));

  // Key order is part of the hash bytes: hash(a,b) != hash(b,a).
  EXPECT_FALSE(
      ElidesShuffle(hash_ab, PartitionKeyKind::kIdColumns, {"b", "a"}));
  // A prefix or superset of the key is a different key.
  EXPECT_FALSE(ElidesShuffle(hash_ab, PartitionKeyKind::kIdColumns, {"a"}));
  EXPECT_FALSE(
      ElidesShuffle(hash_a, PartitionKeyKind::kIdColumns, {"a", "b"}));
  // Id-column keys never satisfy value-key requirements or vice versa —
  // the key bytes differ even when the tokens collide textually.
  EXPECT_FALSE(ElidesShuffle(hash_a, PartitionKeyKind::kPropertyValues,
                             {"a"}));
  EXPECT_FALSE(ElidesShuffle(PartitioningProperty::HashOnValues({"a.x"}),
                             PartitionKeyKind::kIdColumns, {"a.x"}));
  EXPECT_TRUE(ElidesShuffle(PartitioningProperty::HashOnValues({"a.x"}),
                            PartitionKeyKind::kPropertyValues, {"a.x"}));
}

TEST(ElidesShuffleTest, NonHashElementsNeverElide) {
  for (const auto& p :
       {PartitioningProperty::Random(), PartitioningProperty::Replicated(),
        PartitioningProperty::Singleton()}) {
    EXPECT_FALSE(ElidesShuffle(p, PartitionKeyKind::kIdColumns, {"a"}))
        << p.ToString();
  }
  // The empty (cartesian) key never elides, whatever the input claims.
  EXPECT_FALSE(ElidesShuffle(PartitioningProperty::HashOnVariables({}),
                             PartitionKeyKind::kIdColumns, {}));
  EXPECT_FALSE(ElidesShuffle(PartitioningProperty::Singleton(),
                             PartitionKeyKind::kIdColumns, {}));
}

TEST(ValueKeySideTokensTest, SplitsDescriptionsAtFirstEquals) {
  const std::vector<std::string> keys = {"a.x=b.y", "c.z=d.w"};
  EXPECT_EQ(ValueKeySideTokens(keys, /*right_side=*/false),
            (std::vector<std::string>{"a.x", "c.z"}));
  EXPECT_EQ(ValueKeySideTokens(keys, /*right_side=*/true),
            (std::vector<std::string>{"b.y", "d.w"}));
}

// --- transfer functions over logical plans ----------------------------

PlanNodePtr ScanNode() {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNode::Kind::kScanVertices;
  n->element_index = 0;
  return n;
}

PlanNodePtr JoinNode(PlanNodePtr left, PlanNodePtr right,
                     std::vector<std::string> on,
                     dataflow::JoinStrategy strategy) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNode::Kind::kJoin;
  n->left = std::move(left);
  n->right = std::move(right);
  n->join_variables = std::move(on);
  n->join_strategy = strategy;
  return n;
}

PlanNodePtr FilterNode(PlanNodePtr child) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNode::Kind::kFilter;
  n->left = std::move(child);
  return n;
}

TEST(DeriveLogicalPartitioningTest, TransferFunctions) {
  // Leaves produce no invariant.
  EXPECT_EQ(DeriveLogicalPartitioning(*ScanNode()),
            PartitioningProperty::Random());

  // A repartition join leaves its output hash-partitioned on the key.
  auto join = JoinNode(ScanNode(), ScanNode(), {"a"},
                       dataflow::JoinStrategy::kRepartition);
  EXPECT_EQ(DeriveLogicalPartitioning(*join),
            PartitioningProperty::HashOnVariables({"a"}));

  // Filters keep records in place, so the property flows through.
  EXPECT_EQ(DeriveLogicalPartitioning(*FilterNode(join)),
            PartitioningProperty::HashOnVariables({"a"}));

  // A broadcast join leaves the probe (left) side's layout untouched.
  auto broadcast = JoinNode(join, ScanNode(), {"a"},
                            dataflow::JoinStrategy::kBroadcast);
  EXPECT_EQ(DeriveLogicalPartitioning(*broadcast),
            PartitioningProperty::HashOnVariables({"a"}));
  auto broadcast_over_scan = JoinNode(ScanNode(), ScanNode(), {"a"},
                                      dataflow::JoinStrategy::kBroadcast);
  EXPECT_EQ(DeriveLogicalPartitioning(*broadcast_over_scan),
            PartitioningProperty::Random());

  // A cartesian repartition join hashes the empty key: everything lands
  // in one partition.
  auto cartesian = JoinNode(ScanNode(), ScanNode(), {},
                            dataflow::JoinStrategy::kRepartition);
  EXPECT_EQ(DeriveLogicalPartitioning(*cartesian),
            PartitioningProperty::Singleton());
}

// --- the runtime audit primitive --------------------------------------

TEST(PartitioningAuditTest, CountMisplacedRecordsFindsTheStray) {
  const size_t p = 4;
  std::hash<uint64_t> hasher;
  std::vector<std::vector<uint64_t>> parts(p);
  for (uint64_t v = 0; v < 40; ++v) parts[hasher(v) % p].push_back(v);

  auto key = [](const uint64_t& v) { return v; };
  uint64_t checked = 0;
  EXPECT_EQ(CountMisplacedRecords(parts, key, &checked), 0u);
  EXPECT_EQ(checked, 40u);

  // Move one record to a partition its hash does not map to.
  const uint64_t stray = parts[0].back();
  parts[0].pop_back();
  parts[(hasher(stray) % p + 1) % p].push_back(stray);
  EXPECT_EQ(CountMisplacedRecords(parts, key, &checked), 1u);
  EXPECT_EQ(checked, 40u);
}

TEST(PartitioningAuditTest, StatsTallyAndReset) {
  PartitioningAuditStats& stats = PartitioningAuditStats::Instance();
  stats.Reset();
  EXPECT_EQ(stats.checks(), 0u);
  stats.RecordCheck(/*records=*/10, /*misplaced=*/2);
  stats.RecordCheck(/*records=*/5, /*misplaced=*/0);
  EXPECT_EQ(stats.checks(), 2u);
  EXPECT_EQ(stats.records_checked(), 15u);
  EXPECT_EQ(stats.misplaced_records(), 2u);
  stats.Reset();
  EXPECT_EQ(stats.records_checked(), 0u);
}

TEST(PartitioningAuditDeathTest, AuditAbortsOnMisplacedElidedInput) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // FromVector places element i in partition i % p; with values i+1 and
  // an identity-style key every record re-hashes to (i+1) % p — a layout
  // an elided shuffle must reject wholesale once the audit runs.
  auto run = [] {
    setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
    auto ctx = dataflow::MakeContext();
    std::vector<uint64_t> data(64);
    for (size_t i = 0; i < data.size(); ++i) data[i] = i + 1;
    auto left = dataflow::Dataset<uint64_t>::FromVector(ctx, data);
    auto right = dataflow::Dataset<uint64_t>::FromVector(ctx, data);
    auto key = [](const uint64_t& v) { return v; };
    auto join = left.HashJoin<uint64_t>(
        right, key, key,
        [](const uint64_t& l, const uint64_t&, std::vector<uint64_t>* out) {
          out->push_back(l);
        },
        dataflow::JoinStrategy::kRepartition, "AuditProbe",
        {/*left_prepartitioned=*/true, /*right_prepartitioned=*/false});
    (void)join;
  };
  EXPECT_DEATH(run(), "partitioning audit FAILED");
}

TEST(PartitioningAuditTest, CorrectlyPlacedElidedInputPassesTheAudit) {
  setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
  PartitioningAuditStats& stats = PartitioningAuditStats::Instance();
  stats.Reset();
  auto ctx = dataflow::MakeContext();
  const int p = ctx->num_workers();
  // Element i of the source vector lands in partition i % p; choosing
  // values v with hash(v) % p == i % p makes the layout genuinely
  // hash-partitioned, so adopting it must pass.
  std::hash<uint64_t> hasher;
  std::vector<uint64_t> data;
  for (uint64_t v = 0; data.size() < 64; ++v) {
    if (hasher(v) % p == data.size() % p) data.push_back(v);
  }
  auto left = dataflow::Dataset<uint64_t>::FromVector(ctx, data);
  auto right = dataflow::Dataset<uint64_t>::FromVector(ctx, data);
  auto key = [](const uint64_t& v) { return v; };
  auto join = left.HashJoin<uint64_t>(
      right, key, key,
      [](const uint64_t& l, const uint64_t&, std::vector<uint64_t>* out) {
        out->push_back(l);
      },
      dataflow::JoinStrategy::kRepartition, "AuditProbe",
      {/*left_prepartitioned=*/true, /*right_prepartitioned=*/false});
  unsetenv("GRADOOP_AUDIT_PARTITIONING");
  EXPECT_EQ(join.Collect().size(), 64u);
  EXPECT_EQ(stats.checks(), 1u);
  EXPECT_EQ(stats.records_checked(), 64u);
  EXPECT_EQ(stats.misplaced_records(), 0u);
}

// --- compiled plans: claims, elisions, and the verifier ---------------

const std::vector<std::string>& LdbcQueries() {
  static const std::vector<std::string> queries = {
      ldbc::Query1("X"), ldbc::Query2("X"), ldbc::Query3("X"),
      ldbc::Query4(),    ldbc::Query5(),    ldbc::Query6()};
  return queries;
}

epgm::LogicalGraph LdbcGraph() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  return ldbc::LdbcGenerator(cfg).Generate(dataflow::MakeContext());
}

cypher::QueryGraph QG(const std::string& text) {
  auto ast = cypher::ParseCypher(text);
  EXPECT_TRUE(ast.ok()) << ast.status();
  auto qg = cypher::QueryGraph::Build(ast.value());
  EXPECT_TRUE(qg.ok()) << qg.status();
  return std::move(qg).value();
}

// Embeddings as a sorted multiset of plan-shape-independent rows: the
// raw embedding layout depends on the join order (which the elision
// tie-break legitimately changes), so rows are canonicalized to sorted
// variable->binding plus sorted access->value text before comparing.
std::vector<std::string> CanonicalRows(const EmbeddingSet& set) {
  const EmbeddingMetaData& meta = set.meta;
  std::vector<std::string> vars = meta.Variables();
  std::sort(vars.begin(), vars.end());
  auto props = meta.PropertyColumnsInOrder();
  std::sort(props.begin(), props.end());
  std::vector<std::string> rows;
  for (const Embedding& e : set.data.Collect()) {
    std::string row;
    for (const std::string& v : vars) {
      const int col = meta.IdColumn(v);
      if (col < 0) continue;
      row += v;
      row += '=';
      if (e.IsPathEntry(col)) {
        for (const uint64_t id : e.PathAt(col)) {
          row += std::to_string(id);
          row += ',';
        }
      } else {
        row += std::to_string(e.IdAt(col));
      }
      row += ';';
    }
    for (const auto& [v, k] : props) {
      row += v;
      row += '.';
      row += k;
      row += '=';
      e.PropertyAt(meta.PropertyColumn(v, k)).EncodeTo(&row);
      row += ';';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Walks the physical tree collecting every operator.
void CollectOps(const exec::PhysicalOperatorPtr& op,
                std::vector<exec::PhysicalOperator*>* out) {
  out->push_back(op.get());
  for (const auto& child : op->children()) CollectOps(child, out);
}

TEST(PartitioningAnalysisTest, EveryCompiledOperatorCarriesADerivableClaim) {
  auto graph = LdbcGraph();
  PlannerOptions options;
  options.allow_broadcast = false;
  CypherEngine engine(graph, options);
  for (const std::string& q : LdbcQueries()) {
    auto result = engine.Execute(q);
    ASSERT_TRUE(result.ok()) << q << " -> " << result.status();
    ASSERT_NE(result.value().physical, nullptr) << q;
    std::vector<exec::PhysicalOperator*> ops;
    CollectOps(result.value().physical, &ops);
    for (exec::PhysicalOperator* op : ops) {
      ASSERT_TRUE(op->has_output_partitioning()) << q;
      EXPECT_EQ(op->output_partitioning(), exec::DerivePartitioning(*op))
          << q;
    }
    EXPECT_TRUE(
        analysis::VerifyCompiledPlan(result.value().query_graph,
                                     *result.value().physical)
            .ok())
        << q;
  }
}

TEST(PartitioningAnalysisTest, VerifierRejectsTamperedPartitioningClaim) {
  auto graph = LdbcGraph();
  PlannerOptions options;
  options.allow_broadcast = false;
  CypherEngine engine(graph, options);
  auto result = engine.Execute(ldbc::Query4());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result.value().physical, nullptr);

  // A claim the transfer function cannot derive must not verify.
  result.value().physical->set_output_partitioning(
      PartitioningProperty::HashOnVariables({"made_up"}));
  const Status s = analysis::VerifyCompiledPlan(result.value().query_graph,
                                                *result.value().physical);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("partitioning"), std::string::npos)
      << s.message();
}

TEST(PartitioningAnalysisTest, VerifierRejectsUnjustifiedElision) {
  auto graph = LdbcGraph();
  auto stats = GraphStatistics::Compute(graph);
  // Two scans joined on one variable: with elision compiled off, neither
  // join side is co-partitioned, so granting an elision by hand is a lie
  // the verifier must catch.
  auto qg = QG("MATCH (a)-[e1:knows]->(b), (a)-[e2:likes]->(c) RETURN *");
  PlannerOptions planner_options;
  planner_options.allow_broadcast = false;
  auto plan = PlanQuery(qg, stats, planner_options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  exec::CompileOptions options;
  options.elide_shuffles = false;
  exec::PlanCompiler compiler(qg, MorphismSetting::Neo4j(), options);
  auto physical = compiler.Compile(plan.value());
  ASSERT_TRUE(physical.ok()) << physical.status();
  ASSERT_TRUE(analysis::VerifyCompiledPlan(qg, *physical.value()).ok());

  std::vector<exec::PhysicalOperator*> ops;
  CollectOps(physical.value(), &ops);
  exec::JoinOp* join = nullptr;
  for (exec::PhysicalOperator* op : ops) {
    if (op->op_kind() == exec::PhysOpKind::kJoin &&
        static_cast<exec::JoinOp*>(op)->strategy() ==
            dataflow::JoinStrategy::kRepartition &&
        !static_cast<exec::JoinOp*>(op)->join_variables().empty()) {
      join = static_cast<exec::JoinOp*>(op);
      break;
    }
  }
  ASSERT_NE(join, nullptr) << "plan has no repartition join:\n"
                           << physical.value()->ToString();
  ASSERT_FALSE(join->elide_left_shuffle() || join->elide_right_shuffle());
  join->set_shuffle_elision(/*left=*/true, /*right=*/false);
  const Status s = analysis::VerifyCompiledPlan(qg, *physical.value());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("elided"), std::string::npos) << s.message();
}

TEST(PartitioningAnalysisTest, VerifierRejectsUnjustifiedValueJoinElision) {
  auto graph = LdbcGraph();
  auto stats = GraphStatistics::Compute(graph);
  // A value join between two disjoint components: with elision compiled
  // off, neither side's input is hash-partitioned on its value key, so an
  // elision granted by hand on either side must not verify.
  auto qg = QG(
      "MATCH (a:Person)-[:isLocatedIn]->(c1:City), "
      "(b:Person)-[:isLocatedIn]->(c2:City) "
      "WHERE a.firstName = b.firstName RETURN *");
  PlannerOptions planner_options;
  planner_options.allow_broadcast = false;
  auto plan = PlanQuery(qg, stats, planner_options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  exec::CompileOptions options;
  options.elide_shuffles = false;
  exec::PlanCompiler compiler(qg, MorphismSetting::Neo4j(), options);
  auto physical = compiler.Compile(plan.value());
  ASSERT_TRUE(physical.ok()) << physical.status();
  ASSERT_TRUE(analysis::VerifyCompiledPlan(qg, *physical.value()).ok());

  std::vector<exec::PhysicalOperator*> ops;
  CollectOps(physical.value(), &ops);
  exec::ValueJoinOp* join = nullptr;
  for (exec::PhysicalOperator* op : ops) {
    if (op->op_kind() == exec::PhysOpKind::kValueJoin &&
        static_cast<exec::ValueJoinOp*>(op)->strategy() ==
            dataflow::JoinStrategy::kRepartition) {
      join = static_cast<exec::ValueJoinOp*>(op);
      break;
    }
  }
  ASSERT_NE(join, nullptr) << "plan has no repartition value join:\n"
                           << physical.value()->ToString();
  ASSERT_FALSE(join->elide_left_shuffle() || join->elide_right_shuffle());
  const exec::ShuffleElision grant = exec::GrantShuffleElision(*join);
  EXPECT_FALSE(grant.left || grant.right);
  for (const bool left : {true, false}) {
    join->set_shuffle_elision(left, !left);
    const Status s = analysis::VerifyCompiledPlan(qg, *physical.value());
    EXPECT_FALSE(s.ok()) << (left ? "left" : "right");
    EXPECT_NE(s.message().find(left ? "left shuffle elided"
                                    : "right shuffle elided"),
              std::string::npos)
        << s.message();
  }
}

// --- the pinned regression (ISSUE acceptance criterion) ---------------
//
// LDBC Q4 contains consecutive joins keyed on the same variable. With
// broadcast disabled, the analysis-enabled engine must (a) show elided
// shuffles in EXPLAIN, (b) move strictly fewer shuffle bytes than the
// analysis-disabled engine, and (c) produce identical embeddings.

TEST(PartitioningRegressionTest, ConsecutiveSameKeyJoinsShuffleLessQ4) {
  PlannerOptions elide_on;
  elide_on.allow_broadcast = false;
  PlannerOptions elide_off = elide_on;
  elide_off.elide_shuffles = false;

  auto ctx_on = dataflow::MakeContext();
  auto ctx_off = dataflow::MakeContext();
  ctx_on->EnableTelemetry();
  ctx_off->EnableTelemetry();
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  CypherEngine engine_on(ldbc::LdbcGenerator(cfg).Generate(ctx_on),
                         elide_on);
  CypherEngine engine_off(ldbc::LdbcGenerator(cfg).Generate(ctx_off),
                          elide_off);

  auto rendered = engine_on.Explain(ldbc::Query4());
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  EXPECT_NE(
      rendered.value().find("shuffle=elided (co-partitioned on person)"),
      std::string::npos)
      << rendered.value();

  ctx_on->telemetry().metrics().Reset();
  ctx_off->telemetry().metrics().Reset();
  auto on = engine_on.Execute(ldbc::Query4());
  auto off = engine_off.Execute(ldbc::Query4());
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();

  const auto counters_on = ctx_on->telemetry().metrics().Snapshot().counters;
  const auto counters_off =
      ctx_off->telemetry().metrics().Snapshot().counters;
  auto counter = [](const std::map<std::string, uint64_t>& c,
                    const std::string& name) -> uint64_t {
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
  };
  EXPECT_GE(counter(counters_on, "shuffle.elided.count"), 1u);
  EXPECT_GT(counter(counters_on, "shuffle.elided.bytes"), 0u);
  EXPECT_EQ(counter(counters_off, "shuffle.elided.count"), 0u);
  // The headline claim: strictly fewer total shuffle bytes, and fewer
  // exchanges, with the analysis on.
  EXPECT_LT(counter(counters_on, "shuffle.bytes"),
            counter(counters_off, "shuffle.bytes"));
  EXPECT_LT(counter(counters_on, "shuffle.count"),
            counter(counters_off, "shuffle.count"));

  // Same embeddings, canonicalized (the tie-break may change join order
  // between the two engines, which permutes the raw embedding layout).
  EXPECT_EQ(CanonicalRows(on.value().embeddings),
            CanonicalRows(off.value().embeddings));
}

TEST(PartitioningRegressionTest, AuditedLdbcQueriesMatchUnelidedResults) {
  PlannerOptions elide_on;
  elide_on.allow_broadcast = false;
  PlannerOptions elide_off = elide_on;
  elide_off.elide_shuffles = false;
  CypherEngine engine_on(LdbcGraph(), elide_on);
  CypherEngine engine_off(LdbcGraph(), elide_off);

  PartitioningAuditStats& stats = PartitioningAuditStats::Instance();
  stats.Reset();
  setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
  std::vector<std::vector<std::string>> audited;
  for (const std::string& q : LdbcQueries()) {
    auto result = engine_on.Execute(q);
    ASSERT_TRUE(result.ok()) << q << " -> " << result.status();
    audited.push_back(CanonicalRows(result.value().embeddings));
  }
  unsetenv("GRADOOP_AUDIT_PARTITIONING");
  // The audit must actually have run (a disabled audit trivially
  // "passes") and must have found every record in its proven place.
  EXPECT_GT(stats.checks(), 0u);
  EXPECT_GT(stats.records_checked(), 0u);
  EXPECT_EQ(stats.misplaced_records(), 0u);

  for (size_t i = 0; i < LdbcQueries().size(); ++i) {
    auto result = engine_off.Execute(LdbcQueries()[i]);
    ASSERT_TRUE(result.ok()) << LdbcQueries()[i];
    EXPECT_EQ(audited[i], CanonicalRows(result.value().embeddings))
        << LdbcQueries()[i];
  }
}

}  // namespace
}  // namespace gradoop::query
