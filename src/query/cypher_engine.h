#ifndef GRADOOP_QUERY_CYPHER_ENGINE_H_
#define GRADOOP_QUERY_CYPHER_ENGINE_H_

#include <string>

#include "common/random.h"
#include "common/result.h"
#include "cypher/query_graph.h"
#include "epgm/indexed_logical_graph.h"
#include "epgm/logical_graph.h"
#include "query/exec/physical_operator.h"
#include "query/graph_statistics.h"
#include "query/match_semantics.h"
#include "query/operators.h"
#include "query/plan.h"
#include "query/planner.h"
#include "telemetry/query_profile.h"

namespace gradoop::common {
class CancellationToken;
}  // namespace gradoop::common

namespace gradoop::query {

// Everything produced by one query execution, for callers that need more
// than the match collection (benchmarks, tests, EXPLAIN).
struct CypherMatchResult {
  cypher::QueryGraph query_graph;
  PlanNodePtr plan;
  // The compiled physical plan the embeddings were produced by. After
  // Execute() each operator carries its runtime statistics; null when the
  // query was statically unsatisfiable and nothing was compiled.
  exec::PhysicalOperatorPtr physical;
  EmbeddingSet embeddings;
  // Wall time per engine phase (parse, analyze, plan, compile, execute)
  // and of the whole call; always recorded (the cost is a handful of
  // clock reads). With telemetry enabled each phase is also a "query"
  // span in the trace.
  std::vector<telemetry::PhaseProfile> phases;
  double total_wall_sec = 0.0;
  // Which execution engine produced the embeddings ("row" | "batch"),
  // echoed into query profiles and the query log.
  std::string engine = "row";
};

// The Cypher pattern-matching operator of the EPGM (§3). Owns the indexed
// graph representation and the pre-computed statistics; each call parses,
// plans and executes one query. Mirrors the Java API
// `g.cypher(query, vertexSemantics, edgeSemantics)`.
//
//   CypherEngine engine(graph);
//   auto matches = engine.Match("MATCH (a:Person)-[:knows]->(b) RETURN *",
//                               MorphismSetting::Neo4j());
class CypherEngine {
 public:
  // Builds the label index (§3.4) and graph statistics (§3.2) once.
  explicit CypherEngine(epgm::LogicalGraph graph,
                        PlannerOptions planner_options = {});

  const epgm::LogicalGraph& graph() const { return graph_; }
  const epgm::IndexedLogicalGraph& indexed_graph() const { return indexed_; }
  const GraphStatistics& statistics() const { return stats_; }
  PlannerOptions& planner_options() { return planner_options_; }

  // Memory admission budget (docs/memory.md): when non-zero, Execute()
  // rejects any plan whose static peak-memory bound exceeds the budget
  // with a located GQL007 diagnostic, before anything runs. 0 = unlimited
  // (the default — all queries admitted, byte-identical behavior).
  void set_max_query_memory_bytes(uint64_t bytes) {
    max_query_memory_bytes_ = bytes;
  }
  uint64_t max_query_memory_bytes() const { return max_query_memory_bytes_; }

  // Per-query memory accounting (dataflow/memory_accountant.h): feeds the
  // mem= actuals in EXPLAIN ANALYZE, the memory.bytes.* telemetry gauges
  // and the GRADOOP_AUDIT_MEMORY runtime audit. On by default; benchmarks
  // turn it off to measure its overhead.
  void set_account_memory(bool on) { account_memory_ = on; }
  bool account_memory() const { return account_memory_; }

  // Wall-clock deadline for each subsequent query, in seconds measured
  // from the start of the Execute() call; 0 disables (the default). A
  // query that outlives its deadline unwinds cooperatively — every kernel
  // loop polls the context's CancellationToken — to a located GQL008
  // "query timed out" diagnostic (docs/cancellation.md).
  void set_query_deadline(double seconds) { query_deadline_sec_ = seconds; }
  double query_deadline_sec() const { return query_deadline_sec_; }

  // Requests cooperative cancellation of the currently running query.
  // Safe to call from any thread — the token is all-atomic; the running
  // query unwinds to a GQL008 "query cancelled" diagnostic at its next
  // checkpoint. A no-op between queries (Execute() re-arms the token).
  void Cancel();

  // The engine's cancellation token, owned by the execution context.
  common::CancellationToken& cancellation();

  // Parses, plans, compiles and executes `query`, returning the
  // embeddings plus the logical and compiled plans. The primary entry
  // point for benchmarks and tests.
  Result<CypherMatchResult> Execute(
      const std::string& query,
      const MorphismSetting& semantics = MorphismSetting::Neo4j());

  // Full EPGM operator (Definition 2.4): each match becomes a new logical
  // graph whose head carries the variable bindings as properties; matched
  // vertices/edges record their membership.
  Result<epgm::GraphCollection> Match(
      const std::string& query,
      const MorphismSetting& semantics = MorphismSetting::Neo4j());

  // Number of matches (the paper's reported workload: find and count).
  Result<uint64_t> Count(
      const std::string& query,
      const MorphismSetting& semantics = MorphismSetting::Neo4j());

  // Renders the compiled physical plan without executing it: one line per
  // operator with its fused predicates and estimated cardinality.
  Result<std::string> Explain(
      const std::string& query,
      const MorphismSetting& semantics = MorphismSetting::Neo4j());

  // Executes the query, then renders the compiled plan annotated with
  // each operator's runtime statistics (actual rows, wall time, shuffle
  // and spill bytes) next to the estimates — the paper's estimated-vs-
  // actual cardinality comparison (Fig. 6) per operator.
  Result<std::string> ExplainAnalyze(
      const std::string& query,
      const MorphismSetting& semantics = MorphismSetting::Neo4j());

 private:
  // The whole pipeline. Execute() wraps it with the injected-cancel audit
  // probe (GRADOOP_AUDIT_CANCELLATION): a first run armed to trip at a
  // randomized checkpoint must surface GQL008, then a clean re-run
  // produces the caller's real result.
  Result<CypherMatchResult> ExecuteInternal(const std::string& query,
                                            const MorphismSetting& semantics);

  epgm::LogicalGraph graph_;
  epgm::IndexedLogicalGraph indexed_;
  GraphStatistics stats_;
  PlannerOptions planner_options_;
  uint64_t max_query_memory_bytes_ = 0;  // 0 = unlimited
  bool account_memory_ = true;
  double query_deadline_sec_ = 0.0;  // 0 = no deadline
  // Injected-cancel audit state: the randomized poll checkpoint the
  // current probe run arms (0 = none) and the deterministic stream the
  // checkpoints are drawn from (seeded in the constructor).
  Random audit_random_;
  uint64_t audit_inject_checkpoint_ = 0;
};

// Materializes a match collection from final embeddings (Definition 2.4).
epgm::GraphCollection BuildMatchCollection(
    const epgm::LogicalGraph& graph, const cypher::QueryGraph& query_graph,
    const EmbeddingSet& embeddings);

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_CYPHER_ENGINE_H_
