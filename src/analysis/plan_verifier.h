#ifndef GRADOOP_ANALYSIS_PLAN_VERIFIER_H_
#define GRADOOP_ANALYSIS_PLAN_VERIFIER_H_

#include <string>

#include "common/result.h"
#include "cypher/query_graph.h"
#include "query/exec/physical_operator.h"
#include "query/plan.h"

namespace gradoop::analysis {

// Verification depth. Cheap checks are structural (node shape, index
// ranges, bound-variable bookkeeping) and run on every query in release
// builds; exhaustive checks additionally statically type-check all
// predicates. Column layouts are no longer simulated here: the compiled
// plan carries the layouts exec::PlanCompiler resolved, and
// VerifyCompiledPlan asserts their mutual consistency.
struct VerifyOptions {
  bool exhaustive = true;

  static VerifyOptions Cheap() { return {.exhaustive = false}; }
  static VerifyOptions Exhaustive() { return {.exhaustive = true}; }
  // Engine default: exhaustive in debug builds, cheap in release.
  static VerifyOptions Default() {
#ifdef NDEBUG
    return Cheap();
#else
    return Exhaustive();
#endif
  }
};

// Static checker for logical query plans (the relational soundness the
// planner must uphold). Walks a PlanNode tree bottom-up and rejects the
// first violated invariant with a Status naming the offending node and
// variable.
//
// Invariants checked per node:
//  - operator arity: scans are leaves, joins have two inputs, expand and
//    filter exactly one;
//  - element_index in range for the QueryGraph (vertex scans index
//    vertices(), edge scans / expansions index edges());
//  - fixed-length edges are scanned, variable-length edges expanded;
//  - bound_variables equals the union of the children's bound variables
//    plus exactly what the operator binds, and every bound variable names
//    a query element;
//  - join variables are bound on both inputs (and are never path
//    bindings, which have no joinable identifier);
//  - value-join keys are property accesses bound on the respective side,
//    over disjoint inputs;
//  - expansions start from a bound vertex variable and bind a fresh path
//    variable; bounds satisfy 0 <= lower <= upper;
//  - filter clauses reference only bound variables whose scans are part
//    of the subtree;
//  - cardinality estimates are finite and non-negative;
//  - [exhaustive] every predicate type-checks (see type_check.h) — the
//    query graph's element predicates too, which execute inside the leaf
//    scans and never appear as plan nodes.
class PlanVerifier {
 public:
  explicit PlanVerifier(const cypher::QueryGraph& query_graph,
                        VerifyOptions options = {});

  // Verifies the subtree rooted at `plan`. Partial plans (planner
  // candidates) are accepted as long as their invariants hold.
  Status Verify(const query::PlanNodePtr& plan) const;

  // Verify() plus completeness: the root must bind every vertex and edge
  // variable of the query graph. Run on the final plan before execution.
  Status VerifyComplete(const query::PlanNodePtr& plan) const;

 private:
  // Type-checks the query graph's own predicates: element predicates
  // (evaluated inside the leaf scans, so no plan node ever carries them)
  // and cross predicates. Exhaustive mode only.
  Status CheckQueryPredicates() const;

  const cypher::QueryGraph& query_graph_;
  VerifyOptions options_;
};

// Convenience wrappers used by the engine and the planner.
Status VerifyPlan(const cypher::QueryGraph& query_graph,
                  const query::PlanNodePtr& plan,
                  VerifyOptions options = VerifyOptions::Default());
Status VerifyCandidatePlan(const cypher::QueryGraph& query_graph,
                           const query::PlanNodePtr& plan,
                           VerifyOptions options = VerifyOptions::Default());

// Checks a compiled physical plan against the column layouts its
// operators carry (§3.3 bookkeeping): every meta data object is
// internally sane (indices in range, no overlapping or dangling
// columns), join/value-join key columns resolve on the children and
// merge layouts preserve the left columns while rebasing the right,
// expansions start from a vertex column and append the path (and fresh
// end) columns, and all fused filter clauses resolve to projected
// property columns. Partitioning and memory claims must both be
// re-derivable from the operator alone; the memory claim is mandatory on
// every operator (a missing one means the plan skipped PlanCompiler's
// annotation pass, so neither admission nor the audit can trust it).
// Every elided shuffle must be granted by GrantShuffleElision.
// `num_workers` must match the CompileOptions::num_workers the plan was
// compiled with, and every operator's batch size must equal `batch_size`
// (its CompileOptions::batch_size). Run by the engine between
// compilation and execution.
Status VerifyCompiledPlan(const cypher::QueryGraph& query_graph,
                          const query::exec::PhysicalOperator& root,
                          int num_workers = 4,
                          int batch_size = query::kDefaultBatchSize);

// Stable operator name for diagnostics ("ScanVertices", "JoinEmbeddings",
// ...).
const char* PlanKindName(query::PlanNode::Kind kind);

}  // namespace gradoop::analysis

#endif  // GRADOOP_ANALYSIS_PLAN_VERIFIER_H_
