#include "analysis/plan_verifier.h"

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "analysis/type_check.h"
#include "query/exec/memory_bound.h"
#include "query/exec/partitioning.h"

namespace gradoop::analysis {

namespace {

using cypher::QueryEdge;
using cypher::QueryVertex;
using query::EmbeddingMetaData;
using query::EntryType;
using query::PlanNode;
using query::PlanNodePtr;

const char* EntryTypeName(EntryType type) {
  switch (type) {
    case EntryType::kVertex:
      return "vertex";
    case EntryType::kEdge:
      return "edge";
    case EntryType::kPath:
      return "path";
  }
  return "?";
}

// All verifier diagnostics name the offending operator; callers add the
// variable / index detail.
Status Violation(PlanNode::Kind kind, const std::string& detail) {
  return Status::Internal(std::string("PlanVerifier: ") + PlanKindName(kind) +
                          ": " + detail);
}

std::set<std::string> UnionOf(const std::set<std::string>& a,
                              const std::set<std::string>& b) {
  std::set<std::string> out = a;
  out.insert(b.begin(), b.end());
  return out;
}

std::string JoinNames(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out.empty() ? "<none>" : out;
}

// The bottom-up verification pass over the logical plan. Carries the
// query graph and options; each Check* method validates one operator
// kind. Column layouts are not simulated here — the compiled plan is
// checked separately by VerifyCompiledPlan.
class Pass {
 public:
  Pass(const cypher::QueryGraph& qg, VerifyOptions options)
      : qg_(qg), options_(options) {}

  Status VerifyNode(const PlanNodePtr& node, int depth) {
    if (node == nullptr) {
      return Status::Internal("PlanVerifier: null plan node");
    }
    if (depth > kMaxDepth) {
      return Status::Internal(
          "PlanVerifier: plan tree exceeds maximum depth (cycle?)");
    }
    GRADOOP_RETURN_IF_ERROR(CheckCommon(*node));
    switch (node->kind) {
      case PlanNode::Kind::kScanVertices:
        return CheckScanVertices(*node);
      case PlanNode::Kind::kScanEdges:
        return CheckScanEdges(*node);
      case PlanNode::Kind::kJoin:
        return CheckJoin(*node, depth);
      case PlanNode::Kind::kValueJoin:
        return CheckValueJoin(*node, depth);
      case PlanNode::Kind::kExpand:
        return CheckExpand(*node, depth);
      case PlanNode::Kind::kFilter:
        return CheckFilter(*node, depth);
    }
    return Status::Internal("PlanVerifier: unknown plan node kind");
  }

 private:
  // Generous bound: real plans are O(query elements) deep; a cycle in a
  // corrupted tree must not hang the verifier.
  static constexpr int kMaxDepth = 4096;

  // --- invariants shared by every operator ----------------------------

  Status CheckCommon(const PlanNode& node) const {
    if (!std::isfinite(node.estimated_cardinality) ||
        node.estimated_cardinality < 0.0) {
      return Violation(node.kind, "estimated cardinality is not a finite "
                                  "non-negative number");
    }
    if (node.bound_variables.empty()) {
      return Violation(node.kind, "operator binds no variables");
    }
    for (const std::string& var : node.bound_variables) {
      if (qg_.FindVertex(var) == nullptr && qg_.FindEdge(var) == nullptr) {
        return Violation(node.kind, "bound variable `" + var +
                                        "` names no query element");
      }
    }
    for (const std::string& var : node.property_variables) {
      if (!node.bound_variables.contains(var)) {
        return Violation(node.kind,
                         "property variable `" + var + "` is not bound");
      }
    }
    return Status::Ok();
  }

  Status CheckLeafShape(const PlanNode& node) const {
    if (node.left != nullptr || node.right != nullptr) {
      return Violation(node.kind, "scan operator must be a leaf");
    }
    return Status::Ok();
  }

  Status CheckBoundSet(const PlanNode& node,
                       const std::set<std::string>& expected) const {
    if (node.bound_variables != expected) {
      return Violation(node.kind,
                       "bound_variables {" + JoinNames(node.bound_variables) +
                           "} do not match the operator's bindings {" +
                           JoinNames(expected) + "}");
    }
    return Status::Ok();
  }

  Status CheckPropertySet(const PlanNode& node,
                          const std::set<std::string>& expected) const {
    if (node.property_variables != expected) {
      return Violation(
          node.kind,
          "property_variables {" + JoinNames(node.property_variables) +
              "} do not match the subtree's scans {" + JoinNames(expected) +
              "}");
    }
    return Status::Ok();
  }

  // --- leaves ----------------------------------------------------------

  Status CheckScanVertices(const PlanNode& node) const {
    GRADOOP_RETURN_IF_ERROR(CheckLeafShape(node));
    const int n = static_cast<int>(qg_.vertices().size());
    if (node.element_index < 0 || node.element_index >= n) {
      return Violation(node.kind,
                       "element_index " + std::to_string(node.element_index) +
                           " outside query vertices [0, " + std::to_string(n) +
                           ")");
    }
    const QueryVertex& v = qg_.vertices()[node.element_index];
    GRADOOP_RETURN_IF_ERROR(CheckBoundSet(node, {v.variable}));
    GRADOOP_RETURN_IF_ERROR(CheckPropertySet(node, {v.variable}));
    return Status::Ok();
  }

  Status CheckScanEdges(const PlanNode& node) const {
    GRADOOP_RETURN_IF_ERROR(CheckLeafShape(node));
    const int n = static_cast<int>(qg_.edges().size());
    if (node.element_index < 0 || node.element_index >= n) {
      return Violation(node.kind,
                       "element_index " + std::to_string(node.element_index) +
                           " outside query edges [0, " + std::to_string(n) +
                           ")");
    }
    const QueryEdge& e = qg_.edges()[node.element_index];
    if (e.IsVariableLength()) {
      return Violation(node.kind, "variable-length edge `" + e.variable +
                                      "` must be expanded, not scanned");
    }
    const std::string& src = qg_.vertices()[e.source].variable;
    const std::string& dst = qg_.vertices()[e.target].variable;
    GRADOOP_RETURN_IF_ERROR(CheckBoundSet(node, {src, e.variable, dst}));
    GRADOOP_RETURN_IF_ERROR(CheckPropertySet(node, {e.variable}));
    return Status::Ok();
  }

  // --- inner operators -------------------------------------------------

  Status CheckJoin(const PlanNode& node, int depth) {
    if (node.left == nullptr || node.right == nullptr) {
      return Violation(node.kind, "join needs two inputs");
    }
    GRADOOP_RETURN_IF_ERROR(VerifyNode(node.left, depth + 1));
    GRADOOP_RETURN_IF_ERROR(VerifyNode(node.right, depth + 1));

    // The join variables must be exactly the variables shared by the two
    // inputs: a missing shared variable would silently drop the id
    // equality the query demands; an extra one is unbound on a side.
    std::set<std::string> join_vars(node.join_variables.begin(),
                                    node.join_variables.end());
    if (join_vars.size() != node.join_variables.size()) {
      return Violation(node.kind, "duplicate join variable");
    }
    std::set<std::string> shared;
    for (const std::string& var : node.left->bound_variables) {
      if (node.right->bound_variables.contains(var)) shared.insert(var);
    }
    if (join_vars != shared) {
      return Violation(node.kind,
                       "join variables {" + JoinNames(join_vars) +
                           "} do not match the inputs' shared variables {" +
                           JoinNames(shared) + "}");
    }
    for (const std::string& var : node.join_variables) {
      // A variable-length edge variable is bound as a PATH column, which
      // has no joinable 8-byte identifier.
      const QueryEdge* qe = qg_.FindEdge(var);
      if (qe != nullptr && qe->IsVariableLength()) {
        return Violation(node.kind, "join variable `" + var +
                                        "` is a path binding");
      }
    }
    GRADOOP_RETURN_IF_ERROR(CheckBoundSet(
        node, UnionOf(node.left->bound_variables,
                      node.right->bound_variables)));
    GRADOOP_RETURN_IF_ERROR(CheckPropertySet(
        node, UnionOf(node.left->property_variables,
                      node.right->property_variables)));
    return Status::Ok();
  }

  Status CheckValueJoin(const PlanNode& node, int depth) {
    if (node.left == nullptr || node.right == nullptr) {
      return Violation(node.kind, "value join needs two inputs");
    }
    GRADOOP_RETURN_IF_ERROR(VerifyNode(node.left, depth + 1));
    GRADOOP_RETURN_IF_ERROR(VerifyNode(node.right, depth + 1));
    if (node.value_join_keys.empty()) {
      return Violation(node.kind, "value join has no key equalities");
    }
    // A value join enforces no id equality, so its inputs must be
    // disconnected: a shared variable would end up bound twice without
    // the bindings being reconciled.
    for (const std::string& var : node.left->bound_variables) {
      if (node.right->bound_variables.contains(var)) {
        return Violation(node.kind, "inputs share variable `" + var +
                                        "` (requires an id join)");
      }
    }
    for (const auto& [lhs, rhs] : node.value_join_keys) {
      for (const auto& side : {lhs, rhs}) {
        if (side == nullptr ||
            side->kind() != cypher::ExprKind::kPropertyAccess) {
          return Violation(node.kind,
                           "value-join key is not a property access");
        }
      }
      if (!node.left->bound_variables.contains(lhs->variable())) {
        return Violation(node.kind, "left key variable `" + lhs->variable() +
                                        "` is not bound on the left input");
      }
      if (!node.right->bound_variables.contains(rhs->variable())) {
        return Violation(node.kind, "right key variable `" + rhs->variable() +
                                        "` is not bound on the right input");
      }
    }
    GRADOOP_RETURN_IF_ERROR(CheckBoundSet(
        node, UnionOf(node.left->bound_variables,
                      node.right->bound_variables)));
    GRADOOP_RETURN_IF_ERROR(CheckPropertySet(
        node, UnionOf(node.left->property_variables,
                      node.right->property_variables)));
    return Status::Ok();
  }

  Status CheckExpand(const PlanNode& node, int depth) {
    if (node.left == nullptr || node.right != nullptr) {
      return Violation(node.kind, "expand takes exactly one input");
    }
    const int n = static_cast<int>(qg_.edges().size());
    if (node.element_index < 0 || node.element_index >= n) {
      return Violation(node.kind,
                       "element_index " + std::to_string(node.element_index) +
                           " outside query edges [0, " + std::to_string(n) +
                           ")");
    }
    const QueryEdge& e = qg_.edges()[node.element_index];
    if (!e.IsVariableLength()) {
      return Violation(node.kind, "fixed-length edge `" + e.variable +
                                      "` must be scanned, not expanded");
    }
    if (e.lower_bound < 0 || e.upper_bound < e.lower_bound) {
      return Violation(node.kind,
                       "path bounds *" + std::to_string(e.lower_bound) +
                           ".." + std::to_string(e.upper_bound) +
                           " are not 0 <= lower <= upper");
    }
    GRADOOP_RETURN_IF_ERROR(VerifyNode(node.left, depth + 1));
    const std::string& src = qg_.vertices()[e.source].variable;
    const std::string& dst = qg_.vertices()[e.target].variable;
    const std::string& start = node.expand_reverse ? dst : src;
    if (!node.left->bound_variables.contains(start)) {
      return Violation(node.kind, "expansion start `" + start +
                                      "` is not bound by the input");
    }
    if (node.left->bound_variables.contains(e.variable)) {
      return Violation(node.kind, "path variable `" + e.variable +
                                      "` is already bound by the input");
    }
    GRADOOP_RETURN_IF_ERROR(CheckBoundSet(
        node, UnionOf(node.left->bound_variables, {e.variable, src, dst})));
    GRADOOP_RETURN_IF_ERROR(
        CheckPropertySet(node, node.left->property_variables));
    return Status::Ok();
  }

  Status CheckFilter(const PlanNode& node, int depth) {
    if (node.left == nullptr || node.right != nullptr) {
      return Violation(node.kind, "filter takes exactly one input");
    }
    if (node.clauses.empty()) {
      return Violation(node.kind, "filter has no clauses");
    }
    GRADOOP_RETURN_IF_ERROR(VerifyNode(node.left, depth + 1));
    for (const cypher::CnfClause& clause : node.clauses) {
      for (const std::string& var : clause.Variables()) {
        if (!node.left->bound_variables.contains(var)) {
          return Violation(node.kind, "clause " + clause.ToString() +
                                          " references unbound variable `" +
                                          var + "`");
        }
        if (!node.left->property_variables.contains(var)) {
          return Violation(node.kind,
                           "clause " + clause.ToString() + " reads `" + var +
                               "` before its scan's properties are present");
        }
      }
      if (!options_.exhaustive) continue;
      GRADOOP_RETURN_IF_ERROR(CheckClause(clause));
    }
    GRADOOP_RETURN_IF_ERROR(CheckBoundSet(node, node.left->bound_variables));
    GRADOOP_RETURN_IF_ERROR(
        CheckPropertySet(node, node.left->property_variables));
    return Status::Ok();
  }

  const cypher::QueryGraph& qg_;
  VerifyOptions options_;
};

}  // namespace

const char* PlanKindName(query::PlanNode::Kind kind) {
  switch (kind) {
    case PlanNode::Kind::kScanVertices:
      return "ScanVertices";
    case PlanNode::Kind::kScanEdges:
      return "ScanEdges";
    case PlanNode::Kind::kJoin:
      return "JoinEmbeddings";
    case PlanNode::Kind::kValueJoin:
      return "ValueJoinEmbeddings";
    case PlanNode::Kind::kExpand:
      return "ExpandEmbeddings";
    case PlanNode::Kind::kFilter:
      return "SelectEmbeddings";
  }
  return "UnknownOperator";
}

PlanVerifier::PlanVerifier(const cypher::QueryGraph& query_graph,
                           VerifyOptions options)
    : query_graph_(query_graph), options_(options) {}

Status PlanVerifier::CheckQueryPredicates() const {
  // Element predicates execute inside the leaf scans (§3.1), so the plan
  // walk never sees them; a zero-variable clause (`WHERE 1 < 'a'`) is
  // replicated into every element's predicate list, which only makes the
  // re-check idempotent.
  for (const QueryVertex& v : query_graph_.vertices()) {
    for (const cypher::CnfClause& clause :
         query_graph_.ElementPredicates(v.variable)) {
      GRADOOP_RETURN_IF_ERROR(CheckClause(clause));
    }
  }
  for (const QueryEdge& e : query_graph_.edges()) {
    for (const cypher::CnfClause& clause :
         query_graph_.ElementPredicates(e.variable)) {
      GRADOOP_RETURN_IF_ERROR(CheckClause(clause));
    }
  }
  for (const cypher::CnfClause& clause : query_graph_.CrossPredicates()) {
    GRADOOP_RETURN_IF_ERROR(CheckClause(clause));
  }
  return Status::Ok();
}

Status PlanVerifier::Verify(const query::PlanNodePtr& plan) const {
  if (options_.exhaustive) {
    GRADOOP_RETURN_IF_ERROR(CheckQueryPredicates());
  }
  Pass pass(query_graph_, options_);
  return pass.VerifyNode(plan, 0);
}

Status PlanVerifier::VerifyComplete(const query::PlanNodePtr& plan) const {
  GRADOOP_RETURN_IF_ERROR(Verify(plan));
  for (const QueryVertex& v : query_graph_.vertices()) {
    if (!plan->bound_variables.contains(v.variable)) {
      return Status::Internal(
          "PlanVerifier: final plan leaves query vertex `" + v.variable +
          "` unbound");
    }
  }
  for (const QueryEdge& e : query_graph_.edges()) {
    if (!plan->bound_variables.contains(e.variable)) {
      return Status::Internal("PlanVerifier: final plan leaves query edge `" +
                              e.variable + "` unbound");
    }
  }
  return Status::Ok();
}

Status VerifyPlan(const cypher::QueryGraph& query_graph,
                  const query::PlanNodePtr& plan, VerifyOptions options) {
  return PlanVerifier(query_graph, options).VerifyComplete(plan);
}

Status VerifyCandidatePlan(const cypher::QueryGraph& query_graph,
                           const query::PlanNodePtr& plan,
                           VerifyOptions options) {
  return PlanVerifier(query_graph, options).Verify(plan);
}

// --- compiled plan verification ---------------------------------------

namespace {

using query::exec::ExpandOp;
using query::exec::JoinOp;
using query::exec::PhysicalOperator;
using query::exec::PhysOpKind;
using query::exec::ValueJoinOp;

Status CompiledViolation(const PhysicalOperator& op,
                         const std::string& detail) {
  return Status::Internal(std::string("PlanVerifier: compiled ") + op.name() +
                          ": " + detail);
}

// Internal sanity of one compiled meta data object: id columns in range
// and never shared by two variables, property columns dense and
// resolvable back to their (variable, key).
Status CheckMetaSane(const PhysicalOperator& op,
                     const EmbeddingMetaData& meta) {
  std::set<int> id_columns;
  for (const std::string& var : meta.Variables()) {
    const int c = meta.IdColumn(var);
    if (c < 0 || c >= meta.id_column_count()) {
      return CompiledViolation(
          op, "variable `" + var + "` maps to id column " +
                  std::to_string(c) + ", outside [0, " +
                  std::to_string(meta.id_column_count()) + ")");
    }
    if (!id_columns.insert(c).second) {
      return CompiledViolation(op, "two variables overlap on id column " +
                                       std::to_string(c) + " (`" + var +
                                       "` collides)");
    }
  }
  const auto properties = meta.PropertyColumnsInOrder();
  for (size_t i = 0; i < properties.size(); ++i) {
    const auto& [var, key] = properties[i];
    if (meta.PropertyColumn(var, key) != static_cast<int>(i)) {
      return CompiledViolation(op, "property column " + std::to_string(i) +
                                       " is dangling or duplicated");
    }
  }
  return Status::Ok();
}

// Merge consistency: the parent's layout preserves the left child's
// columns verbatim and rebases the right child's by the left counts
// (shared variables keep the left binding).
Status CheckMergedLayout(const PhysicalOperator& op,
                         const EmbeddingMetaData& left,
                         const EmbeddingMetaData& right,
                         const EmbeddingMetaData& merged) {
  if (merged.id_column_count() !=
      left.id_column_count() + right.id_column_count()) {
    return CompiledViolation(
        op, "merged id column count " +
                std::to_string(merged.id_column_count()) + " != left " +
                std::to_string(left.id_column_count()) + " + right " +
                std::to_string(right.id_column_count()));
  }
  if (merged.property_column_count() !=
      left.property_column_count() + right.property_column_count()) {
    return CompiledViolation(op, "merged property column count deviates "
                                 "from the sum of its inputs");
  }
  for (const std::string& var : left.Variables()) {
    if (merged.IdColumn(var) != left.IdColumn(var)) {
      return CompiledViolation(op, "merge moved left variable `" + var +
                                       "` to a different column");
    }
  }
  for (const std::string& var : right.Variables()) {
    const int expected = left.HasVariable(var)
                             ? left.IdColumn(var)
                             : right.IdColumn(var) + left.id_column_count();
    if (merged.IdColumn(var) != expected) {
      return CompiledViolation(
          op, "merge rebased right variable `" + var + "` to column " +
                  std::to_string(merged.IdColumn(var)) + ", expected " +
                  std::to_string(expected));
    }
  }
  return Status::Ok();
}

// Every property a clause set reads must be a projected column of `meta`.
Status CheckCompiledClauses(const PhysicalOperator& op,
                            const std::vector<cypher::CnfClause>& clauses,
                            const EmbeddingMetaData& meta) {
  for (const cypher::CnfClause& clause : clauses) {
    std::set<std::pair<std::string, std::string>> accesses;
    for (const cypher::ExpressionPtr& atom : clause.atoms) {
      atom->CollectPropertyAccesses(&accesses);
    }
    for (const auto& [var, key] : accesses) {
      if (meta.PropertyColumn(var, key) < 0) {
        return CompiledViolation(op, "clause property " + var + "." + key +
                                         " resolves to no projected column");
      }
    }
  }
  return Status::Ok();
}

// Every elided shuffle must be one GrantShuffleElision grants: an elided
// side whose input is not provably co-partitioned on that side's key
// would join records that never meet.
Status CheckShuffleElision(const PhysicalOperator& op) {
  if (!op.elide_left_shuffle() && !op.elide_right_shuffle()) {
    return Status::Ok();
  }
  const query::exec::ShuffleElision grant =
      query::exec::GrantShuffleElision(op);
  const bool elided[2] = {op.elide_left_shuffle(), op.elide_right_shuffle()};
  const bool granted[2] = {grant.left, grant.right};
  for (size_t i = 0; i < 2; ++i) {
    if (!elided[i] || granted[i]) continue;
    const PhysicalOperator* child =
        i < op.children().size() ? op.children()[i].get() : nullptr;
    return CompiledViolation(
        op, std::string(i == 0 ? "left" : "right") +
                " shuffle elided but the input claims " +
                (child != nullptr && child->has_output_partitioning()
                     ? child->output_partitioning().ToString()
                     : std::string("no partitioning")) +
                ", which grants no elision in " + op.Describe());
  }
  return Status::Ok();
}

Status VerifyCompiledNode(const cypher::QueryGraph& qg,
                          const PhysicalOperator& op, int num_workers,
                          int batch_size, int depth) {
  if (depth > 4096) {
    return Status::Internal(
        "PlanVerifier: compiled plan exceeds maximum depth (cycle?)");
  }
  for (const auto& child : op.children()) {
    if (child == nullptr) {
      return CompiledViolation(op, "null child operator");
    }
    GRADOOP_RETURN_IF_ERROR(
        VerifyCompiledNode(qg, *child, num_workers, batch_size, depth + 1));
  }
  if (!std::isfinite(op.estimated_cardinality()) ||
      op.estimated_cardinality() < 0.0) {
    return CompiledViolation(op, "estimated cardinality is not a finite "
                                 "non-negative number");
  }
  const EmbeddingMetaData& meta = op.output_meta();
  GRADOOP_RETURN_IF_ERROR(CheckMetaSane(op, meta));
  // Every variable the layout binds must name a query element.
  for (const std::string& var : meta.Variables()) {
    if (qg.FindVertex(var) == nullptr && qg.FindEdge(var) == nullptr) {
      return CompiledViolation(op, "column variable `" + var +
                                       "` names no query element");
    }
  }
  GRADOOP_RETURN_IF_ERROR(CheckCompiledClauses(op, op.fused_clauses(), meta));

  // Partitioning claim: whatever the compiler stamped must be re-derivable
  // from the operator kind, keys, strategy and the children's claims. A
  // claim the transfer functions cannot reproduce would let an unsound
  // shuffle elision through, so it fails verification outright.
  if (op.has_output_partitioning()) {
    const query::exec::PartitioningProperty derived =
        query::exec::DerivePartitioning(op);
    if (!(op.output_partitioning() == derived)) {
      return CompiledViolation(
          op, "claimed output partitioning " +
                  op.output_partitioning().ToString() +
                  " is not derivable (transfer function yields " +
                  derived.ToString() + ")");
    }
  }

  // Memory claim: mandatory (admission control and the runtime audit both
  // consume it, so a plan without one never reaches execution) and must be
  // exactly what the transfer functions yield from the operator and the
  // children's claims — a claim the verifier cannot reproduce would let an
  // undersized bound through admission.
  if (!op.has_memory_bound()) {
    return CompiledViolation(op,
                             "missing memory bound claim (plan was not "
                             "annotated by PlanCompiler)");
  }
  const query::exec::MemoryBound derived_mem =
      query::exec::DeriveMemoryBound(op, num_workers);
  if (!(op.memory_bound() == derived_mem)) {
    return CompiledViolation(
        op, "claimed memory bound [" + op.memory_bound().ToString() +
                "] is not derivable (transfer function yields [" +
                derived_mem.ToString() + "])");
  }

  // Batch size: the vectorized kernels build batches of exactly the
  // size the plan was compiled for, which must be the size it runs with.
  if (op.batch_size() != batch_size) {
    return CompiledViolation(
        op, "batch layout compiled for batch=" +
                std::to_string(op.batch_size()) + ", expected batch=" +
                std::to_string(batch_size));
  }

  switch (op.op_kind()) {
    case PhysOpKind::kVertexScan: {
      if (!op.children().empty()) {
        return CompiledViolation(op, "scan operator must be a leaf");
      }
      if (meta.id_column_count() != 1) {
        return CompiledViolation(op, "vertex scan must bind one id column");
      }
      break;
    }
    case PhysOpKind::kEdgeScan: {
      if (!op.children().empty()) {
        return CompiledViolation(op, "scan operator must be a leaf");
      }
      const auto& scan = static_cast<const query::exec::EdgeScanOp&>(op);
      const int expected = scan.self_loop() ? 2 : 3;
      if (meta.id_column_count() != expected) {
        return CompiledViolation(
            op, "edge scan binds " + std::to_string(meta.id_column_count()) +
                    " id columns, expected " + std::to_string(expected));
      }
      break;
    }
    case PhysOpKind::kJoin: {
      if (op.children().size() != 2) {
        return CompiledViolation(op, "join needs two inputs");
      }
      const auto& join = static_cast<const JoinOp&>(op);
      const EmbeddingMetaData& left = op.children()[0]->output_meta();
      const EmbeddingMetaData& right = op.children()[1]->output_meta();
      if (join.left_columns().size() != join.join_variables().size() ||
          join.right_columns().size() != join.join_variables().size()) {
        return CompiledViolation(op, "key column count does not match the "
                                     "join variables");
      }
      for (size_t i = 0; i < join.join_variables().size(); ++i) {
        const std::string& var = join.join_variables()[i];
        if (left.IdColumn(var) != join.left_columns()[i] ||
            right.IdColumn(var) != join.right_columns()[i]) {
          return CompiledViolation(op, "join variable `" + var +
                                           "` key columns do not match the "
                                           "children's layouts");
        }
        if (left.TypeOf(var) != right.TypeOf(var)) {
          return CompiledViolation(op, "join variable `" + var + "` is a " +
                                           EntryTypeName(left.TypeOf(var)) +
                                           " on the left but a " +
                                           EntryTypeName(right.TypeOf(var)) +
                                           " on the right");
        }
        if (left.TypeOf(var) == EntryType::kPath) {
          return CompiledViolation(op, "join variable `" + var +
                                           "` is a path binding");
        }
      }
      GRADOOP_RETURN_IF_ERROR(CheckMergedLayout(op, left, right, meta));
      break;
    }
    case PhysOpKind::kValueJoin: {
      if (op.children().size() != 2) {
        return CompiledViolation(op, "value join needs two inputs");
      }
      const auto& join = static_cast<const ValueJoinOp&>(op);
      const EmbeddingMetaData& left = op.children()[0]->output_meta();
      const EmbeddingMetaData& right = op.children()[1]->output_meta();
      if (join.left_key_columns().size() != join.right_key_columns().size() ||
          join.left_key_columns().empty()) {
        return CompiledViolation(op, "value join has no key equalities");
      }
      for (int c : join.left_key_columns()) {
        if (c < 0 || c >= left.property_column_count()) {
          return CompiledViolation(op, "left key column " +
                                           std::to_string(c) +
                                           " outside the left layout");
        }
      }
      for (int c : join.right_key_columns()) {
        if (c < 0 || c >= right.property_column_count()) {
          return CompiledViolation(op, "right key column " +
                                           std::to_string(c) +
                                           " outside the right layout");
        }
      }
      GRADOOP_RETURN_IF_ERROR(CheckMergedLayout(op, left, right, meta));
      break;
    }
    case PhysOpKind::kExpand: {
      if (op.children().size() != 1) {
        return CompiledViolation(op, "expand takes exactly one input");
      }
      const auto& expand = static_cast<const ExpandOp&>(op);
      const EmbeddingMetaData& input = op.children()[0]->output_meta();
      const auto vertex_columns = input.VertexColumns();
      auto is_vertex_column = [&vertex_columns](int c) {
        for (int v : vertex_columns) {
          if (v == c) return true;
        }
        return false;
      };
      if (!is_vertex_column(expand.start_column())) {
        return CompiledViolation(op, "start column " +
                                         std::to_string(
                                             expand.start_column()) +
                                         " is not a vertex column of the "
                                         "input");
      }
      if (expand.bound_end_column() >= 0 &&
          !is_vertex_column(expand.bound_end_column())) {
        return CompiledViolation(op, "bound end column " +
                                         std::to_string(
                                             expand.bound_end_column()) +
                                         " is not a vertex column of the "
                                         "input");
      }
      const int expected = input.id_column_count() +
                           (expand.bound_end_column() >= 0 ? 1 : 2);
      if (meta.id_column_count() != expected) {
        return CompiledViolation(
            op, "expansion appends the wrong number of columns (" +
                    std::to_string(meta.id_column_count()) + " != " +
                    std::to_string(expected) + ")");
      }
      for (const std::string& var : input.Variables()) {
        if (meta.IdColumn(var) != input.IdColumn(var)) {
          return CompiledViolation(op, "expansion moved input variable `" +
                                           var + "` to a different column");
        }
      }
      break;
    }
    case PhysOpKind::kFilter: {
      if (op.children().size() != 1) {
        return CompiledViolation(op, "filter takes exactly one input");
      }
      const EmbeddingMetaData& input = op.children()[0]->output_meta();
      if (meta.id_column_count() != input.id_column_count() ||
          meta.property_column_count() != input.property_column_count()) {
        return CompiledViolation(op, "filter changed the column layout");
      }
      for (const std::string& var : input.Variables()) {
        if (meta.IdColumn(var) != input.IdColumn(var)) {
          return CompiledViolation(op, "filter moved variable `" + var +
                                           "` to a different column");
        }
      }
      const auto& filter = static_cast<const query::exec::FilterOp&>(op);
      GRADOOP_RETURN_IF_ERROR(
          CheckCompiledClauses(op, filter.clauses(), meta));
      break;
    }
  }
  return CheckShuffleElision(op);
}

}  // namespace

Status VerifyCompiledPlan(const cypher::QueryGraph& query_graph,
                          const query::exec::PhysicalOperator& root,
                          int num_workers, int batch_size) {
  return VerifyCompiledNode(query_graph, root, num_workers, batch_size, 0);
}

}  // namespace gradoop::analysis
