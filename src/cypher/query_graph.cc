#include "cypher/query_graph.h"

#include <algorithm>

namespace gradoop::cypher {

namespace {

// Intersects two label alternations. An empty alternation means
// "unconstrained" and acts as the identity.
std::vector<std::string> IntersectLabels(std::vector<std::string> a,
                                         const std::vector<std::string>& b,
                                         bool* became_empty) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  std::vector<std::string> out;
  for (const std::string& l : a) {
    if (std::find(b.begin(), b.end(), l) != b.end()) out.push_back(l);
  }
  if (out.empty()) *became_empty = true;
  return out;
}

}  // namespace

Result<QueryGraph> QueryGraph::Build(const CypherQuery& ast) {
  QueryGraph qg;

  auto add_or_merge_vertex = [&](const NodePattern& node) -> Result<int> {
    auto it = qg.vertex_by_variable_.find(node.variable);
    if (it != qg.vertex_by_variable_.end()) {
      if (qg.edge_by_variable_.contains(node.variable)) {
        return Status::ParseError("variable '" + node.variable +
                                  "' used for both a vertex and an edge");
      }
      QueryVertex& existing = qg.vertices_[it->second];
      bool empty = false;
      existing.labels = IntersectLabels(existing.labels, node.labels, &empty);
      if (empty) qg.unsatisfiable_ = true;
      return it->second;
    }
    if (qg.edge_by_variable_.contains(node.variable)) {
      return Status::ParseError("variable '" + node.variable +
                                "' used for both a vertex and an edge");
    }
    QueryVertex v;
    v.index = static_cast<int>(qg.vertices_.size());
    v.variable = node.variable;
    v.labels = node.labels;
    qg.vertex_by_variable_.emplace(node.variable, v.index);
    qg.vertices_.push_back(std::move(v));
    return static_cast<int>(qg.vertices_.size()) - 1;
  };

  // Property-map sugar becomes equality predicates; the synthesized atoms
  // inherit the span of the pattern element they desugar.
  std::vector<ExpressionPtr> property_map_atoms;
  auto add_property_map =
      [&](const std::string& variable,
          const std::vector<std::pair<std::string, epgm::PropertyValue>>&
              props,
          const SourceSpan& span) {
        for (const auto& [key, value] : props) {
          property_map_atoms.push_back(Expression::Comparison(
              ComparisonOp::kEq,
              Expression::PropertyAccess(variable, key, span),
              Expression::Literal(value, span)));
        }
      };

  for (const PatternPath& path : ast.paths) {
    GRADOOP_ASSIGN_OR_RETURN(int prev, add_or_merge_vertex(path.start));
    add_property_map(path.start.variable, path.start.properties,
                     path.start.span);
    for (const auto& [rel, node] : path.steps) {
      GRADOOP_ASSIGN_OR_RETURN(int next, add_or_merge_vertex(node));
      add_property_map(node.variable, node.properties, node.span);

      if (qg.edge_by_variable_.contains(rel.variable)) {
        return Status::ParseError("edge variable '" + rel.variable +
                                  "' bound more than once");
      }
      if (qg.vertex_by_variable_.contains(rel.variable)) {
        return Status::ParseError("variable '" + rel.variable +
                                  "' used for both a vertex and an edge");
      }
      QueryEdge e;
      e.index = static_cast<int>(qg.edges_.size());
      e.variable = rel.variable;
      e.types = rel.types;
      e.lower_bound = rel.lower_bound;
      e.upper_bound = rel.upper_bound;
      if (rel.lower_bound < 0 || rel.upper_bound < rel.lower_bound) {
        // The analyzer reports this with a located diagnostic before the
        // engine ever builds a query graph; this guards direct callers.
        return Status::ParseError("invalid variable-length bounds on '" +
                                  rel.variable + "'");
      }
      if ((rel.lower_bound != 1 || rel.upper_bound != 1) &&
          rel.direction == PatternDirection::kUndirected) {
        return Status::Unsupported(
            "undirected variable-length paths are not supported");
      }
      switch (rel.direction) {
        case PatternDirection::kOutgoing:
          e.source = prev;
          e.target = next;
          break;
        case PatternDirection::kIncoming:
          e.source = next;
          e.target = prev;
          break;
        case PatternDirection::kUndirected:
          e.source = prev;
          e.target = next;
          e.any_direction = true;
          break;
      }
      add_property_map(rel.variable, rel.properties, rel.span);
      qg.edge_by_variable_.emplace(rel.variable, e.index);
      qg.edges_.push_back(std::move(e));
      prev = next;
    }
  }

  // Normalize WHERE to CNF and append property-map equalities as
  // single-atom clauses.
  Cnf cnf = ToCnf(ast.where);
  for (ExpressionPtr& atom : property_map_atoms) {
    CnfClause clause;
    clause.atoms.push_back(std::move(atom));
    cnf.clauses.push_back(std::move(clause));
  }

  // Validate predicate variables and classify clauses for pushdown.
  for (CnfClause& clause : cnf.clauses) {
    const std::set<std::string> vars = clause.Variables();
    for (const std::string& var : vars) {
      if (!qg.vertex_by_variable_.contains(var) &&
          !qg.edge_by_variable_.contains(var)) {
        return Status::ParseError("predicate references unbound variable '" +
                                  var + "'");
      }
    }
    if (vars.size() <= 1) {
      qg.element_predicates_.push_back(std::move(clause));
    } else {
      qg.cross_predicates_.push_back(std::move(clause));
    }
  }

  // Predicates on variable-length edges are unsupported (their binding is
  // a path, not a single edge) — matches the paper's subset.
  for (const CnfClause& clause : qg.element_predicates_) {
    for (const std::string& var : clause.Variables()) {
      auto it = qg.edge_by_variable_.find(var);
      if (it != qg.edge_by_variable_.end() &&
          qg.edges_[it->second].IsVariableLength()) {
        return Status::Unsupported(
            "property predicate on variable-length edge '" + var + "'");
      }
    }
  }

  // Needed properties: everything referenced by any predicate or RETURN.
  auto note_properties = [&](const ExpressionPtr& e) {
    std::set<std::pair<std::string, std::string>> accesses;
    e->CollectPropertyAccesses(&accesses);
    for (const auto& [var, key] : accesses) {
      qg.needed_properties_[var].insert(key);
    }
  };
  for (const CnfClause& clause : qg.element_predicates_) {
    for (const ExpressionPtr& atom : clause.atoms) note_properties(atom);
  }
  for (const CnfClause& clause : qg.cross_predicates_) {
    for (const ExpressionPtr& atom : clause.atoms) note_properties(atom);
  }

  qg.return_all_ = ast.return_all;
  qg.return_distinct_ = ast.return_distinct;
  qg.limit_ = ast.limit;
  qg.return_items_ = ast.return_items;
  for (const ReturnItem& item : qg.return_items_) {
    if (!qg.vertex_by_variable_.contains(item.variable) &&
        !qg.edge_by_variable_.contains(item.variable)) {
      return Status::ParseError("RETURN references unbound variable '" +
                                item.variable + "'");
    }
    if (item.IsPropertyAccess()) {
      qg.needed_properties_[item.variable].insert(item.property_key);
    }
  }
  return qg;
}

const QueryVertex* QueryGraph::FindVertex(const std::string& variable) const {
  auto it = vertex_by_variable_.find(variable);
  return it == vertex_by_variable_.end() ? nullptr : &vertices_[it->second];
}

const QueryEdge* QueryGraph::FindEdge(const std::string& variable) const {
  auto it = edge_by_variable_.find(variable);
  return it == edge_by_variable_.end() ? nullptr : &edges_[it->second];
}

std::vector<CnfClause> QueryGraph::ElementPredicates(
    const std::string& variable) const {
  std::vector<CnfClause> out;
  for (const CnfClause& clause : element_predicates_) {
    const auto vars = clause.Variables();
    if (vars.size() == 1 && *vars.begin() == variable) out.push_back(clause);
    // Variable-free clauses (constant predicates) attach to every scan; a
    // constant-false clause then empties all scans, which is correct.
    if (vars.empty()) out.push_back(clause);
  }
  return out;
}

std::set<std::string> QueryGraph::NeededProperties(
    const std::string& variable) const {
  auto it = needed_properties_.find(variable);
  return it == needed_properties_.end() ? std::set<std::string>{} : it->second;
}

std::string QueryGraph::ToString() const {
  std::string out = "QueryGraph(";
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (i > 0) out += ", ";
    out += vertices_[i].variable;
    if (!vertices_[i].labels.empty()) {
      out += ":";
      for (size_t j = 0; j < vertices_[i].labels.size(); ++j) {
        if (j > 0) out += "|";
        out += vertices_[i].labels[j];
      }
    }
  }
  out += "; ";
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i > 0) out += ", ";
    const QueryEdge& e = edges_[i];
    out += vertices_[e.source].variable + "-[" + e.variable;
    if (!e.types.empty()) {
      out += ":";
      for (size_t j = 0; j < e.types.size(); ++j) {
        if (j > 0) out += "|";
        out += e.types[j];
      }
    }
    if (e.IsVariableLength()) {
      out += '*';
      out += std::to_string(e.lower_bound);
      out += "..";
      out += std::to_string(e.upper_bound);
    }
    out += "]->";
    out += vertices_[e.target].variable;
  }
  out += ")";
  return out;
}

}  // namespace gradoop::cypher
