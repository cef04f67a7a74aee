#include "analysis/analyzer.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace gradoop::analysis {

namespace {

using cypher::ComparisonOp;
using cypher::ComparisonOpName;
using cypher::CypherQuery;
using cypher::ExprKind;
using cypher::Expression;
using cypher::ExpressionPtr;
using cypher::NodePattern;
using cypher::PatternPath;
using cypher::RelationshipPattern;
using cypher::ReturnItem;
using cypher::SourceSpan;
using epgm::PropertyValue;
using query::MatchSemantics;

// The parser names anonymous pattern elements with a prefix no user
// identifier can start with (see Parser::FreshAnonymousName).
bool IsAnonymous(const std::string& variable) {
  return variable.rfind("  __", 0) == 0;
}

std::string JoinLabels(const std::vector<std::string>& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += "|";
    out += labels[i];
  }
  return out;
}

// Intersection of two label alternations; empty input = unconstrained.
std::vector<std::string> IntersectLabels(const std::vector<std::string>& a,
                                         const std::vector<std::string>& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  std::vector<std::string> out;
  for (const std::string& l : a) {
    if (std::find(b.begin(), b.end(), l) != b.end()) out.push_back(l);
  }
  return out;
}

std::string Quoted(const PropertyValue& value) {
  if (!value.is_string()) return value.ToString();
  std::string out = "'";
  out += value.ToString();
  out += '\'';
  return out;
}

enum class VarKind { kVertex, kEdge };

struct VarInfo {
  VarKind kind = VarKind::kVertex;
  int occurrences = 0;
  SourceSpan first_span;          // preferably the variable token
  std::vector<std::string> labels;  // running intersection (vertices only)
  bool label_conflict_reported = false;
};

// Ternary constant: engaged = statically known, inner nullopt = NULL.
using Ternary = std::optional<std::optional<bool>>;

// One subtree after folding: either a constant (with a literal expression
// standing in for it) or a residual expression.
struct Folded {
  ExpressionPtr expr;
  Ternary constant;

  bool IsConst() const { return constant.has_value(); }
  bool IsTrue() const { return IsConst() && constant->has_value() && **constant; }
  bool IsFalse() const {
    return IsConst() && constant->has_value() && !**constant;
  }
  bool IsNull() const { return IsConst() && !constant->has_value(); }
};

Folded MakeConst(std::optional<bool> value, SourceSpan span) {
  PropertyValue literal =
      value.has_value() ? PropertyValue(*value) : PropertyValue::Null();
  return {Expression::Literal(std::move(literal), span), Ternary(value)};
}

Folded MakeDynamic(ExpressionPtr expr) { return {std::move(expr), {}}; }

const char* TernaryName(const std::optional<bool>& v) {
  if (!v.has_value()) return "NULL (never matches)";
  return *v ? "true" : "false";
}

// Union-find over variable names, for the disconnected-pattern lint.
class UnionFind {
 public:
  void Add(const std::string& v) { parent_.emplace(v, v); }
  std::string Find(const std::string& v) {
    auto it = parent_.find(v);
    if (it == parent_.end()) {
      parent_.emplace(v, v);
      return v;
    }
    if (it->second == v) return v;
    const std::string root = Find(it->second);
    parent_[v] = root;
    return root;
  }
  void Union(const std::string& a, const std::string& b) {
    parent_[Find(a)] = Find(b);
  }

 private:
  std::map<std::string, std::string> parent_;
};

class Analyzer {
 public:
  Analyzer(const CypherQuery& ast, const AnalyzerOptions& options)
      : ast_(ast), options_(options) {}

  AnalysisResult Run() {
    CollectPattern();
    CheckScopes();
    FoldWhere();
    CheckPropertyConstraints();
    CheckUnusedVariables();
    CheckConnectivity();
    std::stable_sort(result_.diagnostics.begin(), result_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       if (a.span.offset != b.span.offset) {
                         return a.span.offset < b.span.offset;
                       }
                       return a.code < b.code;
                     });
    return std::move(result_);
  }

 private:
  void Report(const char* code, Severity severity, std::string message,
              SourceSpan span) {
    result_.diagnostics.push_back(
        {code, severity, std::move(message), span});
  }

  // ---------------------------------------------------------------- pattern

  void CollectPattern() {
    for (const PatternPath& path : ast_.paths) {
      RegisterVertex(path.start);
      for (const auto& [rel, node] : path.steps) {
        RegisterEdge(rel);
        RegisterVertex(node);
      }
    }
  }

  void RegisterVertex(const NodePattern& node) {
    const SourceSpan span =
        node.variable_span.IsKnown() ? node.variable_span : node.span;
    CheckLabelVocabulary(node.labels, /*is_edge=*/false, node.span);
    auto it = vars_.find(node.variable);
    if (it == vars_.end()) {
      VarInfo info;
      info.kind = VarKind::kVertex;
      info.occurrences = 1;
      info.first_span = span;
      info.labels = node.labels;
      vars_.emplace(node.variable, std::move(info));
      return;
    }
    VarInfo& info = it->second;
    if (info.kind == VarKind::kEdge) {
      Report(kCodeVariableKindConflict, Severity::kError,
             "variable '" + node.variable +
                 "' is already an edge and cannot also name a vertex",
             span);
      return;
    }
    ++info.occurrences;
    if (!node.labels.empty()) {
      const std::vector<std::string> merged =
          IntersectLabels(info.labels, node.labels);
      if (merged.empty() && !info.labels.empty() &&
          !info.label_conflict_reported) {
        info.label_conflict_reported = true;
        result_.unsatisfiable = true;
        Report(kCodeLabelContradiction, Severity::kWarning,
               "contradictory label constraints on '" + node.variable +
                   "': no label is both :" + JoinLabels(info.labels) +
                   " and :" + JoinLabels(node.labels) +
                   "; the query matches nothing",
               node.span);
      }
      info.labels = merged;
    }
  }

  void RegisterEdge(const RelationshipPattern& rel) {
    const SourceSpan span =
        rel.variable_span.IsKnown() ? rel.variable_span : rel.span;
    CheckLabelVocabulary(rel.types, /*is_edge=*/true, rel.span);
    if (rel.lower_bound < 0) {
      Report(kCodeInvalidBounds, Severity::kError,
             "variable-length lower bound is negative (" +
                 std::to_string(rel.lower_bound) + ")",
             rel.bounds_span.IsKnown() ? rel.bounds_span : rel.span);
    } else if (rel.upper_bound < rel.lower_bound) {
      Report(kCodeInvalidBounds, Severity::kError,
             "variable-length bounds are reversed (" +
                 std::to_string(rel.lower_bound) + " > " +
                 std::to_string(rel.upper_bound) + ")",
             rel.bounds_span.IsKnown() ? rel.bounds_span : rel.span);
    }
    auto it = vars_.find(rel.variable);
    if (it == vars_.end()) {
      VarInfo info;
      info.kind = VarKind::kEdge;
      info.occurrences = 1;
      info.first_span = span;
      vars_.emplace(rel.variable, std::move(info));
      return;
    }
    if (it->second.kind == VarKind::kVertex) {
      Report(kCodeVariableKindConflict, Severity::kError,
             "variable '" + rel.variable +
                 "' is already a vertex and cannot also name an edge",
             span);
      return;
    }
    // Every edge pattern binds a distinct edge; reusing the variable is an
    // error (unlike vertices, which merge into one query vertex).
    ++it->second.occurrences;
    Report(kCodeEdgeRebound, Severity::kError,
           "edge variable '" + rel.variable + "' is bound more than once",
           span);
  }

  void CheckLabelVocabulary(const std::vector<std::string>& labels,
                            bool is_edge, SourceSpan span) {
    if (options_.statistics == nullptr) return;
    const query::GraphStatistics& stats = *options_.statistics;
    for (const std::string& label : labels) {
      const bool known =
          is_edge ? stats.HasEdgeLabel(label) : stats.HasVertexLabel(label);
      if (known) continue;
      std::string message = std::string(is_edge ? "edge type" : "label") +
                            " ':" + label + "' does not occur in the graph";
      if (const auto suggestion = NearestLabel(label, is_edge)) {
        message += "; did you mean ':" + *suggestion + "'?";
      }
      Report(kCodeUnknownLabel, Severity::kWarning, std::move(message), span);
    }
  }

  // Case-insensitive edit distance ≤ 2 against the graph's vocabulary
  // catches the common label typos (wrong case, a dropped or doubled
  // letter, a transposition counted as two edits). Ties go to the
  // closest candidate, first-seen on equal distance.
  std::optional<std::string> NearestLabel(const std::string& label,
                                          bool is_edge) const {
    auto lower = [](std::string s) {
      for (char& c : s) c = static_cast<char>(std::tolower(c));
      return s;
    };
    const std::string needle = lower(label);
    const std::vector<std::string> known =
        is_edge ? options_.statistics->EdgeLabels()
                : options_.statistics->VertexLabels();
    std::optional<std::string> best;
    size_t best_distance = 3;  // anything further is not a typo
    for (const std::string& candidate : known) {
      const size_t d = EditDistance(needle, lower(candidate));
      if (d < best_distance) {
        best_distance = d;
        best = candidate;
      }
    }
    return best;
  }

  static size_t EditDistance(const std::string& a, const std::string& b) {
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t diagonal = row[0];
      row[0] = i;
      for (size_t j = 1; j <= b.size(); ++j) {
        const size_t up = row[j];
        row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                           diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
        diagonal = up;
      }
    }
    return row[b.size()];
  }

  // ----------------------------------------------------------------- scopes

  void CheckScopes() {
    if (ast_.where != nullptr) {
      CheckExpressionScope(ast_.where);
      ast_.where->CollectVariables(&used_);
    }
    for (const ReturnItem& item : ast_.return_items) {
      used_.insert(item.variable);
      if (!vars_.count(item.variable)) {
        Report(kCodeUndefinedVariable, Severity::kError,
               "RETURN references undefined variable '" + item.variable + "'",
               item.span);
      }
    }
  }

  void CheckExpressionScope(const ExpressionPtr& expr) {
    if (expr == nullptr) return;
    if (expr->kind() == ExprKind::kPropertyAccess ||
        expr->kind() == ExprKind::kVariable) {
      if (!vars_.count(expr->variable())) {
        Report(kCodeUndefinedVariable, Severity::kError,
               "predicate references undefined variable '" +
                   expr->variable() + "'",
               expr->span());
      }
      return;
    }
    CheckExpressionScope(expr->left());
    CheckExpressionScope(expr->right());
  }

  // ---------------------------------------------------------------- folding

  void FoldWhere() {
    if (ast_.where == nullptr) {
      result_.folded_where = nullptr;
      return;
    }
    const Folded folded = FoldPredicate(ast_.where);
    if (!folded.IsConst()) {
      result_.folded_where = folded.expr;
      return;
    }
    if (folded.IsTrue()) {
      result_.folded_where = nullptr;
      Report(kCodeConstantWhere, Severity::kWarning,
             "WHERE is always true and can be removed", ast_.where->span());
      return;
    }
    // Constant false or NULL: WHERE keeps a row only when the predicate is
    // definitely true, so the match set is empty. Keep a false literal so
    // query graphs built from the folded AST preserve the semantics.
    result_.folded_where = Expression::Literal(false, ast_.where->span());
    result_.unsatisfiable = true;
    Report(kCodeConstantWhere, Severity::kWarning,
           std::string("WHERE is always ") + TernaryName(*folded.constant) +
               "; the query matches nothing",
           ast_.where->span());
  }

  Folded FoldPredicate(const ExpressionPtr& expr) {
    switch (expr->kind()) {
      case ExprKind::kLiteral:
        // Mirrors EvaluateTernary: a non-boolean literal in predicate
        // position has the NULL truth value.
        if (expr->literal().is_bool()) {
          return {expr, Ternary(std::optional<bool>(
                            expr->literal().bool_value()))};
        }
        return {expr, Ternary(std::optional<bool>())};
      case ExprKind::kPropertyAccess:
        return MakeDynamic(expr);
      case ExprKind::kVariable:
        // `WHERE a` — an element reference has no truth value.
        Report(kCodeElementMisuse, Severity::kError,
               "element reference '" + expr->variable() +
                   "' is not a predicate",
               expr->span());
        return MakeDynamic(expr);
      case ExprKind::kComparison:
        if (expr->left() == nullptr || expr->right() == nullptr) {
          return MakeDynamic(expr);  // malformed hand-built tree
        }
        return FoldComparison(expr);
      case ExprKind::kAnd:
      case ExprKind::kOr:
      case ExprKind::kXor:
        if (expr->left() == nullptr || expr->right() == nullptr) {
          return MakeDynamic(expr);
        }
        return FoldBinary(expr);
      case ExprKind::kNot: {
        if (expr->left() == nullptr) return MakeDynamic(expr);
        const Folded operand = FoldPredicate(expr->left());
        if (operand.IsConst()) {
          if (!operand.constant->has_value()) {
            return MakeConst(std::nullopt, expr->span());
          }
          return MakeConst(!**operand.constant, expr->span());
        }
        if (operand.expr == expr->left()) return MakeDynamic(expr);
        return MakeDynamic(Expression::Not(operand.expr, expr->span()));
      }
    }
    return MakeDynamic(expr);
  }

  Folded FoldBinary(const ExpressionPtr& expr) {
    const Folded l = FoldPredicate(expr->left());
    const Folded r = FoldPredicate(expr->right());
    const ExprKind kind = expr->kind();
    if (l.IsConst() && r.IsConst()) {
      const std::optional<bool> a = *l.constant;
      const std::optional<bool> b = *r.constant;
      // Exactly EvaluateTernary's connective tables.
      std::optional<bool> v;
      if (kind == ExprKind::kAnd) {
        if ((a.has_value() && !*a) || (b.has_value() && !*b)) {
          v = false;
        } else if (a.has_value() && b.has_value()) {
          v = true;
        }
      } else if (kind == ExprKind::kOr) {
        if ((a.has_value() && *a) || (b.has_value() && *b)) {
          v = true;
        } else if (a.has_value() && b.has_value()) {
          v = false;
        }
      } else {  // XOR
        if (a.has_value() && b.has_value()) v = *a != *b;
      }
      return MakeConst(v, expr->span());
    }
    if (l.IsConst() || r.IsConst()) {
      const Folded& c = l.IsConst() ? l : r;
      const Folded& d = l.IsConst() ? r : l;
      if (kind == ExprKind::kAnd) {
        // false AND x == false; true AND x == x; NULL AND x folds only
        // when x is false, which is unknown here — keep the node.
        if (c.IsFalse()) return MakeConst(false, expr->span());
        if (c.IsTrue()) return d;
      } else if (kind == ExprKind::kOr) {
        if (c.IsTrue()) return MakeConst(true, expr->span());
        if (c.IsFalse()) return d;
      } else {  // XOR
        if (c.IsNull()) return MakeConst(std::nullopt, expr->span());
        if (c.IsTrue()) {
          return MakeDynamic(Expression::Not(d.expr, expr->span()));
        }
        return d;  // false XOR x == x (including x = NULL)
      }
    }
    if (l.expr == expr->left() && r.expr == expr->right()) {
      return MakeDynamic(expr);
    }
    switch (kind) {
      case ExprKind::kAnd:
        return MakeDynamic(Expression::And(l.expr, r.expr));
      case ExprKind::kOr:
        return MakeDynamic(Expression::Or(l.expr, r.expr));
      default:
        return MakeDynamic(Expression::Xor(l.expr, r.expr));
    }
  }

  Folded FoldComparison(const ExpressionPtr& expr) {
    const ExpressionPtr& lhs = expr->left();
    const ExpressionPtr& rhs = expr->right();
    if (lhs->kind() == ExprKind::kVariable ||
        rhs->kind() == ExprKind::kVariable) {
      return FoldElementComparison(expr);
    }
    const ComparisonOp op = expr->comparison_op();
    const bool ordering = op != ComparisonOp::kEq && op != ComparisonOp::kNeq;
    // Ordering against a boolean can never be true (PropertyValue carries
    // no boolean ordering); the plan verifier rejects it as ill-typed in
    // debug builds, so the analyzer rejects it in every build.
    if (ordering) {
      for (const ExpressionPtr& side : {lhs, rhs}) {
        if (side->kind() == ExprKind::kLiteral && side->literal().is_bool()) {
          Report(kCodeIllTypedComparison, Severity::kError,
                 "cannot order against boolean " + Quoted(side->literal()),
                 expr->span());
          return MakeDynamic(expr);
        }
      }
    }
    if (lhs->kind() == ExprKind::kLiteral &&
        rhs->kind() == ExprKind::kLiteral) {
      const std::optional<bool> v =
          EvaluateLiteralComparison(op, lhs->literal(), rhs->literal());
      Report(kCodeConstantComparison, Severity::kWarning,
             "comparison of two constants is always " +
                 std::string(TernaryName(v)),
             expr->span());
      return MakeConst(v, expr->span());
    }
    // One side NULL literal: comparisons with NULL are NULL regardless of
    // the other side.
    for (const ExpressionPtr& side : {lhs, rhs}) {
      if (side->kind() == ExprKind::kLiteral && side->literal().is_null()) {
        Report(kCodeConstantComparison, Severity::kWarning,
               "comparison with NULL is always NULL (never matches)",
               expr->span());
        return MakeConst(std::nullopt, expr->span());
      }
    }
    return MakeDynamic(expr);
  }

  // Exactly EvaluateComparison's semantics, on two known values.
  static std::optional<bool> EvaluateLiteralComparison(
      ComparisonOp op, const PropertyValue& lhs, const PropertyValue& rhs) {
    if (lhs.is_null() || rhs.is_null()) return std::nullopt;
    if (op == ComparisonOp::kEq) return lhs == rhs;
    if (op == ComparisonOp::kNeq) return lhs != rhs;
    const std::optional<int> cmp = lhs.Compare(rhs);
    if (!cmp.has_value()) return std::nullopt;
    switch (op) {
      case ComparisonOp::kLt:
        return *cmp < 0;
      case ComparisonOp::kLte:
        return *cmp <= 0;
      case ComparisonOp::kGt:
        return *cmp > 0;
      case ComparisonOp::kGte:
        return *cmp >= 0;
      default:
        return std::nullopt;
    }
  }

  // Bare element comparisons: `a = b`, `a <> b`. Decidable statically
  // under isomorphism (distinct variables never bind the same element) and
  // for kind mismatches; not executable otherwise.
  Folded FoldElementComparison(const ExpressionPtr& expr) {
    const ExpressionPtr& lhs = expr->left();
    const ExpressionPtr& rhs = expr->right();
    if (lhs->kind() != ExprKind::kVariable ||
        rhs->kind() != ExprKind::kVariable) {
      const ExpressionPtr& element =
          lhs->kind() == ExprKind::kVariable ? lhs : rhs;
      Report(kCodeElementMisuse, Severity::kError,
             "cannot compare element '" + element->variable() +
                 "' to a value; did you mean a property of it?",
             expr->span());
      return MakeDynamic(expr);
    }
    const auto lit = vars_.find(lhs->variable());
    const auto rit = vars_.find(rhs->variable());
    if (lit == vars_.end() || rit == vars_.end()) {
      return MakeDynamic(expr);  // undefined variables already reported
    }
    const ComparisonOp op = expr->comparison_op();
    if (op != ComparisonOp::kEq && op != ComparisonOp::kNeq) {
      Report(kCodeElementMisuse, Severity::kError,
             "graph elements cannot be ordered; only = and <> apply to '" +
                 lhs->variable() + "' and '" + rhs->variable() + "'",
             expr->span());
      return MakeDynamic(expr);
    }
    const bool want_equal = op == ComparisonOp::kEq;
    if (lhs->variable() == rhs->variable()) {
      Report(kCodeConstantElementEquality, Severity::kWarning,
             "'" + lhs->variable() + "' compared to itself is always " +
                 (want_equal ? "true" : "false"),
             expr->span());
      return MakeConst(want_equal, expr->span());
    }
    if (lit->second.kind != rit->second.kind) {
      Report(kCodeConstantElementEquality, Severity::kWarning,
             "a vertex and an edge are never equal; '" + lhs->variable() +
                 " " + ComparisonOpName(op) + " " + rhs->variable() +
                 "' is always " + (want_equal ? "false" : "true"),
             expr->span());
      return MakeConst(!want_equal, expr->span());
    }
    const bool is_vertex = lit->second.kind == VarKind::kVertex;
    const MatchSemantics semantics =
        is_vertex ? options_.semantics.vertex : options_.semantics.edge;
    if (semantics == MatchSemantics::kHomomorphism) {
      Report(kCodeElementMisuse, Severity::kError,
             std::string("element equality between '") + lhs->variable() +
                 "' and '" + rhs->variable() + "' is not executable under " +
                 (is_vertex ? "vertex" : "edge") + " homomorphism semantics",
             expr->span());
      return MakeDynamic(expr);
    }
    Report(kCodeConstantElementEquality, Severity::kWarning,
           std::string("under ") + (is_vertex ? "vertex" : "edge") +
               " isomorphism '" + lhs->variable() + "' and '" +
               rhs->variable() + "' bind distinct elements; '" +
               lhs->variable() + " " + ComparisonOpName(op) + " " +
               rhs->variable() + "' is always " +
               (want_equal ? "false" : "true"),
           expr->span());
    return MakeConst(!want_equal, expr->span());
  }

  // ----------------------------------------------- property satisfiability

  struct Constraint {
    ComparisonOp op;
    PropertyValue value;
    SourceSpan span;
  };

  void CheckPropertyConstraints() {
    // Required conjuncts: pattern property maps plus every single-atom CNF
    // clause of the folded WHERE that compares a property to a literal.
    std::map<std::pair<std::string, std::string>, std::vector<Constraint>>
        by_property;
    auto add = [&](const std::string& var, const std::string& key,
                   ComparisonOp op, const PropertyValue& value,
                   SourceSpan span) {
      if (value.is_null()) return;
      by_property[{var, key}].push_back({op, value, span});
    };
    for (const PatternPath& path : ast_.paths) {
      for (const auto& [key, value] : path.start.properties) {
        add(path.start.variable, key, ComparisonOp::kEq, value,
            path.start.span);
      }
      for (const auto& [rel, node] : path.steps) {
        for (const auto& [key, value] : rel.properties) {
          add(rel.variable, key, ComparisonOp::kEq, value, rel.span);
        }
        for (const auto& [key, value] : node.properties) {
          add(node.variable, key, ComparisonOp::kEq, value, node.span);
        }
      }
    }
    if (result_.folded_where != nullptr) {
      const cypher::Cnf cnf = cypher::ToCnf(result_.folded_where);
      if (cnf.clauses.size() > 64) return;  // pathological; skip the pass
      for (const cypher::CnfClause& clause : cnf.clauses) {
        if (clause.atoms.size() != 1) continue;
        const ExpressionPtr& atom = clause.atoms[0];
        if (atom->kind() != ExprKind::kComparison) continue;
        const ExpressionPtr& l = atom->left();
        const ExpressionPtr& r = atom->right();
        if (l->kind() == ExprKind::kPropertyAccess &&
            r->kind() == ExprKind::kLiteral) {
          add(l->variable(), l->property_key(), atom->comparison_op(),
              r->literal(), atom->span());
        } else if (l->kind() == ExprKind::kLiteral &&
                   r->kind() == ExprKind::kPropertyAccess) {
          add(r->variable(), r->property_key(), Mirror(atom->comparison_op()),
              l->literal(), atom->span());
        }
      }
    }
    for (const auto& [property, constraints] : by_property) {
      CheckOneProperty(property.first + "." + property.second, constraints);
    }
  }

  // `lit op prop` rewritten as `prop op' lit`.
  static ComparisonOp Mirror(ComparisonOp op) {
    switch (op) {
      case ComparisonOp::kLt:
        return ComparisonOp::kGt;
      case ComparisonOp::kLte:
        return ComparisonOp::kGte;
      case ComparisonOp::kGt:
        return ComparisonOp::kLt;
      case ComparisonOp::kGte:
        return ComparisonOp::kLte;
      default:
        return op;
    }
  }

  std::string DescribeConstraint(const std::string& property,
                                 const Constraint& c) const {
    return property + " " + ComparisonOpName(c.op) + " " + Quoted(c.value);
  }

  void CheckOneProperty(const std::string& property,
                        const std::vector<Constraint>& constraints) {
    for (size_t i = 0; i < constraints.size(); ++i) {
      for (size_t j = i + 1; j < constraints.size(); ++j) {
        if (Contradicts(constraints[i], constraints[j])) {
          result_.unsatisfiable = true;
          const SourceSpan span =
              constraints[j].span.IsKnown() ? constraints[j].span
                                            : constraints[i].span;
          Report(kCodePropertyContradiction, Severity::kWarning,
                 "conflicting constraints on " + property + ": '" +
                     DescribeConstraint(property, constraints[i]) +
                     "' and '" +
                     DescribeConstraint(property, constraints[j]) +
                     "' cannot both hold; the query matches nothing",
                 span);
          return;  // one report per property
        }
      }
    }
  }

  // True when no single value satisfies both required constraints. Every
  // check is conservative: a comparison that could be NULL at runtime
  // makes its conjunct false, so "incomparable types" contradicts.
  static bool Contradicts(const Constraint& a, const Constraint& b) {
    auto lower_of = [](const Constraint& c) {
      return c.op == ComparisonOp::kGt || c.op == ComparisonOp::kGte;
    };
    auto upper_of = [](const Constraint& c) {
      return c.op == ComparisonOp::kLt || c.op == ComparisonOp::kLte;
    };
    auto strict = [](const Constraint& c) {
      return c.op == ComparisonOp::kLt || c.op == ComparisonOp::kGt;
    };
    // Equality against each requirement of the other constraint.
    auto eq_violates = [&](const PropertyValue& v, const Constraint& c) {
      switch (c.op) {
        case ComparisonOp::kEq:
          return !(v == c.value);
        case ComparisonOp::kNeq:
          return v == c.value;
        default: {
          const std::optional<int> cmp = v.Compare(c.value);
          if (!cmp.has_value()) return true;  // NULL ordering -> false
          switch (c.op) {
            case ComparisonOp::kLt:
              return *cmp >= 0;
            case ComparisonOp::kLte:
              return *cmp > 0;
            case ComparisonOp::kGt:
              return *cmp <= 0;
            case ComparisonOp::kGte:
              return *cmp < 0;
            default:
              return false;
          }
        }
      }
    };
    if (a.op == ComparisonOp::kEq) return eq_violates(a.value, b);
    if (b.op == ComparisonOp::kEq) return eq_violates(b.value, a);
    // Interval emptiness between a lower and an upper bound.
    const Constraint* lo = nullptr;
    const Constraint* hi = nullptr;
    if (lower_of(a) && upper_of(b)) {
      lo = &a;
      hi = &b;
    } else if (lower_of(b) && upper_of(a)) {
      lo = &b;
      hi = &a;
    }
    if (lo == nullptr) return false;  // <> pairs / same-direction bounds
    const std::optional<int> cmp = lo->value.Compare(hi->value);
    // Incomparable bound types: any value ordered against one of them is
    // NULL, so one of the two conjuncts is always false.
    if (!cmp.has_value()) return true;
    if (*cmp > 0) return true;
    return *cmp == 0 && (strict(*lo) || strict(*hi));
  }

  // ------------------------------------------------------- structural lints

  void CheckUnusedVariables() {
    if (ast_.return_all) return;  // RETURN * uses every variable
    for (const auto& [name, info] : vars_) {
      if (IsAnonymous(name) || used_.count(name)) continue;
      // A vertex variable naming several pattern nodes joins them — that
      // is a use even when nothing else references it.
      if (info.kind == VarKind::kVertex && info.occurrences > 1) continue;
      Report(kCodeUnusedVariable, Severity::kWarning,
             std::string(info.kind == VarKind::kVertex ? "vertex" : "edge") +
                 " variable '" + name +
                 "' is never used; an anonymous pattern matches the same",
             info.first_span);
    }
  }

  void CheckConnectivity() {
    if (ast_.paths.size() < 2) return;
    UnionFind uf;
    for (const PatternPath& path : ast_.paths) {
      std::string prev = path.start.variable;
      uf.Add(prev);
      for (const auto& [rel, node] : path.steps) {
        uf.Union(rel.variable, prev);
        uf.Union(node.variable, prev);
        prev = node.variable;
      }
    }
    // A cross predicate (`a.x = b.y`) still correlates the components via
    // a value join, so it counts as a connection for this lint.
    if (ast_.where != nullptr) ConnectComparisons(ast_.where, &uf);
    const std::string first = uf.Find(ast_.paths[0].start.variable);
    for (const PatternPath& path : ast_.paths) {
      if (uf.Find(path.start.variable) != first) {
        Report(kCodeCartesianProduct, Severity::kWarning,
               "pattern is disconnected; the result is the cartesian "
               "product of its components",
               path.span);
        return;
      }
    }
  }

  void ConnectComparisons(const ExpressionPtr& expr, UnionFind* uf) {
    if (expr == nullptr) return;
    if (expr->kind() == ExprKind::kComparison) {
      std::set<std::string> vars;
      expr->CollectVariables(&vars);
      if (vars.size() < 2) return;
      const std::string& first = *vars.begin();
      for (const std::string& v : vars) uf->Union(v, first);
      return;
    }
    ConnectComparisons(expr->left(), uf);
    ConnectComparisons(expr->right(), uf);
  }

  const CypherQuery& ast_;
  const AnalyzerOptions& options_;
  AnalysisResult result_;
  std::map<std::string, VarInfo> vars_;
  std::set<std::string> used_;
};

}  // namespace

bool AnalysisResult::HasErrors() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

std::string AnalysisResult::ErrorSummary() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (!out.empty()) out += "\n";
    out += d.ToString();
  }
  return out;
}

AnalysisResult AnalyzeQuery(const cypher::CypherQuery& ast,
                            const AnalyzerOptions& options) {
  return Analyzer(ast, options).Run();
}

}  // namespace gradoop::analysis
