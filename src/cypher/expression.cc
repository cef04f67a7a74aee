#include "cypher/expression.h"

#include <cassert>

namespace gradoop::cypher {

ComparisonOp NegateComparison(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return ComparisonOp::kNeq;
    case ComparisonOp::kNeq:
      return ComparisonOp::kEq;
    case ComparisonOp::kLt:
      return ComparisonOp::kGte;
    case ComparisonOp::kLte:
      return ComparisonOp::kGt;
    case ComparisonOp::kGt:
      return ComparisonOp::kLte;
    case ComparisonOp::kGte:
      return ComparisonOp::kLt;
  }
  return ComparisonOp::kEq;
}

const char* ComparisonOpName(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return "=";
    case ComparisonOp::kNeq:
      return "<>";
    case ComparisonOp::kLt:
      return "<";
    case ComparisonOp::kLte:
      return "<=";
    case ComparisonOp::kGt:
      return ">";
    case ComparisonOp::kGte:
      return ">=";
  }
  return "?";
}

namespace {

SourceSpan SpanOf(const ExpressionPtr& e) {
  return e == nullptr ? SourceSpan{} : e->span();
}

// open + inner + close, built by appends: GCC 12 at -O3 reports a false
// -Wrestrict overlap inside the operator+ that "literal" + std::string
// selects.
std::string Wrapped(const char* open, const std::string& inner,
                    const char* close) {
  std::string out = open;
  out += inner;
  out += close;
  return out;
}

}  // namespace

ExpressionPtr Expression::Literal(epgm::PropertyValue value, SourceSpan span) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(value);
  e->span_ = span;
  return e;
}

ExpressionPtr Expression::PropertyAccess(std::string variable,
                                         std::string key, SourceSpan span) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kPropertyAccess;
  e->variable_ = std::move(variable);
  e->property_key_ = std::move(key);
  e->span_ = span;
  return e;
}

ExpressionPtr Expression::Variable(std::string variable, SourceSpan span) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kVariable;
  e->variable_ = std::move(variable);
  e->span_ = span;
  return e;
}

ExpressionPtr Expression::Comparison(ComparisonOp op, ExpressionPtr lhs,
                                     ExpressionPtr rhs, SourceSpan span) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kComparison;
  e->op_ = op;
  e->span_ = span.IsKnown() ? span : SourceSpan::Cover(SpanOf(lhs),
                                                       SpanOf(rhs));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExpressionPtr Expression::And(ExpressionPtr lhs, ExpressionPtr rhs) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kAnd;
  e->span_ = SourceSpan::Cover(SpanOf(lhs), SpanOf(rhs));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExpressionPtr Expression::Or(ExpressionPtr lhs, ExpressionPtr rhs) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kOr;
  e->span_ = SourceSpan::Cover(SpanOf(lhs), SpanOf(rhs));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExpressionPtr Expression::Xor(ExpressionPtr lhs, ExpressionPtr rhs) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kXor;
  e->span_ = SourceSpan::Cover(SpanOf(lhs), SpanOf(rhs));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExpressionPtr Expression::Not(ExpressionPtr operand, SourceSpan span) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kNot;
  e->span_ = span.IsKnown() ? span : SpanOf(operand);
  e->left_ = std::move(operand);
  return e;
}

void Expression::CollectPropertyAccesses(
    std::set<std::pair<std::string, std::string>>* out) const {
  if (kind_ == ExprKind::kPropertyAccess) {
    out->emplace(variable_, property_key_);
  }
  if (left_) left_->CollectPropertyAccesses(out);
  if (right_) right_->CollectPropertyAccesses(out);
}

void Expression::CollectVariables(std::set<std::string>* out) const {
  if (kind_ == ExprKind::kPropertyAccess || kind_ == ExprKind::kVariable) {
    out->insert(variable_);
  }
  if (left_) left_->CollectVariables(out);
  if (right_) right_->CollectVariables(out);
}

std::string Expression::ToString() const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_.is_string() ? Wrapped("'", literal_.ToString(), "'")
                                  : literal_.ToString();
    case ExprKind::kPropertyAccess:
      return variable_ + "." + property_key_;
    case ExprKind::kVariable:
      return variable_;
    case ExprKind::kComparison:
      return left_->ToString() + " " + ComparisonOpName(op_) + " " +
             right_->ToString();
    case ExprKind::kAnd:
      return Wrapped("(", left_->ToString() + " AND " + right_->ToString(),
                     ")");
    case ExprKind::kOr:
      return Wrapped("(", left_->ToString() + " OR " + right_->ToString(),
                     ")");
    case ExprKind::kXor:
      return Wrapped("(", left_->ToString() + " XOR " + right_->ToString(),
                     ")");
    case ExprKind::kNot:
      return Wrapped("NOT (", left_->ToString(), ")");
  }
  return "?";
}

namespace {

// Evaluates a value-producing subexpression (literal or property access).
epgm::PropertyValue EvaluateValue(const Expression& expr,
                                  const ValueResolver& resolver) {
  if (expr.kind() == ExprKind::kLiteral) return expr.literal();
  // Bare variable references never survive semantic analysis; evaluating
  // one (only reachable when QueryGraph::Build is driven directly, without
  // the analyzer) yields NULL, which collapses the predicate to false.
  if (expr.kind() == ExprKind::kVariable) return epgm::PropertyValue::Null();
  assert(expr.kind() == ExprKind::kPropertyAccess);
  return resolver(expr.variable(), expr.property_key());
}

std::optional<bool> EvaluateComparison(const Expression& expr,
                                       const ValueResolver& resolver) {
  const epgm::PropertyValue lhs = EvaluateValue(*expr.left(), resolver);
  const epgm::PropertyValue rhs = EvaluateValue(*expr.right(), resolver);
  if (lhs.is_null() || rhs.is_null()) return std::nullopt;
  switch (expr.comparison_op()) {
    case ComparisonOp::kEq:
      return lhs == rhs;
    case ComparisonOp::kNeq:
      // Cypher: comparing values of incompatible types yields NULL for
      // ordering but <>/= are defined as plain (in)equality.
      return lhs != rhs;
    default:
      break;
  }
  const std::optional<int> cmp = lhs.Compare(rhs);
  if (!cmp.has_value()) return std::nullopt;
  switch (expr.comparison_op()) {
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

}  // namespace

std::optional<bool> EvaluateTernary(const Expression& expr,
                                    const ValueResolver& resolver) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      if (expr.literal().is_bool()) return expr.literal().bool_value();
      if (expr.literal().is_null()) return std::nullopt;
      return std::nullopt;  // non-boolean literal in predicate position
    case ExprKind::kPropertyAccess: {
      const epgm::PropertyValue v =
          resolver(expr.variable(), expr.property_key());
      if (v.is_bool()) return v.bool_value();
      return std::nullopt;
    }
    case ExprKind::kVariable:
      // An element reference is not a truth value (see EvaluateValue).
      return std::nullopt;
    case ExprKind::kComparison:
      return EvaluateComparison(expr, resolver);
    case ExprKind::kAnd: {
      const auto l = EvaluateTernary(*expr.left(), resolver);
      const auto r = EvaluateTernary(*expr.right(), resolver);
      if (l.has_value() && !*l) return false;
      if (r.has_value() && !*r) return false;
      if (l.has_value() && r.has_value()) return true;
      return std::nullopt;
    }
    case ExprKind::kOr: {
      const auto l = EvaluateTernary(*expr.left(), resolver);
      const auto r = EvaluateTernary(*expr.right(), resolver);
      if (l.has_value() && *l) return true;
      if (r.has_value() && *r) return true;
      if (l.has_value() && r.has_value()) return false;
      return std::nullopt;
    }
    case ExprKind::kXor: {
      const auto l = EvaluateTernary(*expr.left(), resolver);
      const auto r = EvaluateTernary(*expr.right(), resolver);
      if (!l.has_value() || !r.has_value()) return std::nullopt;
      return *l != *r;
    }
    case ExprKind::kNot: {
      const auto v = EvaluateTernary(*expr.left(), resolver);
      if (!v.has_value()) return std::nullopt;
      return !*v;
    }
  }
  return std::nullopt;
}

bool EvaluatePredicate(const Expression& expr, const ValueResolver& resolver) {
  const auto v = EvaluateTernary(expr, resolver);
  return v.has_value() && *v;
}

std::set<std::string> CnfClause::Variables() const {
  std::set<std::string> vars;
  for (const ExpressionPtr& atom : atoms) atom->CollectVariables(&vars);
  return vars;
}

std::string CnfClause::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += " OR ";
    out += atoms[i]->ToString();
  }
  return out + ")";
}

std::string Cnf::ToString() const {
  std::string out;
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) out += " AND ";
    out += clauses[i].ToString();
  }
  return out;
}

namespace {

// Rewrites to negation normal form: NOT sinks into comparisons (operator
// negation), XOR expands into AND/OR.
ExpressionPtr ToNnf(const ExpressionPtr& expr, bool negate) {
  switch (expr->kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kPropertyAccess:
    case ExprKind::kVariable: {
      // Boolean atom; represent negation as `atom = false`.
      if (!negate) return expr;
      return Expression::Comparison(ComparisonOp::kEq, expr,
                                    Expression::Literal(false));
    }
    case ExprKind::kComparison:
      if (!negate) return expr;
      return Expression::Comparison(NegateComparison(expr->comparison_op()),
                                    expr->left(), expr->right());
    case ExprKind::kAnd: {
      auto l = ToNnf(expr->left(), negate);
      auto r = ToNnf(expr->right(), negate);
      return negate ? Expression::Or(l, r) : Expression::And(l, r);
    }
    case ExprKind::kOr: {
      auto l = ToNnf(expr->left(), negate);
      auto r = ToNnf(expr->right(), negate);
      return negate ? Expression::And(l, r) : Expression::Or(l, r);
    }
    case ExprKind::kXor: {
      // a XOR b == (a OR b) AND (NOT a OR NOT b); negation flips to XNOR.
      auto a = expr->left();
      auto b = expr->right();
      ExpressionPtr expanded;
      if (!negate) {
        expanded = Expression::And(
            Expression::Or(a, b),
            Expression::Or(Expression::Not(a), Expression::Not(b)));
      } else {
        expanded = Expression::Or(
            Expression::And(a, b),
            Expression::And(Expression::Not(a), Expression::Not(b)));
      }
      return ToNnf(expanded, false);
    }
    case ExprKind::kNot:
      return ToNnf(expr->left(), !negate);
  }
  return expr;
}

// Distributes OR over AND on an NNF tree, producing clause lists.
std::vector<CnfClause> ToClauses(const ExpressionPtr& expr) {
  switch (expr->kind()) {
    case ExprKind::kAnd: {
      auto l = ToClauses(expr->left());
      auto r = ToClauses(expr->right());
      l.insert(l.end(), std::make_move_iterator(r.begin()),
               std::make_move_iterator(r.end()));
      return l;
    }
    case ExprKind::kOr: {
      const auto l = ToClauses(expr->left());
      const auto r = ToClauses(expr->right());
      std::vector<CnfClause> out;
      out.reserve(l.size() * r.size());
      for (const CnfClause& cl : l) {
        for (const CnfClause& cr : r) {
          CnfClause merged = cl;
          merged.atoms.insert(merged.atoms.end(), cr.atoms.begin(),
                              cr.atoms.end());
          out.push_back(std::move(merged));
        }
      }
      return out;
    }
    default: {
      CnfClause clause;
      clause.atoms.push_back(expr);
      return {std::move(clause)};
    }
  }
}

}  // namespace

Cnf ToCnf(const ExpressionPtr& expr) {
  Cnf cnf;
  if (expr == nullptr) return cnf;
  cnf.clauses = ToClauses(ToNnf(expr, false));
  return cnf;
}

bool EvaluateClause(const CnfClause& clause, const ValueResolver& resolver) {
  for (const ExpressionPtr& atom : clause.atoms) {
    const auto v = EvaluateTernary(*atom, resolver);
    if (v.has_value() && *v) return true;
  }
  return false;
}

}  // namespace gradoop::cypher
