#include "archis/translator.h"

#include <functional>

#include "xquery/parser.h"

namespace archis::core {

using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::PathStep;

namespace {

Status Unsupported(const std::string& what) {
  return Status::Unsupported("translator: " + what +
                             " (falls back to native XQuery)");
}

/// What an XQuery variable is bound to.
struct BoundVar {
  bool is_entity = false;  ///< binds the per-key entity (key table var)
  size_t plan_idx = 0;     ///< plan variable index
  std::string relation;
  size_t group = 0;
};

/// An operand of a comparison: a plan column (plus a day offset for
/// `tstart($v) + n`) or a constant.
struct Operand {
  bool is_const = false;
  HColRef col;
  minirel::Value constant;
  int64_t offset_days = 0;
};

/// Tightens the inclusive bounds [*lo, *hi] by the conditions against date
/// constants in `conds`.
void NarrowDateBounds(const std::vector<ValueCond>& conds,
                      std::optional<Date>* lo, std::optional<Date>* hi) {
  for (const ValueCond& c : conds) {
    if (c.constant.type() != minirel::DataType::kDate) continue;
    const Date d = c.constant.AsDate();
    std::optional<Date> l, h;
    switch (c.op) {
      case minirel::CompareOp::kGe: l = d; break;
      case minirel::CompareOp::kGt: l = d.AddDays(1); break;
      case minirel::CompareOp::kLe: h = d; break;
      case minirel::CompareOp::kLt: h = d.AddDays(-1); break;
      case minirel::CompareOp::kEq: l = h = d; break;
      case minirel::CompareOp::kNe: break;
    }
    if (l && (!*lo || *l > **lo)) *lo = l;
    if (h && (!*hi || *h < **hi)) *hi = h;
  }
}

/// The scalar aggregate a top-level function call names, if any.
std::optional<PlanAggregate> ScalarAggregate(const ExprPtr& e) {
  static const std::map<std::string, PlanAggregate> kAggs = {
      {"avg", PlanAggregate::kAvgValue}, {"count", PlanAggregate::kCount},
      {"max", PlanAggregate::kMaxValue}, {"min", PlanAggregate::kMinValue},
      {"sum", PlanAggregate::kSumValue},
  };
  if (e->kind != ExprKind::kFunctionCall || e->children.size() != 1) {
    return std::nullopt;
  }
  auto it = kAggs.find(e->str);
  if (it == kAggs.end()) return std::nullopt;
  return it->second;
}

class Translator {
 public:
  Translator(const TranslatorContext& ctx) : ctx_(ctx) {}

  Result<SqlXmlPlan> Translate(const ExprPtr& query) {
    if (std::optional<PlanAggregate> agg = ScalarAggregate(query)) {
      ARCHIS_RETURN_NOT_OK(TranslateAggregate(*agg, query->children[0]));
    } else {
      ARCHIS_RETURN_NOT_OK(TranslateFlworQuery(query));
    }
    if (plan_.vars.empty()) {
      return Unsupported("no H-table variable identified");
    }
    // Variables created during output generation inherit their group's
    // single-object restriction.
    for (PlanVar& v : plan_.vars) {
      auto it = pending_id_eq_.find(v.join_group);
      if (it != pending_id_eq_.end()) v.id_eq = it->second;
    }
    return std::move(plan_);
  }

 private:
  Status TranslateFlworQuery(const ExprPtr& query) {
    ExprPtr flwor = query;
    // Pattern: element NAME { FLWOR } wraps the per-row output in an
    // XMLAgg inside one outer element (the paper's QUERY 1 shape).
    std::string wrapper;
    if (query->kind == ExprKind::kElementCtor &&
        query->children.size() == 1 &&
        query->children[0]->kind == ExprKind::kFlwor) {
      wrapper = query->str;
      flwor = query->children[0];
    }
    if (flwor->kind != ExprKind::kFlwor) {
      return Unsupported("top level must be a FLWOR, element{FLWOR} or "
                         "an aggregate");
    }
    ARCHIS_RETURN_NOT_OK(TranslateClauses(flwor));
    if (flwor->where != nullptr) {
      ARCHIS_RETURN_NOT_OK(TranslateCondition(flwor->where));
    }
    PropagateTstartBounds();
    ARCHIS_ASSIGN_OR_RETURN(OutputSpec out, BuildOutput(flwor->ret));
    if (!wrapper.empty()) {
      OutputSpec agg;
      agg.kind = OutputSpec::Kind::kAgg;
      agg.children.push_back(std::move(out));
      OutputSpec elem;
      elem.kind = OutputSpec::Kind::kElement;
      elem.name = wrapper;
      elem.children.push_back(std::move(agg));
      plan_.output = std::move(elem);
    } else {
      plan_.output = std::move(out);
    }
    // XQuery results are node sequences: joined rows that differ only in
    // predicate variables must not fan out the output.
    plan_.distinct_output = true;
    return Status::OK();
  }

  // -- Top-level aggregates (Section 5.4) ------------------------------------

  /// avg|count|max|min|sum(E): E is a doc() path (one fact per node it
  /// selects) or a FLWOR (one fact per tuple of its for bindings).
  Status TranslateAggregate(PlanAggregate agg, const ExprPtr& arg) {
    plan_.aggregate = agg;
    if (arg->kind == ExprKind::kPath) {
      // The path binds a hidden for variable.
      ARCHIS_RETURN_NOT_OK(BindClause("", arg));
      ARCHIS_ASSIGN_OR_RETURN(plan_.agg_expr, AggOperand(bound_.at(""), agg));
      return Status::OK();
    }
    if (arg->kind != ExprKind::kFlwor) {
      return Unsupported("aggregate argument must be a path or a FLWOR");
    }
    for (const xquery::ForLetClause& clause : arg->clauses) {
      // A let binds a sequence: it neither iterates nor requires a match.
      if (clause.is_let) return Unsupported("let inside an aggregated FLWOR");
    }
    ARCHIS_RETURN_NOT_OK(TranslateClauses(arg));
    if (arg->where != nullptr) {
      ARCHIS_RETURN_NOT_OK(TranslateCondition(arg->where));
    }
    PropagateTstartBounds();
    const ExprPtr& ret = arg->ret;
    if (ret->kind == ExprKind::kFunctionCall && ret->str == "op:subtract" &&
        ret->children.size() == 2 && agg != PlanAggregate::kCount) {
      ARCHIS_ASSIGN_OR_RETURN(AggExpr lhs, AggArgument(ret->children[0], agg));
      ARCHIS_ASSIGN_OR_RETURN(AggExpr rhs, AggArgument(ret->children[1], agg));
      plan_.agg_expr.arg = lhs.arg;
      plan_.agg_expr.minus = rhs.arg;
      return Status::OK();
    }
    ARCHIS_ASSIGN_OR_RETURN(plan_.agg_expr, AggArgument(ret, agg));
    return Status::OK();
  }

  /// The fact a bound variable contributes: count takes any node, the
  /// numeric aggregates need an attribute version's value (an entity
  /// element has no number).
  Result<AggExpr> AggOperand(const BoundVar& var, PlanAggregate agg) {
    if (var.is_entity && agg != PlanAggregate::kCount) {
      return Unsupported("numeric aggregate over entity elements");
    }
    AggExpr expr;
    expr.arg = {var.plan_idx, var.is_entity ? HCol::kId : HCol::kValue};
    return expr;
  }

  /// A returned `$v`, or `number($v)` for the numeric aggregates (count
  /// never evaluates its items, so it cannot mirror number()'s errors).
  Result<AggExpr> AggArgument(const ExprPtr& e, PlanAggregate agg) {
    const ExprPtr* ref = &e;
    if (agg != PlanAggregate::kCount && e->kind == ExprKind::kFunctionCall &&
        e->str == "number" && e->children.size() == 1) {
      ref = &e->children[0];
    }
    if ((*ref)->kind != ExprKind::kVarRef) {
      return Unsupported("aggregated return expression");
    }
    ARCHIS_ASSIGN_OR_RETURN(const BoundVar* var, Bound((*ref)->str));
    return AggOperand(*var, agg);
  }

  Result<const BoundVar*> Bound(const std::string& name) const {
    auto it = bound_.find(name);
    if (it == bound_.end()) {
      return Status::NotFound("translator: unbound $" + name);
    }
    return &it->second;
  }

  /// Transitive temporal pushdown: a tstart lower bound on one variable
  /// carries across `tstart(L) op tstart(R) + k` cross conditions, e.g.
  /// tstart($s1) >= c and tstart($s2) > tstart($s1) give tstart($s2) > c,
  /// so $s2's scan prunes to the segments after c as well.
  void PropagateTstartBounds() {
    std::vector<std::optional<Date>> lower(plan_.vars.size());
    for (size_t v = 0; v < plan_.vars.size(); ++v) {
      std::optional<Date> upper;
      NarrowDateBounds(plan_.vars[v].tstart_conds, &lower[v], &upper);
    }
    const std::vector<std::optional<Date>> direct = lower;
    auto raise = [&](size_t v, std::optional<Date> from, int64_t days) {
      if (!from) return false;
      Date lb = from->AddDays(days);
      if (lower[v] && lb <= *lower[v]) return false;
      lower[v] = lb;
      return true;
    };
    // Each pass can only tighten a bound; a contradictory cycle would
    // tighten forever, so the passes are capped.
    for (size_t pass = 0; pass <= plan_.cross_conds.size(); ++pass) {
      bool changed = false;
      for (const CrossCond& c : plan_.cross_conds) {
        if (c.kind != CrossCond::Kind::kCompare ||
            c.lhs.col != HCol::kTstart || c.rhs.col != HCol::kTstart) {
          continue;
        }
        // L op R + k: L > R + k puts L above R's bound, L < R + k puts R
        // above L's.
        using Op = minirel::CompareOp;
        const size_t l = c.lhs.var, r = c.rhs.var;
        const int64_t k = c.rhs_offset_days;
        switch (c.op) {
          case Op::kGt: changed |= raise(l, lower[r], k + 1); break;
          case Op::kGe: changed |= raise(l, lower[r], k); break;
          case Op::kLt: changed |= raise(r, lower[l], 1 - k); break;
          case Op::kLe: changed |= raise(r, lower[l], -k); break;
          case Op::kEq:
            changed |= raise(l, lower[r], k);
            changed |= raise(r, lower[l], -k);
            break;
          case Op::kNe: break;
        }
      }
      if (!changed) break;
    }
    for (size_t v = 0; v < plan_.vars.size(); ++v) {
      if (lower[v] && lower[v] != direct[v]) {
        plan_.vars[v].tstart_conds.push_back(
            {minirel::CompareOp::kGe, minirel::Value(*lower[v])});
        DeriveTemporalPushdown(v);
      }
    }
  }

 private:
  // -- Variable-range identification (Algorithm 1, lines 1-3) ---------------

  /// A fresh plan variable. Each for/let binding gets its own (so $s1 and
  /// $s2 over $e/salary stay two tuple variables); `predicate_only` marks
  /// the semi-join inputs of predicates, exists() and where conditions.
  size_t NewVar(const std::string& xq_name, const std::string& relation,
                const std::string& attribute, size_t group,
                bool predicate_only) {
    PlanVar var;
    var.xq_name = xq_name;
    var.relation = relation;
    var.attribute = attribute;
    var.join_group = group;
    var.predicate_only = predicate_only;
    plan_.vars.push_back(std::move(var));
    return plan_.vars.size() - 1;
  }

  /// Reuses or creates the attribute variable that predicates and the
  /// return clause use for `relation.attr` within a join group (Algorithm
  /// 1 line 5 then generates Vi.id = Vj.id, which the executor derives
  /// from shared join groups).
  size_t AttrVar(const std::string& relation, const std::string& attr,
                 size_t group, bool predicate_only) {
    std::string key = std::to_string(group) + "/" + relation + "/" + attr;
    auto it = attr_vars_.find(key);
    if (it != attr_vars_.end()) return it->second;
    size_t idx =
        NewVar(relation + "." + attr, relation, attr, group, predicate_only);
    attr_vars_[key] = idx;
    return idx;
  }

  /// Handles a for/let binding expression; registers the variable.
  Status TranslateClauses(const ExprPtr& flwor) {
    for (const xquery::ForLetClause& clause : flwor->clauses) {
      ARCHIS_RETURN_NOT_OK(BindClause(clause.var, clause.expr));
    }
    return Status::OK();
  }

  Status BindClause(const std::string& var_name, const ExprPtr& expr) {
    if (expr->kind != ExprKind::kPath) {
      return Unsupported("for/let binding must be a path expression");
    }
    const ExprPtr& source = expr->children[0];
    if (source->kind == ExprKind::kFunctionCall &&
        (source->str == "doc" || source->str == "document")) {
      return BindDocPath(var_name, expr);
    }
    if (source->kind == ExprKind::kVarRef) {
      return BindRelativePath(var_name, source->str, expr);
    }
    return Unsupported("binding source must be doc() or a variable");
  }

  /// doc("x")/root/entity[...]   -> key-table variable
  /// doc("x")/root/entity[...]/attr[...] -> attribute variable
  Status BindDocPath(const std::string& var_name, const ExprPtr& path) {
    const ExprPtr& doc_call = path->children[0];
    if (doc_call->children.size() != 1 ||
        doc_call->children[0]->kind != ExprKind::kStringLit) {
      return Unsupported("doc() argument must be a string literal");
    }
    const std::string doc_name = doc_call->children[0]->str;
    auto binding = ctx_.docs.find(doc_name);
    if (binding == ctx_.docs.end()) {
      return Status::NotFound("no archived relation registered for doc('" +
                              doc_name + "')");
    }
    const DocBinding& doc = binding->second;
    const auto& steps = path->steps;
    size_t step_idx = 0;
    if (step_idx < steps.size() && steps[step_idx].name == doc.root_tag) {
      ++step_idx;
    }
    if (step_idx >= steps.size() || steps[step_idx].name != doc.entity_tag) {
      return Unsupported("doc path must step through " + doc.root_tag + "/" +
                         doc.entity_tag);
    }
    const PathStep& entity_step = steps[step_idx];
    ++step_idx;

    size_t group = next_group_++;
    if (step_idx == steps.size()) {
      // Binds the entity: a key-table variable.
      size_t idx = NewVar("$" + var_name, doc.relation, "", group,
                          /*predicate_only=*/false);
      bound_[var_name] = {true, idx, doc.relation, group};
      ARCHIS_RETURN_NOT_OK(
          ApplyPredicates(idx, doc.relation, group, entity_step.predicates));
      return Status::OK();
    }
    // Entity-step predicates first (they may spawn attribute variables).
    // The entity itself needs a key variable only if a temporal predicate
    // targets it; value predicates translate to attribute variables.
    std::optional<size_t> key_var;
    ARCHIS_RETURN_NOT_OK(ApplyEntityPredicates(
        doc.relation, group, entity_step.predicates, &key_var));
    // Then the attribute step.
    const PathStep& attr_step = steps[step_idx];
    ++step_idx;
    if (step_idx != steps.size()) {
      return Unsupported("paths deeper than entity/attribute");
    }
    size_t idx = NewVar("$" + var_name, doc.relation, attr_step.name, group,
                        /*predicate_only=*/false);
    bound_[var_name] = {false, idx, doc.relation, group};
    ARCHIS_RETURN_NOT_OK(
        ApplyPredicates(idx, doc.relation, group, attr_step.predicates));
    return Status::OK();
  }

  /// $e/attr[...] -> attribute variable in $e's join group.
  Status BindRelativePath(const std::string& var_name,
                          const std::string& base_var, const ExprPtr& path) {
    ARCHIS_ASSIGN_OR_RETURN(const BoundVar* bound, Bound(base_var));
    const BoundVar base = *bound;  // `var_name` may rebind `base_var`
    if (path->steps.size() != 1 || !base.is_entity) {
      return Unsupported("relative binding must be one step from an entity");
    }
    const PathStep& step = path->steps[0];
    size_t idx = NewVar("$" + var_name, base.relation, step.name, base.group,
                        /*predicate_only=*/false);
    bound_[var_name] = {false, idx, base.relation, base.group};
    return ApplyPredicates(idx, base.relation, base.group, step.predicates);
  }

  // -- Predicate and where-condition translation (lines 4-12) ----------------

  /// Predicates on an entity step: value comparisons spawn attribute
  /// variables; temporal predicates require (and create) the key variable.
  Status ApplyEntityPredicates(const std::string& relation, size_t group,
                               const std::vector<ExprPtr>& predicates,
                               std::optional<size_t>* key_var) {
    for (const ExprPtr& pred : predicates) {
      ARCHIS_RETURN_NOT_OK(
          ApplyEntityPredicate(relation, group, pred, key_var));
    }
    return Status::OK();
  }

  Status ApplyEntityPredicate(const std::string& relation, size_t group,
                              const ExprPtr& pred,
                              std::optional<size_t>* key_var) {
    if (pred->kind == ExprKind::kAnd) {
      for (const ExprPtr& child : pred->children) {
        ARCHIS_RETURN_NOT_OK(
            ApplyEntityPredicate(relation, group, child, key_var));
      }
      return Status::OK();
    }
    if (pred->kind == ExprKind::kComparison) {
      // name="Bob" / salary > 60000 / tstart(.) <= date ...
      return TranslateComparisonWithContext(pred, relation, group, key_var);
    }
    if (pred->kind == ExprKind::kFunctionCall) {
      // toverlaps(., telement(c1, c2)) etc. targeting the entity interval.
      size_t kv = EnsureKeyVar(relation, group, key_var);
      return TranslateIntervalFn(pred, kv);
    }
    return Unsupported("entity predicate form");
  }

  size_t EnsureKeyVar(const std::string& relation, size_t group,
                      std::optional<size_t>* key_var) {
    if (key_var != nullptr && key_var->has_value()) return **key_var;
    size_t idx = NewVar(relation + ".key", relation, "", group,
                        /*predicate_only=*/true);
    if (key_var != nullptr) *key_var = idx;
    return idx;
  }

  /// Predicates on a concrete variable (attribute step or key binding).
  Status ApplyPredicates(size_t var_idx, const std::string& relation,
                         size_t group, const std::vector<ExprPtr>& preds) {
    for (const ExprPtr& pred : preds) {
      ARCHIS_RETURN_NOT_OK(ApplyPredicate(var_idx, relation, group, pred));
    }
    return Status::OK();
  }

  Status ApplyPredicate(size_t var_idx, const std::string& relation,
                        size_t group, const ExprPtr& pred) {
    if (pred->kind == ExprKind::kAnd) {
      for (const ExprPtr& child : pred->children) {
        ARCHIS_RETURN_NOT_OK(ApplyPredicate(var_idx, relation, group, child));
      }
      return Status::OK();
    }
    if (pred->kind == ExprKind::kComparison) {
      return TranslateComparison(pred, var_idx, relation, group);
    }
    if (pred->kind == ExprKind::kFunctionCall) {
      return TranslateIntervalFn(pred, var_idx);
    }
    return Unsupported("predicate form");
  }

  /// toverlaps/tcontains/tequals/tmeets/tprecedes with '.' or variables.
  Status TranslateIntervalFn(const ExprPtr& call, size_t context_var) {
    static const std::map<std::string, CrossCond::Kind> kKinds = {
        {"toverlaps", CrossCond::Kind::kOverlaps},
        {"tcontains", CrossCond::Kind::kContains},
        {"tequals", CrossCond::Kind::kEquals},
        {"tmeets", CrossCond::Kind::kMeets},
        {"tprecedes", CrossCond::Kind::kPrecedes},
    };
    auto kind = kKinds.find(call->str);
    if (kind == kKinds.end()) return Unsupported("function " + call->str);
    if (call->children.size() != 2) {
      return Status::InvalidArgument(call->str + " takes two arguments");
    }
    // Constant interval operand (telement of date literals) pushes down.
    auto const_interval =
        [this](const ExprPtr& e) -> std::optional<TimeInterval> {
      if (e->kind == ExprKind::kFunctionCall && e->str == "telement" &&
          e->children.size() == 2) {
        auto d1 = ConstDate(e->children[0]);
        auto d2 = ConstDate(e->children[1]);
        if (d1 && d2) {
          // A backwards constant interval is not pushed down; it falls
          // through to the general evaluation path like any non-constant
          // operand (which reports the error to the user).
          Result<TimeInterval> iv = MakeIntervalChecked(*d1, *d2);
          if (iv.ok()) return *iv;
        }
      }
      return std::nullopt;
    };
    auto var_of = [&](const ExprPtr& e) -> std::optional<size_t> {
      if (e->kind == ExprKind::kContextItem) return context_var;
      if (e->kind == ExprKind::kVarRef) {
        auto it = bound_.find(e->str);
        if (it != bound_.end()) return it->second.plan_idx;
      }
      return std::nullopt;
    };

    auto lhs_iv = const_interval(call->children[0]);
    auto rhs_iv = const_interval(call->children[1]);
    auto lhs_var = var_of(call->children[0]);
    auto rhs_var = var_of(call->children[1]);
    if (kind->second == CrossCond::Kind::kOverlaps &&
        ((lhs_var && rhs_iv) || (rhs_var && lhs_iv))) {
      size_t v = lhs_var ? *lhs_var : *rhs_var;
      TimeInterval iv = lhs_var ? *rhs_iv : *lhs_iv;
      PlanVar& pv = plan_.vars[v];
      pv.overlap = pv.overlap ? pv.overlap->Intersect(iv).value_or(iv) : iv;
      return Status::OK();
    }
    if (lhs_var && rhs_var) {
      CrossCond cond;
      cond.kind = kind->second;
      cond.lhs = {*lhs_var, HCol::kTstart};
      cond.rhs = {*rhs_var, HCol::kTstart};
      plan_.cross_conds.push_back(cond);
      return Status::OK();
    }
    return Unsupported(call->str + " operand form");
  }

  /// Resolves a comparison operand inside a predicate whose context item is
  /// `context_var` (nullopt at where-clause level).
  Result<Operand> ResolveOperand(const ExprPtr& e,
                                 std::optional<size_t> context_var,
                                 const std::string& relation, size_t group) {
    switch (e->kind) {
      case ExprKind::kStringLit:
        return Operand{true, {}, minirel::Value(e->str)};
      case ExprKind::kNumberLit:
        return Operand{true, {}, minirel::Value(e->num)};
      case ExprKind::kContextItem:
        if (!context_var) return Unsupported("'.' outside predicate");
        return Operand{false, {*context_var, HCol::kValue}, {}};
      case ExprKind::kVarRef: {
        ARCHIS_ASSIGN_OR_RETURN(const BoundVar* var, Bound(e->str));
        HCol col = var->is_entity ? HCol::kId : HCol::kValue;
        return Operand{false, {var->plan_idx, col}, {}};
      }
      case ExprKind::kPath: {
        // $e/attr or bare `attr` (context-relative inside a predicate).
        const ExprPtr& source = e->children[0];
        if (e->steps.size() != 1) return Unsupported("deep operand path");
        const std::string& attr = e->steps[0].name;
        std::string rel = relation;
        size_t grp = group;
        if (source->kind == ExprKind::kVarRef) {
          ARCHIS_ASSIGN_OR_RETURN(const BoundVar* var, Bound(source->str));
          rel = var->relation;
          grp = var->group;
        } else if (source->kind != ExprKind::kContextItem) {
          return Unsupported("operand path source");
        }
        if (attr == "id") {
          // The key column reads from any variable of the group; use the
          // first one, or materialise the key-table variable if the group
          // has none yet (e.g. an [id=...] predicate on the entity step).
          for (size_t v = 0; v < plan_.vars.size(); ++v) {
            if (plan_.vars[v].join_group == grp) {
              return Operand{false, {v, HCol::kId}, {}};
            }
          }
          size_t idx = NewVar(rel + ".key", rel, "", grp,
                              /*predicate_only=*/true);
          return Operand{false, {idx, HCol::kId}, {}};
        }
        size_t idx = AttrVar(rel, attr, grp, /*predicate_only=*/true);
        return Operand{false, {idx, HCol::kValue}, {}};
      }
      case ExprKind::kFunctionCall: {
        if (e->str == "tstart" || e->str == "tend") {
          if (e->children.size() != 1) {
            return Status::InvalidArgument(e->str + " takes one argument");
          }
          ARCHIS_ASSIGN_OR_RETURN(
              Operand inner,
              ResolveOperand(e->children[0], context_var, relation, group));
          if (inner.is_const) return Unsupported("tstart/tend of constant");
          inner.col.col = e->str == "tstart" ? HCol::kTstart : HCol::kTend;
          return inner;
        }
        if (e->str == "xs:date") {
          auto d = ConstDate(e);
          if (!d) return Unsupported("non-literal xs:date");
          return Operand{true, {}, minirel::Value(*d)};
        }
        if (e->str == "current-date") {
          return Operand{true, {}, minirel::Value(ctx_.current_date)};
        }
        if (e->str == "string" && e->children.size() == 1) {
          return ResolveOperand(e->children[0], context_var, relation, group);
        }
        if ((e->str == "op:add" || e->str == "op:subtract") &&
            e->children.size() == 2 &&
            e->children[1]->kind == ExprKind::kNumberLit) {
          // tstart($v) + n: a date column shifted by n days (native
          // date + number truncates n to whole days).
          ARCHIS_ASSIGN_OR_RETURN(
              Operand inner,
              ResolveOperand(e->children[0], context_var, relation, group));
          if (inner.is_const || (inner.col.col != HCol::kTstart &&
                                 inner.col.col != HCol::kTend)) {
            return Unsupported("arithmetic on a non-date operand");
          }
          const auto days = static_cast<int64_t>(e->children[1]->num);
          inner.offset_days += e->str == "op:add" ? days : -days;
          return inner;
        }
        return Unsupported("function operand " + e->str);
      }
      default:
        return Unsupported("comparison operand");
    }
  }

  std::optional<Date> ConstDate(const ExprPtr& e) {
    if (e->kind == ExprKind::kStringLit) {
      auto d = Date::Parse(e->str);
      if (d.ok()) return *d;
      return std::nullopt;
    }
    if (e->kind == ExprKind::kFunctionCall && e->str == "xs:date" &&
        e->children.size() == 1) {
      return ConstDate(e->children[0]);
    }
    if (e->kind == ExprKind::kFunctionCall && e->str == "current-date") {
      return ctx_.current_date;
    }
    return std::nullopt;
  }

  Status AddVarConstCond(const HColRef& ref, minirel::CompareOp op,
                         const minirel::Value& constant) {
    PlanVar& var = plan_.vars[ref.var];
    switch (ref.col) {
      case HCol::kValue:
        var.value_conds.push_back({op, constant});
        return Status::OK();
      case HCol::kId: {
        std::optional<int64_t> id;
        if (constant.type() == minirel::DataType::kInt64) {
          id = constant.AsInt();
        } else if (constant.type() == minirel::DataType::kDouble) {
          id = static_cast<int64_t>(constant.AsDouble());
        }
        if (op == minirel::CompareOp::kEq && id.has_value()) {
          // Propagate the single-object restriction to the whole group so
          // every store uses its id index (including variables created
          // later — see the fix-up loop in Translate()).
          for (PlanVar& v : plan_.vars) {
            if (v.join_group == var.join_group) v.id_eq = *id;
          }
          pending_id_eq_[var.join_group] = *id;
          return Status::OK();
        }
        return Unsupported("non-equality id condition");
      }
      case HCol::kTstart: {
        minirel::Value c = constant;
        if (constant.type() == minirel::DataType::kString) {
          auto d = Date::Parse(constant.AsString());
          if (d.ok()) c = minirel::Value(*d);
        }
        var.tstart_conds.push_back({op, c});
        DeriveTemporalPushdown(ref.var);
        return Status::OK();
      }
      case HCol::kTend: {
        minirel::Value c = constant;
        if (constant.type() == minirel::DataType::kString) {
          auto d = Date::Parse(constant.AsString());
          if (d.ok()) c = minirel::Value(*d);
        }
        // tend(.) = current-date() means "still current" (Section 4.3).
        if (op == minirel::CompareOp::kEq &&
            c.type() == minirel::DataType::kDate &&
            c.AsDate() == ctx_.current_date) {
          var.current_only = true;
          return Status::OK();
        }
        var.tend_conds.push_back({op, c});
        DeriveTemporalPushdown(ref.var);
        return Status::OK();
      }
    }
    return Status::Internal("bad column ref");
  }

  /// Derives the variable's segment-pruning window from its constant
  /// temporal conditions: a version overlaps [lower, upper] when
  /// tend >= lower or tstart >= lower, and tstart <= upper or
  /// tend <= upper. A one-day window is a snapshot (Section 6.1).
  void DeriveTemporalPushdown(size_t var_idx) {
    PlanVar& var = plan_.vars[var_idx];
    std::optional<Date> lower, upper;
    NarrowDateBounds(var.tstart_conds, &lower, &upper);
    NarrowDateBounds(var.tend_conds, &lower, &upper);
    if (!lower || var.snapshot) return;
    const Date hi = upper.value_or(Date::Forever());
    if (*lower > hi) return;
    TimeInterval window = MakeInterval(*lower, hi);
    if (var.overlap) {
      std::optional<TimeInterval> both = var.overlap->Intersect(window);
      if (!both) return;
      window = *both;
    }
    if (window.tstart == window.tend) {
      var.snapshot = window.tstart;
      var.overlap.reset();
    } else {
      var.overlap = window;
    }
  }

  Status TranslateComparisonWithContext(const ExprPtr& cmp,
                                        const std::string& relation,
                                        size_t group,
                                        std::optional<size_t>* key_var) {
    // Inside an entity predicate, `tstart(.)`/`tend(.)` target the key
    // variable; bare names target attribute variables.
    std::optional<size_t> ctx_var;
    bool temporal = false;
    std::function<void(const ExprPtr&)> scan = [&](const ExprPtr& e) {
      if (e->kind == ExprKind::kFunctionCall &&
          (e->str == "tstart" || e->str == "tend")) {
        for (const ExprPtr& c : e->children) {
          if (c->kind == ExprKind::kContextItem) temporal = true;
        }
      }
      for (const ExprPtr& c : e->children) scan(c);
    };
    scan(cmp);
    if (temporal) ctx_var = EnsureKeyVar(relation, group, key_var);
    return TranslateComparisonImpl(cmp, ctx_var, relation, group);
  }

  Status TranslateComparison(const ExprPtr& cmp, size_t context_var,
                             const std::string& relation, size_t group) {
    return TranslateComparisonImpl(cmp, context_var, relation, group);
  }

  Status TranslateComparisonImpl(const ExprPtr& cmp,
                                 std::optional<size_t> context_var,
                                 const std::string& relation, size_t group) {
    ARCHIS_ASSIGN_OR_RETURN(
        Operand lhs,
        ResolveOperand(cmp->children[0], context_var, relation, group));
    ARCHIS_ASSIGN_OR_RETURN(
        Operand rhs,
        ResolveOperand(cmp->children[1], context_var, relation, group));
    ARCHIS_ASSIGN_OR_RETURN(minirel::CompareOp op,
                            minirel::ParseCompareOp(cmp->str));
    if ((lhs.offset_days != 0 && rhs.is_const) ||
        (rhs.offset_days != 0 && lhs.is_const)) {
      return Unsupported("shifted date compared with a constant");
    }
    if (!lhs.is_const && rhs.is_const) {
      return AddVarConstCond(lhs.col, op, rhs.constant);
    }
    if (lhs.is_const && !rhs.is_const) {
      // Flip the comparison.
      minirel::CompareOp flipped = op;
      switch (op) {
        case minirel::CompareOp::kLt: flipped = minirel::CompareOp::kGt; break;
        case minirel::CompareOp::kLe: flipped = minirel::CompareOp::kGe; break;
        case minirel::CompareOp::kGt: flipped = minirel::CompareOp::kLt; break;
        case minirel::CompareOp::kGe: flipped = minirel::CompareOp::kLe; break;
        default: break;
      }
      return AddVarConstCond(rhs.col, flipped, lhs.constant);
    }
    if (!lhs.is_const && !rhs.is_const) {
      CrossCond cond;
      cond.kind = CrossCond::Kind::kCompare;
      cond.lhs = lhs.col;
      cond.op = op;
      cond.rhs = rhs.col;
      cond.rhs_offset_days = rhs.offset_days - lhs.offset_days;
      plan_.cross_conds.push_back(cond);
      return Status::OK();
    }
    return Unsupported("constant-only comparison");
  }

  /// where-clause conjuncts.
  Status TranslateCondition(const ExprPtr& cond) {
    switch (cond->kind) {
      case ExprKind::kAnd: {
        for (const ExprPtr& child : cond->children) {
          ARCHIS_RETURN_NOT_OK(TranslateCondition(child));
        }
        return Status::OK();
      }
      case ExprKind::kComparison:
        return TranslateComparisonImpl(cond, std::nullopt, "", 0);
      case ExprKind::kNot: {
        const ExprPtr& inner = cond->children[0];
        if (inner->kind == ExprKind::kFunctionCall &&
            inner->str == "empty" && inner->children.size() == 1) {
          const ExprPtr& arg = inner->children[0];
          // not(empty(overlapinterval($a,$b))) == toverlaps($a,$b).
          if (arg->kind == ExprKind::kFunctionCall &&
              arg->str == "overlapinterval") {
            auto call = std::make_shared<Expr>(ExprKind::kFunctionCall);
            call->str = "toverlaps";
            call->children = arg->children;
            return TranslateIntervalFn(call, /*context_var=*/0);
          }
          return TranslateExists(arg);
        }
        return Unsupported("negation form");
      }
      case ExprKind::kFunctionCall:
        if (cond->str == "exists" && cond->children.size() == 1) {
          return TranslateExists(cond->children[0]);
        }
        return TranslateIntervalFn(cond, /*context_var=*/0);
      default:
        return Unsupported("where-clause form");
    }
  }

  /// exists(X) / not(empty(X)) in a where clause.
  Status TranslateExists(const ExprPtr& arg) {
    // A bound variable: the id join is already existential — nothing to add.
    if (arg->kind == ExprKind::kVarRef && bound_.count(arg->str) != 0) {
      return Status::OK();
    }
    // $e/attr[preds]: a semi-join against a fresh predicate-only attribute
    // variable in $e's join group.
    if (arg->kind == ExprKind::kPath && arg->steps.size() == 1 &&
        arg->children[0]->kind == ExprKind::kVarRef) {
      ARCHIS_ASSIGN_OR_RETURN(const BoundVar* base,
                              Bound(arg->children[0]->str));
      const PathStep& step = arg->steps[0];
      if (base->is_entity && step.name != "id" && step.name != "*" &&
          step.axis == PathStep::Axis::kChild) {
        size_t idx = NewVar("exists." + step.name, base->relation, step.name,
                            base->group, /*predicate_only=*/true);
        return ApplyPredicates(idx, base->relation, base->group,
                               step.predicates);
      }
    }
    return Unsupported("exists() operand form");
  }

  // -- Output generation (lines 13-19) ---------------------------------------

  Result<OutputSpec> BuildOutput(const ExprPtr& ret) {
    switch (ret->kind) {
      case ExprKind::kVarRef: {
        ARCHIS_ASSIGN_OR_RETURN(const BoundVar* var, Bound(ret->str));
        return VarElement(*var);
      }
      case ExprKind::kPath: {
        const ExprPtr& source = ret->children[0];
        if (source->kind != ExprKind::kVarRef || ret->steps.size() != 1) {
          return Unsupported("return path form");
        }
        ARCHIS_ASSIGN_OR_RETURN(const BoundVar* var, Bound(source->str));
        const std::string& attr = ret->steps[0].name;
        if (attr == "id") {
          OutputSpec spec;
          spec.kind = OutputSpec::Kind::kElement;
          spec.name = "id";
          spec.attr_var = var->plan_idx;
          spec.column = HColRef{var->plan_idx, HCol::kId};
          return spec;
        }
        size_t idx = AttrVar(var->relation, attr, var->group,
                             /*predicate_only=*/false);
        OutputSpec spec;
        spec.kind = OutputSpec::Kind::kElement;
        spec.name = attr;
        spec.attr_var = idx;
        spec.column = HColRef{idx, HCol::kValue};
        return spec;
      }
      case ExprKind::kElementCtor: {
        OutputSpec spec;
        spec.kind = OutputSpec::Kind::kElement;
        spec.name = ret->str;
        for (const ExprPtr& child : ret->children) {
          if (child->kind == ExprKind::kSequence) {
            for (const ExprPtr& item : child->children) {
              ARCHIS_ASSIGN_OR_RETURN(OutputSpec c, BuildOutput(item));
              spec.children.push_back(std::move(c));
            }
          } else {
            ARCHIS_ASSIGN_OR_RETURN(OutputSpec c, BuildOutput(child));
            spec.children.push_back(std::move(c));
          }
        }
        return spec;
      }
      case ExprKind::kTextLit: {
        OutputSpec spec;
        spec.kind = OutputSpec::Kind::kText;
        spec.name = ret->str;
        return spec;
      }
      case ExprKind::kSequence: {
        // A bare sequence return wraps in a row element.
        OutputSpec spec;
        spec.kind = OutputSpec::Kind::kElement;
        spec.name = "row";
        for (const ExprPtr& item : ret->children) {
          ARCHIS_ASSIGN_OR_RETURN(OutputSpec c, BuildOutput(item));
          spec.children.push_back(std::move(c));
        }
        return spec;
      }
      case ExprKind::kFunctionCall: {
        if (ret->str == "overlapinterval" && ret->children.size() == 2) {
          auto var_of = [this](const ExprPtr& e) -> std::optional<size_t> {
            if (e->kind != ExprKind::kVarRef) return std::nullopt;
            auto it = bound_.find(e->str);
            if (it == bound_.end()) return std::nullopt;
            return it->second.plan_idx;
          };
          auto l = var_of(ret->children[0]);
          auto r = var_of(ret->children[1]);
          if (!l || !r) return Unsupported("overlapinterval operands");
          OutputSpec spec;
          spec.kind = OutputSpec::Kind::kInterval;
          spec.ivl_lhs = *l;
          spec.ivl_rhs = *r;
          return spec;
        }
        if (ret->str == "tavg" && ret->children.size() == 1 &&
            ret->children[0]->kind == ExprKind::kVarRef) {
          ARCHIS_ASSIGN_OR_RETURN(const BoundVar* var,
                                  Bound(ret->children[0]->str));
          if (var->plan_idx != 0) {
            return Unsupported("tavg over a non-leading variable");
          }
          plan_.aggregate = PlanAggregate::kTAvg;
          OutputSpec spec;
          spec.kind = OutputSpec::Kind::kElement;
          spec.name = "tavg";
          return spec;
        }
        return Unsupported("return function " + ret->str);
      }
      default:
        return Unsupported("return clause form");
    }
  }

  Result<OutputSpec> VarElement(const BoundVar& var) {
    OutputSpec spec;
    spec.kind = OutputSpec::Kind::kElement;
    const PlanVar& pv = plan_.vars[var.plan_idx];
    if (var.is_entity) {
      spec.name = EntityTagFor(pv.relation);
      spec.attr_var = var.plan_idx;
      spec.column = HColRef{var.plan_idx, HCol::kId};
    } else {
      spec.name = pv.attribute;
      spec.attr_var = var.plan_idx;
      spec.column = HColRef{var.plan_idx, HCol::kValue};
    }
    return spec;
  }

  std::string EntityTagFor(const std::string& relation) const {
    for (const auto& [doc, binding] : ctx_.docs) {
      if (binding.relation == relation) return binding.entity_tag;
    }
    return relation;
  }

  const TranslatorContext& ctx_;
  SqlXmlPlan plan_;
  std::map<std::string, BoundVar> bound_;
  std::map<std::string, size_t> attr_vars_;
  std::map<size_t, int64_t> pending_id_eq_;
  size_t next_group_ = 0;
};

}  // namespace

Result<SqlXmlPlan> TranslateXQuery(const xquery::ExprPtr& query,
                                   const TranslatorContext& ctx) {
  Translator translator(ctx);
  ARCHIS_ASSIGN_OR_RETURN(SqlXmlPlan plan, translator.Translate(query));
  // Late-created attribute variables must inherit their group's id
  // restriction.
  return plan;
}

Result<SqlXmlPlan> TranslateXQuery(const std::string& query,
                                   const TranslatorContext& ctx) {
  ARCHIS_ASSIGN_OR_RETURN(xquery::ExprPtr ast, xquery::ParseXQuery(query));
  return TranslateXQuery(ast, ctx);
}

}  // namespace archis::core
