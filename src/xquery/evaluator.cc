#include "xquery/evaluator.h"

#include <cstdlib>

#include "common/str_util.h"
#include "xquery/functions.h"
#include "xquery/parser.h"

namespace archis::xquery {

// ---------------------------------------------------------------------------
// Item helpers (declared in item.h)
// ---------------------------------------------------------------------------

std::string Item::StringValue() const {
  if (is_node()) return node()->StringValue();
  if (is_string()) return str();
  if (is_number()) return FormatNumber(number());
  if (is_boolean()) return boolean() ? "true" : "false";
  return date().ToString();
}

bool EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  const Item& first = seq.front();
  if (first.is_node()) return true;
  if (seq.size() > 1) return true;  // non-node multi-item: treat as truthy
  if (first.is_boolean()) return first.boolean();
  if (first.is_number()) return first.number() != 0;
  if (first.is_date()) return true;
  return !first.str().empty();
}

xml::XmlNodePtr MakeIntervalElement(const TimeInterval& iv,
                                    const std::string& tag) {
  auto node = xml::XmlNode::Element(tag);
  node->SetInterval(iv);
  return node;
}

Result<TimeInterval> ItemInterval(const Item& item) {
  if (!item.is_node()) {
    return Status::TypeError("interval requested from a non-node item");
  }
  return item.node()->Interval();
}

Result<TimeInterval> SequenceInterval(const Sequence& seq) {
  for (const Item& item : seq) {
    if (item.is_node()) {
      auto iv = item.node()->Interval();
      if (iv.ok()) return iv;
    }
  }
  return Status::NotFound("no item in sequence carries tstart/tend");
}

// ---------------------------------------------------------------------------
// Comparison semantics
// ---------------------------------------------------------------------------

namespace {

bool LooksNumeric(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

Result<bool> ApplyOp(const std::string& op, int cmp) {
  if (op == "=") return cmp == 0;
  if (op == "!=") return cmp != 0;
  if (op == "<") return cmp < 0;
  if (op == "<=") return cmp <= 0;
  if (op == ">") return cmp > 0;
  if (op == ">=") return cmp >= 0;
  return Status::InvalidArgument("bad comparison op '" + op + "'");
}

}  // namespace

Result<bool> CompareItems(const Item& lhs, const std::string& op,
                          const Item& rhs) {
  // Date comparison when either side is (or parses as) a date.
  auto as_date = [](const Item& it) -> std::optional<Date> {
    if (it.is_date()) return it.date();
    if (it.is_number() || it.is_boolean()) return std::nullopt;
    auto d = Date::Parse(it.StringValue());
    if (d.ok()) return *d;
    return std::nullopt;
  };
  if (lhs.is_date() || rhs.is_date()) {
    auto ld = as_date(lhs);
    auto rd = as_date(rhs);
    if (ld && rd) {
      int cmp = *ld < *rd ? -1 : (*rd < *ld ? 1 : 0);
      return ApplyOp(op, cmp);
    }
    return Status::TypeError("cannot compare date with non-date");
  }
  // Numeric comparison when either side is numeric.
  double ln = 0, rn = 0;
  bool l_num = lhs.is_number() ? (ln = lhs.number(), true)
                               : LooksNumeric(lhs.StringValue(), &ln);
  bool r_num = rhs.is_number() ? (rn = rhs.number(), true)
                               : LooksNumeric(rhs.StringValue(), &rn);
  if ((lhs.is_number() || rhs.is_number()) && l_num && r_num) {
    int cmp = ln < rn ? -1 : (rn < ln ? 1 : 0);
    return ApplyOp(op, cmp);
  }
  // Boolean comparison.
  if (lhs.is_boolean() || rhs.is_boolean()) {
    bool lb = EffectiveBooleanValue({lhs});
    bool rb = EffectiveBooleanValue({rhs});
    return ApplyOp(op, lb == rb ? 0 : (lb ? 1 : -1));
  }
  // Fall back to string comparison.
  int cmp = lhs.StringValue().compare(rhs.StringValue());
  return ApplyOp(op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0));
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

Evaluator::Evaluator(EvalContext ctx) : ctx_(std::move(ctx)) {
  scopes_.emplace_back();
}

void Evaluator::BindVariable(const std::string& name, Sequence value) {
  scopes_.front().vars[name] = std::move(value);
}

Result<Sequence> Evaluator::Evaluate(const ExprPtr& expr) {
  return Eval(expr);
}

Result<Sequence> Evaluator::EvaluateQuery(const std::string& query) {
  ARCHIS_ASSIGN_OR_RETURN(ExprPtr ast, ParseXQuery(query));
  return Eval(ast);
}

Result<Sequence> Evaluator::LookupVar(const std::string& name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->vars.find(name);
    if (found != it->vars.end()) return found->second;
  }
  return Status::NotFound("unbound variable $" + name);
}

Result<Sequence> Evaluator::Eval(const ExprPtr& expr) {
  if (expr == nullptr) return Status::Internal("null expression");
  switch (expr->kind) {
    case ExprKind::kStringLit:
      return Sequence{Item(expr->str)};
    case ExprKind::kTextLit:
      return Sequence{Item(expr->str)};
    case ExprKind::kNumberLit:
      return Sequence{Item(expr->num)};
    case ExprKind::kVarRef:
      return LookupVar(expr->str);
    case ExprKind::kContextItem: {
      if (context_items_.empty()) {
        return Status::InvalidArgument("'.' used outside a predicate");
      }
      return Sequence{context_items_.back()};
    }
    case ExprKind::kEmptySeq:
      return Sequence{};
    case ExprKind::kSequence: {
      Sequence out;
      for (const ExprPtr& child : expr->children) {
        ARCHIS_ASSIGN_OR_RETURN(Sequence part, Eval(child));
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    }
    case ExprKind::kPath:
      return EvalPath(expr);
    case ExprKind::kFlwor:
      return EvalFlwor(expr);
    case ExprKind::kComparison:
      return EvalComparison(expr);
    case ExprKind::kAnd: {
      for (const ExprPtr& child : expr->children) {
        ARCHIS_ASSIGN_OR_RETURN(Sequence v, Eval(child));
        if (!EffectiveBooleanValue(v)) return Sequence{Item(false)};
      }
      return Sequence{Item(true)};
    }
    case ExprKind::kOr: {
      for (const ExprPtr& child : expr->children) {
        ARCHIS_ASSIGN_OR_RETURN(Sequence v, Eval(child));
        if (EffectiveBooleanValue(v)) return Sequence{Item(true)};
      }
      return Sequence{Item(false)};
    }
    case ExprKind::kNot: {
      ARCHIS_ASSIGN_OR_RETURN(Sequence v, Eval(expr->children[0]));
      return Sequence{Item(!EffectiveBooleanValue(v))};
    }
    case ExprKind::kFunctionCall: {
      if (expr->str == "doc" || expr->str == "document") {
        if (expr->children.size() != 1) {
          return Status::InvalidArgument("doc() takes one argument");
        }
        ARCHIS_ASSIGN_OR_RETURN(Sequence name_seq, Eval(expr->children[0]));
        if (name_seq.empty()) {
          return Status::InvalidArgument("doc() of empty sequence");
        }
        if (!ctx_.resolve_doc) {
          return Status::InvalidArgument("no document resolver configured");
        }
        ARCHIS_ASSIGN_OR_RETURN(xml::XmlNodePtr root,
                                ctx_.resolve_doc(name_seq[0].StringValue()));
        // Wrap in a document node so the leading /root-element step of a
        // path matches the root, as in XPath.
        auto doc_node = xml::XmlNode::Element("#document");
        doc_node->AppendChild(std::move(root));
        return Sequence{Item(std::move(doc_node))};
      }
      std::vector<Sequence> args;
      args.reserve(expr->children.size());
      for (const ExprPtr& child : expr->children) {
        ARCHIS_ASSIGN_OR_RETURN(Sequence arg, Eval(child));
        args.push_back(std::move(arg));
      }
      return CallFunction(expr->str, args, ctx_);
    }
    case ExprKind::kElementCtor:
      return EvalElementCtor(expr);
    case ExprKind::kQuantified:
      return EvalQuantified(expr);
    case ExprKind::kIf: {
      ARCHIS_ASSIGN_OR_RETURN(Sequence cond, Eval(expr->children[0]));
      return Eval(expr->children[EffectiveBooleanValue(cond) ? 1 : 2]);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Sequence> Evaluator::EvalFlwor(const ExprPtr& expr) {
  scopes_.emplace_back();
  auto result = EvalFlworClauses(expr, 0);
  scopes_.pop_back();
  return result;
}

Result<Sequence> Evaluator::EvalFlworClauses(const ExprPtr& expr,
                                             size_t clause_idx) {
  if (clause_idx == expr->clauses.size()) {
    if (expr->where != nullptr) {
      ARCHIS_ASSIGN_OR_RETURN(Sequence cond, Eval(expr->where));
      if (!EffectiveBooleanValue(cond)) return Sequence{};
    }
    return Eval(expr->ret);
  }
  const ForLetClause& clause = expr->clauses[clause_idx];
  ARCHIS_ASSIGN_OR_RETURN(Sequence binding, Eval(clause.expr));
  if (clause.is_let) {
    scopes_.back().vars[clause.var] = std::move(binding);
    return EvalFlworClauses(expr, clause_idx + 1);
  }
  Sequence out;
  for (const Item& item : binding) {
    scopes_.back().vars[clause.var] = Sequence{item};
    ARCHIS_ASSIGN_OR_RETURN(Sequence part,
                            EvalFlworClauses(expr, clause_idx + 1));
    out.insert(out.end(), part.begin(), part.end());
  }
  scopes_.back().vars.erase(clause.var);
  return out;
}

Result<Sequence> Evaluator::EvalPath(const ExprPtr& expr) {
  ARCHIS_ASSIGN_OR_RETURN(Sequence current, Eval(expr->children[0]));
  for (const PathStep& step : expr->steps) {
    ARCHIS_ASSIGN_OR_RETURN(current, EvalStep(current, step));
  }
  return current;
}

Result<Sequence> Evaluator::EvalStep(const Sequence& input,
                                     const PathStep& step) {
  Sequence selected;
  if (step.name == ".") {
    selected = input;  // self step: predicates filter the input directly
  } else {
    for (const Item& item : input) {
      if (!item.is_node()) continue;
      const xml::XmlNodePtr& node = item.node();
      switch (step.axis) {
        case PathStep::Axis::kChild: {
          for (const auto& child : node->children()) {
            if (!child->is_element()) continue;
            if (step.name == "*" || child->name() == step.name) {
              selected.push_back(Item(child));
            }
          }
          break;
        }
        case PathStep::Axis::kAttribute: {
          if (auto v = node->Attr(step.name)) selected.push_back(Item(*v));
          break;
        }
        case PathStep::Axis::kDescendantOrSelf: {
          // Collect self + all element descendants, then name-filter.
          std::vector<xml::XmlNodePtr> stack{node};
          while (!stack.empty()) {
            xml::XmlNodePtr n = stack.back();
            stack.pop_back();
            if (n->is_element() &&
                (step.name == "*" || n->name() == step.name)) {
              selected.push_back(Item(n));
            }
            auto kids = n->ChildElements();
            for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
              stack.push_back(*it);
            }
          }
          break;
        }
      }
    }
  }
  // Apply predicates in order.
  for (const ExprPtr& pred : step.predicates) {
    Sequence kept;
    for (size_t pos = 0; pos < selected.size(); ++pos) {
      context_items_.push_back(selected[pos]);
      auto value = Eval(pred);
      context_items_.pop_back();
      if (!value.ok()) return value.status();
      // Numeric predicate: positional (1-based).
      if (value->size() == 1 && (*value)[0].is_number()) {
        if (static_cast<size_t>((*value)[0].number()) == pos + 1) {
          kept.push_back(selected[pos]);
        }
      } else if (EffectiveBooleanValue(*value)) {
        kept.push_back(selected[pos]);
      }
    }
    selected = std::move(kept);
  }
  return selected;
}

Result<Sequence> Evaluator::EvalComparison(const ExprPtr& expr) {
  ARCHIS_ASSIGN_OR_RETURN(Sequence lhs, Eval(expr->children[0]));
  ARCHIS_ASSIGN_OR_RETURN(Sequence rhs, Eval(expr->children[1]));
  // General comparison: existential over both sequences.
  for (const Item& l : lhs) {
    for (const Item& r : rhs) {
      ARCHIS_ASSIGN_OR_RETURN(bool match, CompareItems(l, expr->str, r));
      if (match) return Sequence{Item(true)};
    }
  }
  return Sequence{Item(false)};
}

Result<Sequence> Evaluator::EvalElementCtor(const ExprPtr& expr) {
  auto elem = xml::XmlNode::Element(expr->str);
  for (const StaticAttr& attr : expr->attrs) {
    elem->SetAttr(attr.name, attr.value);
  }
  bool last_was_atomic = false;
  for (const ExprPtr& child : expr->children) {
    ARCHIS_ASSIGN_OR_RETURN(Sequence content, Eval(child));
    for (const Item& item : content) {
      if (item.is_node()) {
        elem->AppendChild(item.node()->Clone());
        last_was_atomic = false;
      } else {
        // Adjacent atomic items join with a single space (XQuery rule).
        std::string text = item.StringValue();
        if (last_was_atomic && !elem->children().empty() &&
            elem->children().back()->is_text()) {
          elem->AppendText(" " + text);
        } else {
          elem->AppendText(text);
        }
        last_was_atomic = true;
      }
    }
  }
  return Sequence{Item(std::move(elem))};
}

Result<Sequence> Evaluator::EvalQuantified(const ExprPtr& expr) {
  ARCHIS_ASSIGN_OR_RETURN(Sequence domain, Eval(expr->children[0]));
  scopes_.emplace_back();
  bool every = expr->every_quant;
  bool result = every;  // every over empty domain is true; some is false
  for (const Item& item : domain) {
    scopes_.back().vars[expr->str] = Sequence{item};
    auto sat = Eval(expr->children[1]);
    if (!sat.ok()) {
      scopes_.pop_back();
      return sat.status();
    }
    bool holds = EffectiveBooleanValue(*sat);
    if (every && !holds) {
      result = false;
      break;
    }
    if (!every && holds) {
      result = true;
      break;
    }
  }
  scopes_.pop_back();
  return Sequence{Item(result)};
}

}  // namespace archis::xquery
