#include "archis/sqlxml.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "archis/planner.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "temporal/aggregate.h"
#include "temporal/now.h"

namespace archis::core {

using minirel::Tuple;
using minirel::Value;

namespace {

/// A normalised H-table row: key-table rows have no value.
struct HRow {
  int64_t id;
  std::optional<Value> value;
  TimeInterval interval;
};

using ExecDeadline = std::optional<std::chrono::steady_clock::time_point>;

bool DeadlinePassed(const ExecDeadline& deadline) {
  return deadline.has_value() && std::chrono::steady_clock::now() >= *deadline;
}

Status DeadlineError() {
  return Status::DeadlineExceeded("query deadline exceeded during execution");
}

Value ColValue(const HRow& row, HCol col) {
  switch (col) {
    case HCol::kId: return Value(row.id);
    case HCol::kValue: return row.value.value_or(Value(row.id));
    case HCol::kTstart: return Value(row.interval.tstart);
    case HCol::kTend: return Value(row.interval.tend);
  }
  return Value(row.id);
}

/// A column as a condition reads it: tend() of a live version is the
/// current date (Section 4.3), as in native evaluation.
Value CondValue(const HRow& row, HCol col, Date current_date) {
  if (col == HCol::kTend) {
    return Value(temporal::EffectiveEnd(row.interval, current_date));
  }
  return ColValue(row, col);
}

/// `text` as a number if strtod consumes all of it, as native number()
/// and the aggregates read published values.
std::optional<double> WholeNumber(const std::string& text) {
  char* end = nullptr;
  double n = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return n;
}

/// The number native evaluation reads from a value's published text.
std::optional<double> TextNumber(const Value& v) {
  if (v.type() == minirel::DataType::kInt64) {
    return static_cast<double>(v.AsInt());
  }
  return WholeNumber(v.ToString());
}

/// A pushed-down value condition with native general-comparison
/// semantics: a number literal compares numerically with a value whose
/// text is a number, and everything else compares as strings.
bool ValueCondHolds(const Value& v, const ValueCond& cond) {
  const Value& c = cond.constant;
  if (c.type() == minirel::DataType::kDouble ||
      c.type() == minirel::DataType::kInt64) {
    const double rhs = *c.AsNumeric();
    const std::string text = v.ToString();
    std::optional<double> lhs =
        text.empty() ? std::nullopt : WholeNumber(text);
    if (lhs.has_value()) {
      return minirel::Compare(Value(*lhs), cond.op, Value(rhs));
    }
    return minirel::Compare(Value(text), cond.op, Value(FormatNumber(rhs)));
  }
  if (c.type() == minirel::DataType::kString &&
      v.type() != minirel::DataType::kString) {
    return minirel::Compare(Value(v.ToString()), cond.op, c);
  }
  return minirel::Compare(v, cond.op, c);
}

/// Fetches the rows of one plan variable, sorted by id, with every
/// pushed-down condition applied (segment pruning happens inside the store).
/// `vp` is the planner's access-path decision for this variable: kIdIndex
/// probes the id index and post-filters time; kSegmentMerge runs the
/// temporally pruned merge-scan and post-filters any id restriction.
Result<std::vector<HRow>> FetchVar(const Archiver& archiver,
                                   const PlanVar& var, const VarPlan& vp,
                                   Date current_date, bool cost_based,
                                   PlanStats* stats,
                                   trace::Trace* trace,
                                   const ExecDeadline& deadline) {
  trace::ScopedSpan span(
      trace, "segment-scan");
  // Scan-boundary deadline check: a multi-variable plan whose earlier
  // scans consumed the budget stops before touching the next store.
  if (DeadlinePassed(deadline)) return DeadlineError();
  const bool use_id_index =
      vp.path == AccessPath::kIdIndex && var.id_eq.has_value();
  if (trace != nullptr) {
    // Note values concatenate/format strings; only pay when a profile is
    // actually being collected.
    span.Note("table", var.attribute.empty() ? var.relation + "_id"
                                             : var.relation + "_" +
                                                   var.attribute);
    span.Note("path", use_id_index ? "id-index" : "segment-merge");
    if (cost_based) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", vp.est_rows);
      span.Note("est_rows", std::string(buf));
    }
  }
  ARCHIS_ASSIGN_OR_RETURN(HTableSet* set, archiver.htables(var.relation));
  SegmentedStore* store = nullptr;
  if (var.attribute.empty()) {
    store = set->key_store();
  } else {
    ARCHIS_ASSIGN_OR_RETURN(store, set->attribute_store(var.attribute));
  }
  const size_t ncols = store->row_schema().num_columns();
  const bool has_value = ncols > 3;

  std::vector<HRow> rows;
  StoreScanStats sstats;
  // In-scan cancellation: re-check the deadline every kDeadlineStride
  // rows; returning false stops the store scan early (partial stats are
  // still accumulated below), and the flag turns the stop into
  // kDeadlineExceeded rather than a truncated OK result.
  constexpr uint32_t kDeadlineStride = 256;
  uint32_t rows_since_check = 0;
  bool deadline_hit = false;
  auto admit = [&](const Tuple& t) {
    if (deadline.has_value() && ++rows_since_check >= kDeadlineStride) {
      rows_since_check = 0;
      if (DeadlinePassed(deadline)) {
        deadline_hit = true;
        return false;
      }
    }
    HRow row;
    row.id = t.at(0).AsInt();
    // Id restriction as a row post-filter on the merge path (a no-op on
    // the id-index path, where the scan already restricted).
    if (var.id_eq.has_value() && row.id != *var.id_eq) return true;
    if (has_value) row.value = t.at(1);
    row.interval = MakeInterval(t.at(ncols - 2).AsDate(),
                                t.at(ncols - 1).AsDate());
    if (var.current_only && !row.interval.is_current()) return true;
    for (const ValueCond& cond : var.value_conds) {
      if (!row.value.has_value()) return true;
      if (!ValueCondHolds(*row.value, cond)) return true;
    }
    for (const ValueCond& cond : var.tstart_conds) {
      if (!minirel::Compare(Value(row.interval.tstart), cond.op,
                            cond.constant)) {
        return true;
      }
    }
    for (const ValueCond& cond : var.tend_conds) {
      if (!minirel::Compare(CondValue(row, HCol::kTend, current_date),
                            cond.op, cond.constant)) {
        return true;
      }
    }
    rows.push_back(std::move(row));
    return true;
  };

  Status st;
  if (use_id_index) {
    st = store->ScanId(*var.id_eq, admit, &sstats);
    // Temporal restrictions still apply on top of the id restriction.
    if (st.ok() && (var.snapshot || var.overlap)) {
      TimeInterval window = var.snapshot
                                ? MakeInterval(*var.snapshot, *var.snapshot)
                                : *var.overlap;
      std::erase_if(rows, [&](const HRow& r) {
        return !r.interval.Overlaps(window);
      });
    }
  } else if (var.snapshot.has_value()) {
    st = store->ScanSnapshot(*var.snapshot, admit, &sstats);
  } else if (var.overlap.has_value()) {
    st = store->ScanInterval(*var.overlap, admit, &sstats);
  } else {
    st = store->ScanHistory(admit, &sstats);
  }
  // Accumulate before the status check: a failed scan must still be
  // attributed (its segments were visited, its blocks decompressed).
  if (stats != nullptr) {
    stats->rows_scanned += sstats.tuples_scanned;
    stats->segments_scanned += sstats.segments_scanned;
    stats->blocks_decompressed += sstats.blocks_decompressed;
    stats->blocks_pruned_by_time += sstats.blocks_pruned_by_time;
    stats->block_cache_hits += sstats.block_cache_hits;
    stats->block_cache_misses += sstats.block_cache_misses;
  }
  span.Note("rows", static_cast<uint64_t>(rows.size()));
  span.Note("tuples_scanned", sstats.tuples_scanned);
  span.Note("segments", sstats.segments_scanned);
  if (sstats.blocks_decompressed + sstats.block_cache_hits > 0) {
    span.Note("blocks_decompressed", sstats.blocks_decompressed);
    span.Note("cache_hits", sstats.block_cache_hits);
  }
  ARCHIS_RETURN_NOT_OK(st);
  if (deadline_hit) return DeadlineError();
  // Store scans emit in (id, tstart) order already; keep it stable.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const HRow& a, const HRow& b) { return a.id < b.id; });
  return rows;
}

/// One joined result row: the participating row of each plan variable.
using JoinedRow = std::vector<const HRow*>;

bool CrossCondsHold(const std::vector<CrossCond>& conds,
                    const JoinedRow& row, Date current_date) {
  for (const CrossCond& cond : conds) {
    const HRow& l = *row[cond.lhs.var];
    const HRow& r = *row[cond.rhs.var];
    switch (cond.kind) {
      case CrossCond::Kind::kCompare: {
        Value rhs = CondValue(r, cond.rhs.col, current_date);
        if (cond.rhs_offset_days != 0 &&
            rhs.type() == minirel::DataType::kDate) {
          rhs = Value(rhs.AsDate().AddDays(cond.rhs_offset_days));
        }
        if (!minirel::Compare(CondValue(l, cond.lhs.col, current_date),
                              cond.op, rhs)) {
          return false;
        }
        break;
      }
      case CrossCond::Kind::kOverlaps:
        if (!l.interval.Overlaps(r.interval)) return false;
        break;
      case CrossCond::Kind::kContains:
        if (!l.interval.Contains(r.interval)) return false;
        break;
      case CrossCond::Kind::kEquals:
        if (!l.interval.Equals(r.interval)) return false;
        break;
      case CrossCond::Kind::kMeets:
        if (!l.interval.Meets(r.interval)) return false;
        break;
      case CrossCond::Kind::kPrecedes:
        if (!l.interval.Precedes(r.interval)) return false;
        break;
    }
  }
  return true;
}

/// Id-sorted k-way merge join across one join group's variables (linear in
/// the inputs, as Section 5.3 notes for id-sorted H-tables). Emits one
/// partial row (pointer per group member) per combination; `emit`
/// returning false stops the join.
void MergeJoin(const std::vector<const std::vector<HRow>*>& inputs,
               PlanStats* stats,
               const std::function<bool(const JoinedRow&)>& emit) {
  const size_t k = inputs.size();
  std::vector<size_t> pos(k, 0);
  while (true) {
    // Find the largest current id; check all cursors can reach it.
    int64_t target = INT64_MIN;
    for (size_t v = 0; v < k; ++v) {
      if (pos[v] >= inputs[v]->size()) return;
      target = std::max(target, (*inputs[v])[pos[v]].id);
    }
    bool aligned = true;
    for (size_t v = 0; v < k; ++v) {
      while (pos[v] < inputs[v]->size() && (*inputs[v])[pos[v]].id < target) {
        ++pos[v];
      }
      if (pos[v] >= inputs[v]->size()) return;
      if ((*inputs[v])[pos[v]].id != target) {
        aligned = false;
      }
    }
    if (!aligned) continue;
    // Equal-id runs per variable.
    std::vector<std::pair<size_t, size_t>> runs(k);
    for (size_t v = 0; v < k; ++v) {
      size_t end = pos[v];
      while (end < inputs[v]->size() && (*inputs[v])[end].id == target) ++end;
      runs[v] = {pos[v], end};
    }
    // Cross product of the runs.
    JoinedRow row(k);
    std::vector<size_t> idx(k);
    for (size_t v = 0; v < k; ++v) idx[v] = runs[v].first;
    while (true) {
      for (size_t v = 0; v < k; ++v) row[v] = &(*inputs[v])[idx[v]];
      if (stats != nullptr) ++stats->rows_joined;
      if (!emit(row)) return;
      // Odometer increment.
      size_t v = 0;
      for (; v < k; ++v) {
        if (++idx[v] < runs[v].second) break;
        idx[v] = runs[v].first;
      }
      if (v == k) break;
    }
    for (size_t v = 0; v < k; ++v) pos[v] = runs[v].second;
  }
}

bool SpecContainsAgg(const OutputSpec& spec) {
  if (spec.kind == OutputSpec::Kind::kAgg) return true;
  for (const OutputSpec& child : spec.children) {
    if (SpecContainsAgg(child)) return true;
  }
  return false;
}

/// Instantiates an output spec for one joined row, appending to `parent`.
void EmitSpecForRow(const OutputSpec& spec, const JoinedRow& row,
                    const xml::XmlNodePtr& parent) {
  switch (spec.kind) {
    case OutputSpec::Kind::kElement: {
      auto elem = xml::XmlNode::Element(spec.name);
      if (spec.attr_var.has_value()) {
        elem->SetInterval(row[*spec.attr_var]->interval);
      }
      for (const OutputSpec& child : spec.children) {
        EmitSpecForRow(child, row, elem);
      }
      if (spec.column.has_value()) {
        elem->AppendText(
            ColValue(*row[spec.column->var], spec.column->col).ToString());
      }
      parent->AppendChild(std::move(elem));
      break;
    }
    case OutputSpec::Kind::kColumn: {
      parent->AppendText(
          ColValue(*row[spec.column->var], spec.column->col).ToString());
      break;
    }
    case OutputSpec::Kind::kInterval: {
      auto iv = row[*spec.ivl_lhs]->interval.Intersect(
          row[*spec.ivl_rhs]->interval);
      if (iv.has_value()) {
        auto elem = xml::XmlNode::Element("interval");
        elem->SetInterval(*iv);
        parent->AppendChild(std::move(elem));
      }
      break;
    }
    case OutputSpec::Kind::kText:
      parent->AppendText(spec.name);
      break;
    case OutputSpec::Kind::kAgg:
      // Handled by the grouping driver.
      break;
  }
}

/// Instantiates an element spec for a group of rows: non-agg children are
/// taken from the group's first row, agg children repeat per row (the
/// XMLAgg + GROUP BY id shape of Section 5.3).
void EmitSpecForGroup(const OutputSpec& spec,
                      const std::vector<JoinedRow>& group,
                      const xml::XmlNodePtr& parent) {
  if (spec.kind == OutputSpec::Kind::kAgg) {
    for (const JoinedRow& row : group) {
      for (const OutputSpec& child : spec.children) {
        EmitSpecForRow(child, row, parent);
      }
    }
    return;
  }
  if (spec.kind != OutputSpec::Kind::kElement) {
    EmitSpecForRow(spec, group.front(), parent);
    return;
  }
  auto elem = xml::XmlNode::Element(spec.name);
  if (spec.attr_var.has_value()) {
    elem->SetInterval(group.front()[*spec.attr_var]->interval);
  }
  for (const OutputSpec& child : spec.children) {
    EmitSpecForGroup(child, group, elem);
  }
  if (spec.column.has_value()) {
    elem->AppendText(ColValue(*group.front()[spec.column->var],
                              spec.column->col)
                         .ToString());
  }
  parent->AppendChild(std::move(elem));
}

}  // namespace

namespace {

/// One aggregate input fact: the row of each plan variable (indexed by
/// plan variable) of one iteration tuple.
using AggFact = const HRow* const*;

Result<double> FactValue(const AggExpr& expr, AggFact fact) {
  std::optional<double> v =
      TextNumber(ColValue(*fact[expr.arg.var], expr.arg.col));
  std::optional<double> minus;
  if (expr.minus.has_value()) {
    minus = TextNumber(ColValue(*fact[expr.minus->var], expr.minus->col));
  }
  if (!v.has_value() || (expr.minus.has_value() && !minus.has_value())) {
    return Status::TypeError("aggregate argument is not numeric");
  }
  return minus.has_value() ? *v - *minus : *v;
}

/// Evaluates the plan's aggregate over `facts` (in native order) and
/// renders the result. Shared by the join pipeline and the streaming
/// pushdown path (facts = the single variable's scan output, no join or
/// row buffers in between).
Result<xml::XmlNodePtr> RenderAggregate(const SqlXmlPlan& plan,
                                        const std::vector<AggFact>& facts,
                                        PlanStats* stats) {
  auto root = xml::XmlNode::Element("results");
  const AggExpr& expr = plan.agg_expr;

  // Temporal aggregate: the sweep over matching facts (Section 5.4 maps
  // these to SQL:2003 OLAP functions; we run the same single scan).
  if (plan.aggregate == PlanAggregate::kTAvg) {
    std::vector<temporal::TimedNumber> tfacts;
    for (AggFact fact : facts) {
      const HRow& row = *fact[expr.arg.var];
      auto v = ColValue(row, expr.arg.col).AsNumeric();
      if (v.ok()) tfacts.push_back({*v, row.interval});
    }
    uint64_t steps = 0;
    for (const temporal::AggregateStep& step : temporal::TemporalAggregate(
             std::move(tfacts), temporal::TemporalAggFn::kAvg)) {
      auto elem = xml::XmlNode::Element("tavg");
      elem->SetInterval(step.interval);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", step.value);
      elem->AppendText(buf);
      root->AppendChild(std::move(elem));
      ++steps;
    }
    if (stats != nullptr) stats->result_rows = steps;
    return root;
  }

  // Scalar aggregates (Section 5.4: OLAP-function mapping), with the
  // native functions' semantics: sum of nothing is 0, avg/max/min of
  // nothing is the empty sequence (no value).
  std::optional<std::string> value;
  switch (plan.aggregate) {
    case PlanAggregate::kCount:
      value = FormatNumber(static_cast<double>(facts.size()));
      break;
    case PlanAggregate::kSumValue:
    case PlanAggregate::kAvgValue: {
      if (facts.empty() && plan.aggregate == PlanAggregate::kAvgValue) break;
      double total = 0;
      for (AggFact fact : facts) {
        ARCHIS_ASSIGN_OR_RETURN(double v, FactValue(expr, fact));
        total += v;
      }
      if (plan.aggregate == PlanAggregate::kAvgValue) {
        total /= static_cast<double>(facts.size());
      }
      value = FormatNumber(total);
      break;
    }
    case PlanAggregate::kMaxValue:
    case PlanAggregate::kMinValue: {
      if (facts.empty()) break;
      const bool is_max = plan.aggregate == PlanAggregate::kMaxValue;
      std::optional<double> best;
      bool numeric = true;
      for (AggFact fact : facts) {
        Result<double> v = FactValue(expr, fact);
        if (!v.ok()) {
          // A computed argument must be numeric; a bare column that is
          // not compares as strings, as native max/min do.
          if (expr.minus.has_value()) return v.status();
          numeric = false;
          break;
        }
        if (!best || (is_max ? *v > *best : *v < *best)) best = *v;
      }
      if (numeric) {
        value = FormatNumber(*best);
        break;
      }
      for (AggFact fact : facts) {
        std::string s = ColValue(*fact[expr.arg.var], expr.arg.col).ToString();
        if (!value || (is_max ? s > *value : s < *value)) value = std::move(s);
      }
      break;
    }
    case PlanAggregate::kNone:
    case PlanAggregate::kTAvg:
      break;
  }
  if (value.has_value()) root->AppendText(*value);
  if (stats != nullptr) stats->result_rows = value.has_value() ? 1 : 0;
  return root;
}

/// One fact per iteration tuple of `joined`, in native FLWOR order: rows
/// are keyed by the non-predicate variables (a key-table variable by id,
/// an attribute variable by version), sorted by that key — the inputs are
/// (id, tstart)-sorted, so row addresses follow document order — and
/// deduplicated.
Result<std::vector<AggFact>> IterationFacts(
    const SqlXmlPlan& plan,
    const std::vector<std::pair<int64_t, JoinedRow>>& joined) {
  std::vector<std::pair<size_t, bool>> iter;  // (variable, keyed by id)
  for (size_t v = 0; v < plan.vars.size(); ++v) {
    if (!plan.vars[v].predicate_only) {
      iter.emplace_back(v, plan.vars[v].attribute.empty());
    }
  }
  if (iter.empty()) {
    return Status::InvalidArgument("aggregate plan has no iteration variable");
  }
  // <0, 0 or >0 as a's iteration key orders before, with or after b's.
  auto compare = [&](AggFact a, AggFact b) {
    for (const auto& [v, by_id] : iter) {
      if (a[v]->id != b[v]->id) return a[v]->id < b[v]->id ? -1 : 1;
      if (!by_id && a[v] != b[v]) return std::less<>()(a[v], b[v]) ? -1 : 1;
    }
    return 0;
  };
  std::vector<AggFact> facts;
  facts.reserve(joined.size());
  for (const auto& [id, row] : joined) facts.push_back(row.data());
  std::stable_sort(facts.begin(), facts.end(), [&](AggFact a, AggFact b) {
    return compare(a, b) < 0;
  });
  facts.erase(std::unique(facts.begin(), facts.end(),
                          [&](AggFact a, AggFact b) {
                            return compare(a, b) == 0;
                          }),
              facts.end());
  return facts;
}

Result<xml::XmlNodePtr> ExecutePlanImpl(const Archiver& archiver,
                                        const SqlXmlPlan& plan,
                                        Date current_date, PlanStats* stats,
                                        trace::Trace* trace,
                                        const PhysicalPlan& physical,
                                        const ExecDeadline& deadline) {
  if (plan.vars.empty()) {
    return Status::InvalidArgument("plan has no variables");
  }
  if (physical.vars.size() != plan.vars.size() ||
      physical.fetch_order.size() != plan.vars.size()) {
    return Status::InvalidArgument(
        "physical plan does not match the logical plan");
  }
  if (stats != nullptr) {
    stats->cost_based_plan = physical.cost_based;
    stats->est_cost = physical.est_total_cost;
    stats->est_rows = physical.est_result_rows;
  }
  if (trace != nullptr) {
    // Describe() formats several floats; only pay for it when a profile
    // is actually being collected.
    trace::ScopedSpan plan_span(trace, "plan");
    plan_span.Note("physical", physical.Describe());
  }

  // Fetch phase, in the planner's order. A variable that fetches empty
  // empties the whole join (its join group's partial is empty, and the
  // cross-product gate below requires every partial non-empty), so a
  // cost-based plan stops fetching at the first empty input. The fixed
  // legacy shape keeps the eager behaviour.
  std::vector<std::vector<HRow>> inputs(plan.vars.size());
  for (size_t ord : physical.fetch_order) {
    ARCHIS_ASSIGN_OR_RETURN(
        std::vector<HRow> rows,
        FetchVar(archiver, plan.vars[ord], physical.vars[ord], current_date,
                 physical.cost_based, stats, trace, deadline));
    const bool empty = rows.empty();
    inputs[ord] = std::move(rows);
    if (physical.cost_based && empty) {
      if (trace != nullptr) {
        trace->NoteCurrent("early_exit", "empty-input v" + std::to_string(ord));
      }
      break;
    }
  }

  // Aggregate pushdown: a single-variable aggregate with no cross
  // conditions consumes the scan output directly — no join, no JoinedRow
  // buffers, no distinct pass (single-variable rows are already unique).
  if (physical.stream_aggregate && plan.vars.size() == 1 &&
      plan.cross_conds.empty() && plan.aggregate != PlanAggregate::kNone &&
      !plan.vars[0].predicate_only) {
    std::vector<const HRow*> rows;
    rows.reserve(inputs[0].size());
    for (const HRow& r : inputs[0]) rows.push_back(&r);
    std::vector<AggFact> facts;
    facts.reserve(rows.size());
    for (const HRow*& r : rows) facts.push_back(&r);
    return RenderAggregate(plan, facts, stats);
  }

  // Join phase. Variables in the same join group id-equijoin via a sorted
  // merge; groups combine by cross product filtered by the cross conditions
  // (Algorithm 1 only generates id joins between variables rooted in the
  // same document variable).
  std::optional<trace::ScopedSpan> join_span;
  if (trace != nullptr) join_span.emplace(trace, "join");
  std::map<size_t, std::vector<size_t>> group_members;
  for (size_t v = 0; v < plan.vars.size(); ++v) {
    size_t gid = plan.join_on_id ? plan.vars[v].join_group : v;
    group_members[gid].push_back(v);
  }
  // Full rows that pass the cross conditions. The cross product can dwarf
  // the scans (it is the join's only super-linear phase), so it re-checks
  // the deadline periodically too.
  std::vector<std::pair<int64_t, JoinedRow>> joined;
  uint64_t iterations = 0;
  bool deadline_hit = false;
  auto admit = [&](const JoinedRow& full) {
    if (deadline.has_value() && (++iterations & 4095) == 0 &&
        DeadlinePassed(deadline)) {
      deadline_hit = true;
      return false;
    }
    if (CrossCondsHold(plan.cross_conds, full, current_date)) {
      joined.emplace_back(full[0]->id, full);
    }
    return true;
  };
  // Per group: list of partial rows (pointer per member). The partial rows
  // of a lone group are the full rows, so they are admitted as the merge
  // join produces them instead of being buffered first.
  const bool one_group = group_members.size() == 1;
  std::vector<std::vector<size_t>> members_list;
  std::vector<std::vector<JoinedRow>> partials;
  for (const auto& [gid, members] : group_members) {
    members_list.push_back(members);
    std::vector<JoinedRow> rows;
    auto emit = [&](const JoinedRow& row) {
      if (one_group) return admit(row);
      rows.push_back(row);
      return true;
    };
    if (members.size() == 1) {
      for (const HRow& r : inputs[members[0]]) {
        if (!emit({&r})) break;
      }
    } else {
      std::vector<const std::vector<HRow>*> views;
      for (size_t m : members) views.push_back(&inputs[m]);
      MergeJoin(views, stats, emit);
    }
    partials.push_back(std::move(rows));
  }
  // Cross product across several groups into full rows.
  std::vector<size_t> cursor(partials.size(), 0);
  if (!one_group && std::none_of(partials.begin(), partials.end(),
                                 [](const auto& p) { return p.empty(); })) {
    while (true) {
      JoinedRow full(plan.vars.size(), nullptr);
      for (size_t g = 0; g < partials.size(); ++g) {
        const JoinedRow& part = partials[g][cursor[g]];
        for (size_t m = 0; m < members_list[g].size(); ++m) {
          full[members_list[g][m]] = part[m];
        }
      }
      if (!admit(full)) break;
      size_t g = 0;
      for (; g < partials.size(); ++g) {
        if (++cursor[g] < partials[g].size()) break;
        cursor[g] = 0;
      }
      if (g == partials.size()) break;
    }
  }
  if (deadline_hit) return DeadlineError();

  // SELECT DISTINCT on the output-referenced variables: collapse joined
  // rows that only differ in variables the output never reads. (An
  // aggregate deduplicates on its iteration variables instead.)
  const bool aggregate = plan.aggregate != PlanAggregate::kNone;
  if (!aggregate && plan.distinct_output && !joined.empty()) {
    std::set<size_t> referenced;
    std::function<void(const OutputSpec&)> collect =
        [&](const OutputSpec& spec) {
      if (spec.attr_var) referenced.insert(*spec.attr_var);
      if (spec.column) referenced.insert(spec.column->var);
      if (spec.ivl_lhs) referenced.insert(*spec.ivl_lhs);
      if (spec.ivl_rhs) referenced.insert(*spec.ivl_rhs);
      for (const OutputSpec& child : spec.children) collect(child);
    };
    collect(plan.output);
    if (referenced.empty()) referenced.insert(0);
    std::set<std::vector<const HRow*>> seen;
    std::vector<std::pair<int64_t, JoinedRow>> unique;
    for (auto& [id, row] : joined) {
      std::vector<const HRow*> key;
      key.reserve(referenced.size());
      for (size_t v : referenced) key.push_back(row[v]);
      if (seen.insert(std::move(key)).second) {
        unique.emplace_back(id, row);
      }
    }
    joined = std::move(unique);
  }
  if (join_span.has_value()) {
    join_span->Note("rows_joined", static_cast<uint64_t>(joined.size()));
    join_span.reset();
  }

  // Aggregates over the joined rows (the non-pushdown shape: multi
  // variable, cross conditions, or planner off): one fact per iteration
  // tuple.
  if (aggregate) {
    ARCHIS_ASSIGN_OR_RETURN(std::vector<AggFact> facts,
                            IterationFacts(plan, joined));
    return RenderAggregate(plan, facts, stats);
  }

  if (stats != nullptr) {
    stats->result_rows = static_cast<uint64_t>(joined.size());
  }
  auto root = xml::XmlNode::Element("results");

  // XML construction phase.
  if (SpecContainsAgg(plan.output)) {
    // Group by id (Algorithm 1 adds GROUP BY for XMLAgg outputs).
    std::map<int64_t, std::vector<JoinedRow>> groups;
    for (const auto& [id, row] : joined) groups[id].push_back(row);
    for (const auto& [id, group] : groups) {
      EmitSpecForGroup(plan.output, group, root);
    }
  } else {
    for (const auto& [id, row] : joined) {
      EmitSpecForRow(plan.output, row, root);
    }
  }
  return root;
}

}  // namespace

Result<xml::XmlNodePtr> ExecutePlan(
    const Archiver& archiver, const SqlXmlPlan& plan, Date current_date,
    PlanStats* stats, trace::Trace* trace, const PhysicalPlan* physical,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  static metrics::Counter* rows_scanned =
      metrics::Registry::Global().GetCounter(
          "archis_exec_rows_scanned_total",
          "H-table rows scanned by the SQL/XML executor");
  static metrics::Counter* rows_joined =
      metrics::Registry::Global().GetCounter(
          "archis_exec_rows_joined_total",
          "Rows produced by the executor's id-equijoin phase");
  static metrics::Counter* segments_scanned =
      metrics::Registry::Global().GetCounter(
          "archis_exec_segments_scanned_total",
          "Segments visited by SQL/XML plan scans");
  static metrics::Counter* plans =
      metrics::Registry::Global().GetCounter(
          "archis_exec_plans_total", "SQL/XML plans executed");
  static metrics::Counter* plan_failures =
      metrics::Registry::Global().GetCounter(
          "archis_exec_plan_failures_total",
          "SQL/XML plan executions that returned a non-OK status");

  // A caller without a planner decision runs the fixed legacy shape.
  std::optional<PhysicalPlan> fallback;
  if (physical == nullptr) {
    fallback = DefaultPhysicalPlan(plan);
    physical = &*fallback;
  }

  // Run with a local PlanStats so the partial work of a failing plan is
  // still published (registry + caller), then merge into the caller's.
  PlanStats local;
  Result<xml::XmlNodePtr> result = ExecutePlanImpl(
      archiver, plan, current_date, &local, trace, *physical, deadline);
  if (stats != nullptr) {
    stats->rows_scanned += local.rows_scanned;
    stats->rows_joined += local.rows_joined;
    stats->segments_scanned += local.segments_scanned;
    stats->blocks_decompressed += local.blocks_decompressed;
    stats->blocks_pruned_by_time += local.blocks_pruned_by_time;
    stats->block_cache_hits += local.block_cache_hits;
    stats->block_cache_misses += local.block_cache_misses;
    stats->cost_based_plan = local.cost_based_plan;
    stats->est_cost = local.est_cost;
    stats->est_rows = local.est_rows;
    stats->result_rows += local.result_rows;
  }
  // Estimate-vs-actual on the caller's execute span (the EXPLAIN surface).
  if (trace != nullptr && result.ok()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", local.est_rows);
    trace->NoteCurrent("est_rows", std::string(buf));
    trace->NoteCurrent("actual_rows", local.result_rows);
  }
  rows_scanned->Inc(local.rows_scanned);
  rows_joined->Inc(local.rows_joined);
  segments_scanned->Inc(local.segments_scanned);
  plans->Inc();
  if (!result.ok()) plan_failures->Inc();
  return result;
}

// ---------------------------------------------------------------------------
// SQL/XML rendering
// ---------------------------------------------------------------------------

namespace {

std::string VarAlias(const SqlXmlPlan& plan, size_t v) {
  const PlanVar& var = plan.vars[v];
  std::string alias = var.xq_name.empty() ? "t" + std::to_string(v)
                                          : var.xq_name;
  // SQL identifiers: strip the '$' of XQuery variables, dot -> underscore.
  std::string out;
  for (char c : alias) {
    if (c == '$') continue;
    out += (c == '.' ? '_' : c);
  }
  return out.empty() ? "t" + std::to_string(v) : out;
}

std::string TableName(const PlanVar& var) {
  return var.attribute.empty() ? var.relation + "_id"
                               : var.relation + "_" + var.attribute;
}

std::string ColName(const SqlXmlPlan& plan, const HColRef& ref) {
  const PlanVar& var = plan.vars[ref.var];
  std::string alias = VarAlias(plan, ref.var);
  switch (ref.col) {
    case HCol::kId: return alias + ".id";
    case HCol::kValue:
      return alias + "." + (var.attribute.empty() ? "id" : var.attribute);
    case HCol::kTstart: return alias + ".tstart";
    case HCol::kTend: return alias + ".tend";
  }
  return alias + ".?";
}

const char* OpText(minirel::CompareOp op) {
  switch (op) {
    case minirel::CompareOp::kEq: return "=";
    case minirel::CompareOp::kNe: return "<>";
    case minirel::CompareOp::kLt: return "<";
    case minirel::CompareOp::kLe: return "<=";
    case minirel::CompareOp::kGt: return ">";
    case minirel::CompareOp::kGe: return ">=";
  }
  return "?";
}

void RenderSpec(const SqlXmlPlan& plan, const OutputSpec& spec,
                std::string* out) {
  switch (spec.kind) {
    case OutputSpec::Kind::kElement: {
      *out += "XMLElement(Name \"" + spec.name + "\"";
      if (spec.attr_var.has_value()) {
        std::string alias = VarAlias(plan, *spec.attr_var);
        *out += ", XMLAttributes(" + alias + ".tstart AS \"tstart\", " +
                alias + ".tend AS \"tend\")";
      }
      for (const OutputSpec& child : spec.children) {
        *out += ", ";
        RenderSpec(plan, child, out);
      }
      if (spec.column.has_value()) {
        *out += ", " + ColName(plan, *spec.column);
      }
      *out += ")";
      break;
    }
    case OutputSpec::Kind::kColumn:
      *out += ColName(plan, *spec.column);
      break;
    case OutputSpec::Kind::kAgg: {
      *out += "XMLAgg(";
      for (size_t i = 0; i < spec.children.size(); ++i) {
        if (i > 0) *out += ", ";
        RenderSpec(plan, spec.children[i], out);
      }
      *out += ")";
      break;
    }
    case OutputSpec::Kind::kInterval:
      *out += "overlapinterval(" + VarAlias(plan, *spec.ivl_lhs) + ", " +
              VarAlias(plan, *spec.ivl_rhs) + ")";
      break;
    case OutputSpec::Kind::kText:
      *out += "'" + spec.name + "'";
      break;
  }
}

}  // namespace

std::string SqlXmlPlan::ToSql() const {
  std::string sql = "SELECT ";
  std::string arg = ColName(*this, agg_expr.arg);
  if (agg_expr.minus.has_value()) {
    arg += " - " + ColName(*this, *agg_expr.minus);
  }
  switch (aggregate) {
    case PlanAggregate::kNone:
      RenderSpec(*this, output, &sql);
      break;
    case PlanAggregate::kAvgValue: sql += "AVG(" + arg + ")"; break;
    case PlanAggregate::kCount: {
      // Semi-join inputs do not multiply the facts: count the distinct
      // iteration tuples.
      std::string facts;
      for (size_t v = 0; v < vars.size(); ++v) {
        if (vars[v].predicate_only) continue;
        if (!facts.empty()) facts += ", ";
        facts += ColName(*this, {v, HCol::kId});
        if (!vars[v].attribute.empty()) {
          facts += ", " + ColName(*this, {v, HCol::kTstart});
        }
      }
      const bool semi_join = std::any_of(
          vars.begin(), vars.end(),
          [](const PlanVar& var) { return var.predicate_only; });
      sql += semi_join ? "COUNT(DISTINCT " + facts + ")" : "COUNT(*)";
      break;
    }
    case PlanAggregate::kMaxValue: sql += "MAX(" + arg + ")"; break;
    case PlanAggregate::kMinValue: sql += "MIN(" + arg + ")"; break;
    case PlanAggregate::kSumValue: sql += "SUM(" + arg + ")"; break;
    case PlanAggregate::kTAvg:
      sql += "TAVG(" + arg + ") /* OLAP sweep */";
      break;
  }
  sql += "\nFROM ";
  for (size_t v = 0; v < vars.size(); ++v) {
    if (v > 0) sql += ", ";
    sql += TableName(vars[v]) + " AS " + VarAlias(*this, v);
  }
  std::vector<std::string> where;
  if (join_on_id) {
    for (size_t v = 1; v < vars.size(); ++v) {
      where.push_back(VarAlias(*this, 0) + ".id = " + VarAlias(*this, v) +
                      ".id");
    }
  }
  for (size_t v = 0; v < vars.size(); ++v) {
    const PlanVar& var = vars[v];
    std::string alias = VarAlias(*this, v);
    if (var.id_eq) {
      where.push_back(alias + ".id = " + std::to_string(*var.id_eq));
    }
    for (const ValueCond& cond : var.value_conds) {
      where.push_back(ColName(*this, {v, HCol::kValue}) +
                      std::string(" ") + OpText(cond.op) + " '" +
                      cond.constant.ToString() + "'");
    }
    if (var.snapshot) {
      where.push_back(alias + ".segno = SEGMENT_OF('" +
                      var.snapshot->ToString() + "')");
      where.push_back(alias + ".tstart <= '" + var.snapshot->ToString() +
                      "'");
      where.push_back(alias + ".tend >= '" + var.snapshot->ToString() + "'");
    }
    if (var.overlap) {
      where.push_back(alias + ".segno IN SEGMENTS_OVERLAPPING('" +
                      var.overlap->tstart.ToString() + "','" +
                      var.overlap->tend.ToString() + "')");
      where.push_back("toverlaps(" + alias + ".tstart, " + alias +
                      ".tend, '" + var.overlap->tstart.ToString() + "', '" +
                      var.overlap->tend.ToString() + "')");
    }
    if (var.current_only) {
      // The sentinel spelling comes from Date::Forever(), never a literal
      // (archis-lint `forbidden-literal` keeps the encoding in one place).
      where.push_back(alias + ".tend = '" + Date::Forever().ToString() + "'");
    }
  }
  for (const CrossCond& cond : cross_conds) {
    switch (cond.kind) {
      case CrossCond::Kind::kCompare:
        where.push_back(
            ColName(*this, cond.lhs) + std::string(" ") + OpText(cond.op) +
            " " + ColName(*this, cond.rhs) +
            (cond.rhs_offset_days == 0
                 ? std::string()
                 : " + " + std::to_string(cond.rhs_offset_days)));
        break;
      case CrossCond::Kind::kOverlaps:
        where.push_back("toverlaps(" + VarAlias(*this, cond.lhs.var) + ", " +
                        VarAlias(*this, cond.rhs.var) + ")");
        break;
      case CrossCond::Kind::kContains:
        where.push_back("tcontains(" + VarAlias(*this, cond.lhs.var) + ", " +
                        VarAlias(*this, cond.rhs.var) + ")");
        break;
      case CrossCond::Kind::kEquals:
        where.push_back("tequals(" + VarAlias(*this, cond.lhs.var) + ", " +
                        VarAlias(*this, cond.rhs.var) + ")");
        break;
      case CrossCond::Kind::kMeets:
        where.push_back("tmeets(" + VarAlias(*this, cond.lhs.var) + ", " +
                        VarAlias(*this, cond.rhs.var) + ")");
        break;
      case CrossCond::Kind::kPrecedes:
        where.push_back("tprecedes(" + VarAlias(*this, cond.lhs.var) + ", " +
                        VarAlias(*this, cond.rhs.var) + ")");
        break;
    }
  }
  if (!where.empty()) {
    sql += "\nWHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += where[i];
    }
  }
  bool has_agg = false;
  // GROUP BY id when the output aggregates rows into one element per id.
  std::function<void(const OutputSpec&)> find_agg =
      [&](const OutputSpec& spec) {
    if (spec.kind == OutputSpec::Kind::kAgg) has_agg = true;
    for (const OutputSpec& child : spec.children) find_agg(child);
  };
  find_agg(output);
  if (has_agg) {
    sql += "\nGROUP BY " + VarAlias(*this, 0) + ".id";
  }
  return sql;
}

}  // namespace archis::core
