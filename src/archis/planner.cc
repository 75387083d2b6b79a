#include "archis/planner.h"

#include <algorithm>
#include <cstdio>

#include "common/instruments.h"
#include "minirel/executor.h"

namespace archis::core {

namespace {

// Cost units (DESIGN.md §11): one unit = decode + filter of one stored
// row. Blocks, pages and probes are charged in the same currency.
constexpr double kTupleCost = 1.0;
/// BlockZIP inflation of one ~4000-byte block.
constexpr double kBlockCost = 24.0;
/// One B+-tree / block-sid-range probe into a segment.
constexpr double kProbeCost = 6.0;
/// One heap-page fetch of the live segment's table.
constexpr double kPageCost = 4.0;
/// Default selectivity of one pushed-down value predicate.
constexpr double kValueCondSelectivity = 0.33;

Result<const SegmentedStore*> ResolveStore(const Archiver& archiver,
                                           const PlanVar& var) {
  ARCHIS_ASSIGN_OR_RETURN(HTableSet * set, archiver.htables(var.relation));
  if (var.attribute.empty()) return set->key_store();
  ARCHIS_ASSIGN_OR_RETURN(SegmentedStore * store,
                          set->attribute_store(var.attribute));
  return store;
}

std::optional<TimeInterval> VarWindow(const PlanVar& var) {
  if (var.snapshot.has_value()) {
    return MakeInterval(*var.snapshot, *var.snapshot);
  }
  return var.overlap;
}

/// Calls `fn(seg)` for every source a merge-scan of `var` reads: the
/// covering frozen segments (the segment-interval table prunes the rest,
/// Eq. 3/4) and, as `seg == nullptr`, the live segment.
template <typename Fn>
void ForEachScannedSource(const SegmentedStore& store, const PlanVar& var,
                          Fn fn) {
  const std::vector<SegmentInfo>& segs = store.segments();
  std::optional<TimeInterval> window = VarWindow(var);
  if (var.snapshot.has_value() && *var.snapshot < store.live_start()) {
    // ScanSnapshot picks the newest covering segment only.
    const SegmentInfo* covering = nullptr;
    for (const SegmentInfo& seg : segs) {
      if (seg.interval.Overlaps(*window)) covering = &seg;
    }
    if (covering != nullptr) fn(covering);
    return;
  }
  if (!var.snapshot.has_value()) {
    for (const SegmentInfo& seg : segs) {
      if (!window.has_value() || seg.interval.Overlaps(*window)) fn(&seg);
    }
  }
  if (!window.has_value() || window->tend >= store.live_start()) fn(nullptr);
}

/// Distinct ids of the store, as far as the segment table tells: the
/// largest frozen segment's exact count or the live segment's open
/// versions.
double DistinctIds(const SegmentedStore& store) {
  uint64_t ids = store.live_current();
  for (const SegmentInfo& seg : store.segments()) {
    ids = std::max(ids, seg.distinct_ids);
  }
  return static_cast<double>(std::max<uint64_t>(ids, 1));
}

/// Estimated rows the variable's fetch yields after every pushed-down
/// condition — path-independent (both paths post-filter to the same set).
/// Read off the segment table: each scanned source contributes its tuples,
/// or at a snapshot instant one version per id; an id restriction keeps
/// one id's share. In the live segment every open version is a distinct
/// id, so open versions are counted exactly.
double EstimateVarRows(const SegmentedStore& store, const PlanVar& var) {
  double rows = 0;
  if (var.current_only) {
    rows = static_cast<double>(store.live_current());
    if (var.id_eq.has_value()) rows = std::min(rows, 1.0);
  } else {
    ForEachScannedSource(store, var, [&](const SegmentInfo* seg) {
      const auto tuples = static_cast<double>(
          seg != nullptr ? seg->tuple_count : store.live_total());
      const auto ids = static_cast<double>(
          seg != nullptr ? seg->distinct_ids : store.live_current());
      if (var.snapshot.has_value()) {
        rows += var.id_eq.has_value() ? std::min(ids, 1.0) : ids;
      } else {
        rows += var.id_eq.has_value() ? tuples / std::max(ids, 1.0) : tuples;
      }
    });
  }
  for (size_t i = 0; i < var.value_conds.size(); ++i) {
    rows *= kValueCondSelectivity;
  }
  return rows;
}

/// Cost of the temporal merge-scan path: covering segments contribute
/// their tuple count (Eq. 3/4 — the segment interval table prunes the
/// rest) plus a BlockZIP inflation charge for every block that survives
/// the temporal zone maps; the live segment is charged per heap page.
double MergeScanCost(const SegmentedStore& store, const PlanVar& var,
                     uint64_t* segments_touched) {
  std::optional<TimeInterval> window = VarWindow(var);
  const std::vector<SegmentInfo>& segs = store.segments();
  double cost = 0;
  uint64_t nseg = 0;
  ForEachScannedSource(store, var, [&](const SegmentInfo* seg) {
    ++nseg;
    if (seg == nullptr) {
      cost += static_cast<double>(store.live_total()) * kTupleCost +
              static_cast<double>(store.LiveTableStats().pages) * kPageCost;
      return;
    }
    const double blocks =
        seg->compressed ? static_cast<double>(store.BlocksOverlapping(
                              static_cast<size_t>(seg - segs.data()), window))
                        : 0.0;
    cost += static_cast<double>(seg->tuple_count) * kTupleCost +
            blocks * kBlockCost;
  });
  if (segments_touched != nullptr) *segments_touched = nseg;
  return cost;
}

/// Cost of the id-index path: every segment is probed (ScanId has no
/// temporal pruning), but each probe reads only the object's versions —
/// roughly tuple_count / distinct_ids rows and one block inflation for
/// compressed segments.
double IdIndexCost(const SegmentedStore& store, uint64_t* segments_touched) {
  double cost = 0;
  for (const SegmentInfo& seg : store.segments()) {
    const double rows_per_id =
        static_cast<double>(seg.tuple_count) /
        static_cast<double>(std::max<uint64_t>(seg.distinct_ids, 1));
    cost += kProbeCost + rows_per_id * kTupleCost +
            (seg.blocks > 0 ? kBlockCost : 0.0);
  }
  // Live segment: index probe plus the object's live versions (every open
  // version there is a distinct id).
  cost += kProbeCost +
          static_cast<double>(store.live_total()) /
              static_cast<double>(std::max<uint64_t>(store.live_current(), 1)) *
              kTupleCost;
  if (segments_touched != nullptr) {
    *segments_touched = store.segments().size() + 1;
  }
  return cost;
}

}  // namespace

Result<PhysicalPlan> PlanQuery(const Archiver& archiver,
                               const SqlXmlPlan& plan) {
  PhysicalPlan physical;
  physical.vars.resize(plan.vars.size());
  std::vector<const SegmentedStore*> stores(plan.vars.size());
  for (size_t v = 0; v < plan.vars.size(); ++v) {
    physical.fetch_order.push_back(v);
    const PlanVar& var = plan.vars[v];
    ARCHIS_ASSIGN_OR_RETURN(const SegmentedStore* store,
                            ResolveStore(archiver, var));
    stores[v] = store;
    VarPlan& vp = physical.vars[v];
    vp.est_rows = EstimateVarRows(*store, var);
    uint64_t merge_segs = 0;
    const double merge_cost = MergeScanCost(*store, var, &merge_segs);
    if (var.id_eq.has_value()) {
      uint64_t index_segs = 0;
      const double index_cost = IdIndexCost(*store, &index_segs);
      if (index_cost <= merge_cost) {
        vp.path = AccessPath::kIdIndex;
        vp.est_cost = index_cost;
        vp.est_segments = index_segs;
      } else {
        vp.path = AccessPath::kSegmentMerge;
        vp.est_cost = merge_cost;
        vp.est_segments = merge_segs;
        metrics::Get(metrics::kPlannerMergeBeatsIndex).Inc();
      }
    } else {
      vp.path = AccessPath::kSegmentMerge;
      vp.est_cost = merge_cost;
      vp.est_segments = merge_segs;
    }
    metrics::Get(vp.path == AccessPath::kIdIndex
                     ? metrics::kPlannerIdIndexPaths
                     : metrics::kPlannerSegmentMergePaths)
        .Inc();
    physical.est_total_cost += vp.est_cost;
  }

  // Temporal-join order: fetch the cheapest (fewest estimated rows)
  // variable first — an empty fetch short-circuits everything after it.
  std::stable_sort(physical.fetch_order.begin(), physical.fetch_order.end(),
                   [&](size_t a, size_t b) {
                     return physical.vars[a].est_rows <
                            physical.vars[b].est_rows;
                   });

  // Output-cardinality estimate: textbook equi-join on id, joined
  // pairwise with |R >< S| = |R| * |S| / max(d_R, d_S). An id-restricted
  // variable holds one distinct id.
  if (!physical.vars.empty()) {
    auto distinct = [&](size_t v) {
      return plan.vars[v].id_eq.has_value() ? 1.0 : DistinctIds(*stores[v]);
    };
    double est = physical.vars[0].est_rows;
    double max_d = distinct(0);
    for (size_t v = 1; v < physical.vars.size(); ++v) {
      const double d = distinct(v);
      if (plan.join_on_id) {
        est = minirel::EstimateEquiJoinRows(est, physical.vars[v].est_rows,
                                            max_d, d);
      } else {
        est = est * physical.vars[v].est_rows;
      }
      max_d = std::max(max_d, d);
    }
    physical.est_result_rows =
        plan.aggregate != PlanAggregate::kNone ? 1.0 : est;
  }

  // Aggregate pushdown: a single-variable scalar/temporal aggregate with
  // no cross conditions needs neither the join nor the row buffers.
  if (plan.vars.size() == 1 && plan.aggregate != PlanAggregate::kNone &&
      plan.cross_conds.empty() && !plan.vars[0].predicate_only) {
    physical.stream_aggregate = true;
    metrics::Get(metrics::kPlannerAggPushdowns).Inc();
  }

  metrics::Get(metrics::kPlannerPlans).Inc();
  return physical;
}

std::string PhysicalPlan::Describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "cost-based cost=%.1f est_rows=%.1f",
                est_total_cost, est_result_rows);
  std::string out = buf;
  for (size_t i = 0; i < fetch_order.size(); ++i) {
    const size_t v = fetch_order[i];
    std::snprintf(buf, sizeof(buf), " v%zu=%s", v,
                  vars[v].path == AccessPath::kIdIndex ? "id-index"
                                                      : "segment-merge");
    out += buf;
  }
  if (stream_aggregate) out += " agg-pushdown";
  return out;
}

void AppendPlanCacheKey(const SqlXmlPlan& plan, std::string* out) {
  std::string& key = *out;
  auto put_u64 = [&key](uint64_t v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_i64 = [&put_u64](int64_t v) { put_u64(static_cast<uint64_t>(v)); };
  auto put_str = [&key, &put_u64](const std::string& s) {
    put_u64(s.size());
    key += s;
  };
  auto put_conds = [&key, &put_u64](const std::vector<ValueCond>& conds) {
    put_u64(conds.size());
    for (const ValueCond& c : conds) {
      key.push_back(static_cast<char>(c.op));
      // EncodeTo emits no type tag (int64 and double are both 8 raw
      // bytes), so tag the constant ourselves.
      key.push_back(static_cast<char>(c.constant.type()));
      c.constant.EncodeTo(&key);
    }
  };
  put_u64(plan.vars.size());
  for (const PlanVar& v : plan.vars) {
    // xq_name is debugging-only; everything else changes what the planner
    // (or the executor's pushed-down scan) does, so everything else is
    // part of the key.
    put_str(v.relation);
    put_str(v.attribute);
    put_conds(v.value_conds);
    put_conds(v.tstart_conds);
    put_conds(v.tend_conds);
    key.push_back(v.snapshot.has_value() ? 1 : 0);
    if (v.snapshot.has_value()) put_i64(v.snapshot->days());
    key.push_back(v.overlap.has_value() ? 1 : 0);
    if (v.overlap.has_value()) {
      put_i64(v.overlap->tstart.days());
      put_i64(v.overlap->tend.days());
    }
    key.push_back(v.id_eq.has_value() ? 1 : 0);
    if (v.id_eq.has_value()) put_i64(*v.id_eq);
    key.push_back(v.current_only ? 1 : 0);
    put_u64(v.join_group);
    key.push_back(v.predicate_only ? 1 : 0);
  }
  put_u64(plan.cross_conds.size());
  for (const CrossCond& c : plan.cross_conds) {
    key.push_back(static_cast<char>(c.kind));
    put_u64(c.lhs.var);
    key.push_back(static_cast<char>(c.lhs.col));
    key.push_back(static_cast<char>(c.op));
    put_u64(c.rhs.var);
    key.push_back(static_cast<char>(c.rhs.col));
    put_i64(c.rhs_offset_days);
  }
  key.push_back(plan.join_on_id ? 1 : 0);
  key.push_back(plan.distinct_output ? 1 : 0);
  key.push_back(static_cast<char>(plan.aggregate));
  put_u64(plan.agg_expr.arg.var);
  key.push_back(static_cast<char>(plan.agg_expr.arg.col));
  key.push_back(plan.agg_expr.minus.has_value() ? 1 : 0);
  if (plan.agg_expr.minus.has_value()) {
    put_u64(plan.agg_expr.minus->var);
    key.push_back(static_cast<char>(plan.agg_expr.minus->col));
  }
}

}  // namespace archis::core
