#include "archis/planner.h"

#include <algorithm>
#include <cstdio>

#include "common/metrics.h"
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

metrics::Counter* PlansMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_planner_plans_total", "Physical plans produced by PlanQuery");
  return c;
}

metrics::Counter* IdIndexMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_planner_id_index_paths_total",
      "Plan variables routed to the id-index access path");
  return c;
}

metrics::Counter* MergeScanMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_planner_segment_merge_paths_total",
      "Plan variables routed to the temporal segment merge-scan path");
  return c;
}

metrics::Counter* MergeOverIndexMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_planner_merge_beats_index_total",
      "Id-restricted variables where the merge-scan was estimated cheaper "
      "than the id index (the data-shape-driven plan flip)");
  return c;
}

metrics::Counter* AggPushdownMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_planner_agg_pushdowns_total",
      "Plans whose aggregate was pushed below the join/buffer pipeline");
  return c;
}

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

/// Estimated rows the variable's fetch yields after every pushed-down
/// condition — path-independent (both paths post-filter to the same set).
double EstimateVarRows(const SegmentedStore& store, const PlanVar& var) {
  const StoreStatistics& stats = store.statistics();
  if (stats.versions_total == 0) return 0.0;
  const auto total = static_cast<double>(stats.versions_total);
  std::optional<TimeInterval> window = VarWindow(var);
  double rows = window ? stats.EstimateOverlapping(*window) : total;
  if (var.id_eq.has_value()) {
    // One object's share: versions-per-id scaled by the temporal fraction
    // the window keeps.
    rows = stats.VersionsPerId() * (rows / total);
  }
  if (var.current_only) rows *= stats.LiveRatio();
  for (size_t i = 0; i < var.value_conds.size(); ++i) {
    rows *= kValueCondSelectivity;
  }
  return std::max(rows, 0.0);
}

/// Cost of the temporal merge-scan path: covering segments contribute
/// their tuple count (Eq. 3/4 — the segment interval table prunes the
/// rest) plus a BlockZIP inflation charge for every block that survives
/// the temporal zone maps; the live segment is charged per heap page.
double MergeScanCost(const SegmentedStore& store, const PlanVar& var,
                     uint64_t* segments_touched) {
  std::optional<TimeInterval> window = VarWindow(var);
  double cost = 0;
  uint64_t nseg = 0;
  const std::vector<SegmentInfo>& segs = store.segments();
  auto charge = [&](size_t idx) {
    const SegmentInfo& seg = segs[idx];
    const double blocks =
        seg.compressed
            ? static_cast<double>(store.BlocksOverlapping(idx, window))
            : 0.0;
    cost += static_cast<double>(seg.tuple_count) * kTupleCost +
            blocks * kBlockCost;
    ++nseg;
  };
  auto charge_live = [&] {
    cost += static_cast<double>(store.live_total()) * kTupleCost +
            static_cast<double>(store.LiveTableStats().pages) * kPageCost;
    ++nseg;
  };
  if (var.snapshot.has_value() && *var.snapshot < store.live_start()) {
    // ScanSnapshot picks the newest covering segment only.
    std::optional<size_t> covering;
    for (size_t i = 0; i < segs.size(); ++i) {
      if (segs[i].interval.Overlaps(
              MakeInterval(*var.snapshot, *var.snapshot))) {
        covering = i;
      }
    }
    if (covering.has_value()) charge(*covering);
  } else if (var.snapshot.has_value()) {
    charge_live();
  } else if (window.has_value()) {
    for (size_t i = 0; i < segs.size(); ++i) {
      if (segs[i].interval.Overlaps(*window)) charge(i);
    }
    if (window->tend >= store.live_start()) charge_live();
  } else {
    for (size_t i = 0; i < segs.size(); ++i) charge(i);
    charge_live();
  }
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
  // Live segment: index probe plus the object's live versions.
  const uint64_t live_ids =
      std::max<uint64_t>(store.statistics().distinct_ids.Estimate(), 1);
  cost += kProbeCost + static_cast<double>(store.live_total()) /
                           static_cast<double>(live_ids) * kTupleCost;
  if (segments_touched != nullptr) {
    *segments_touched = store.segments().size() + 1;
  }
  return cost;
}

}  // namespace

PhysicalPlan DefaultPhysicalPlan(const SqlXmlPlan& plan) {
  PhysicalPlan physical;
  physical.vars.resize(plan.vars.size());
  for (size_t v = 0; v < plan.vars.size(); ++v) {
    physical.vars[v].path = plan.vars[v].id_eq.has_value()
                                ? AccessPath::kIdIndex
                                : AccessPath::kSegmentMerge;
    physical.fetch_order.push_back(v);
  }
  return physical;
}

Result<PhysicalPlan> PlanQuery(const Archiver& archiver,
                               const SqlXmlPlan& plan) {
  PhysicalPlan physical = DefaultPhysicalPlan(plan);
  physical.cost_based = true;
  for (size_t v = 0; v < plan.vars.size(); ++v) {
    const PlanVar& var = plan.vars[v];
    ARCHIS_ASSIGN_OR_RETURN(const SegmentedStore* store,
                            ResolveStore(archiver, var));
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
        MergeOverIndexMetric()->Inc();
      }
    } else {
      vp.path = AccessPath::kSegmentMerge;
      vp.est_cost = merge_cost;
      vp.est_segments = merge_segs;
    }
    (vp.path == AccessPath::kIdIndex ? IdIndexMetric() : MergeScanMetric())
        ->Inc();
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
  // pairwise with |R >< S| = |R| * |S| / max(d_R, d_S).
  if (!physical.vars.empty()) {
    double est = physical.vars[0].est_rows;
    double max_d = 1;
    if (const Result<const SegmentedStore*> s0 =
            ResolveStore(archiver, plan.vars[0]);
        s0.ok()) {
      max_d = std::max<double>(
          1, static_cast<double>((*s0)->statistics().distinct_ids.Estimate()));
    }
    for (size_t v = 1; v < physical.vars.size(); ++v) {
      double d = 1;
      if (const Result<const SegmentedStore*> sv =
              ResolveStore(archiver, plan.vars[v]);
          sv.ok()) {
        d = std::max<double>(
            1,
            static_cast<double>((*sv)->statistics().distinct_ids.Estimate()));
      }
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
      plan.cross_conds.empty()) {
    physical.stream_aggregate = true;
    AggPushdownMetric()->Inc();
  }

  PlansMetric()->Inc();
  return physical;
}

std::string PhysicalPlan::Describe() const {
  std::string out = cost_based ? "cost-based" : "fixed";
  char buf[96];
  if (cost_based) {
    std::snprintf(buf, sizeof(buf), " cost=%.1f est_rows=%.1f",
                  est_total_cost, est_result_rows);
    out += buf;
  }
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
  }
  put_u64(plan.cross_conds.size());
  for (const CrossCond& c : plan.cross_conds) {
    key.push_back(static_cast<char>(c.kind));
    put_u64(c.lhs.var);
    key.push_back(static_cast<char>(c.lhs.col));
    key.push_back(static_cast<char>(c.op));
    put_u64(c.rhs.var);
    key.push_back(static_cast<char>(c.rhs.col));
  }
  key.push_back(plan.join_on_id ? 1 : 0);
  key.push_back(plan.distinct_output ? 1 : 0);
  key.push_back(static_cast<char>(plan.aggregate));
  put_i64(plan.agg_window_days);
}

}  // namespace archis::core
