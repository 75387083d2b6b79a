// SQL/XML plans over H-tables (paper Sections 5.3, 6.3).
//
// The XQuery translator produces an SqlXmlPlan: tuple variables ranging
// over key/attribute H-tables, id-equijoin conditions (implicit between all
// variables, as Algorithm 1 generates), pushed-down value and temporal
// conditions, and an output spec built from the SQL/XML constructs
// XMLElement / XMLAttributes / XMLAgg. The executor runs the plan against
// the SegmentedStores: snapshot and slicing conditions prune to covering
// segments first (Section 6.3), id-sorted merge joins combine variables,
// and tag binding happens directly over the tuple stream (the "inside the
// relational engine" property of [34]).
#ifndef ARCHIS_ARCHIS_SQLXML_H_
#define ARCHIS_ARCHIS_SQLXML_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archis/archiver.h"
#include "common/trace.h"
#include "xml/node.h"

namespace archis::core {

/// Column of an H-table variable.
enum class HCol { kId, kValue, kTstart, kTend };

/// A reference to a column of one plan variable.
struct HColRef {
  size_t var = 0;
  HCol col = HCol::kValue;
};

/// Comparison against a constant, pushed into a variable's scan.
struct ValueCond {
  minirel::CompareOp op;
  minirel::Value constant;
};

/// One tuple variable of the plan (a key table or attribute table range,
/// Algorithm 1 step "identification of variable range").
struct PlanVar {
  std::string xq_name;    ///< originating XQuery variable (debugging)
  std::string relation;   ///< archived relation
  std::string attribute;  ///< attribute history table; empty = key table
  std::vector<ValueCond> value_conds;        ///< value op const
  std::vector<ValueCond> tstart_conds;       ///< tstart op const(Date)
  std::vector<ValueCond> tend_conds;         ///< tend op const(Date)
  std::optional<Date> snapshot;              ///< tstart<=p<=tend point
  std::optional<TimeInterval> overlap;       ///< interval overlap pushdown
  std::optional<int64_t> id_eq;              ///< single-object restriction
  bool current_only = false;                 ///< tend must be `now`
  size_t join_group = 0;  ///< vars in the same group id-equijoin (Algorithm
                          ///< 1 only joins variables rooted in the same
                          ///< document variable)
  /// Made for a predicate, an exists() test or a where condition rather
  /// than by a for/let binding: a semi-join input. It filters the joined
  /// rows but never multiplies the facts an aggregate consumes.
  bool predicate_only = false;
};

/// Cross-variable condition evaluated after the id join.
struct CrossCond {
  enum class Kind {
    kCompare,        ///< lhs.col op rhs.col
    kOverlaps,       ///< intervals of two vars overlap (toverlaps /
                     ///< non-empty overlapinterval)
    kContains,       ///< lhs interval contains rhs interval
    kEquals,         ///< intervals equal
    kMeets,          ///< lhs meets rhs
    kPrecedes,       ///< lhs precedes rhs
  };
  Kind kind = Kind::kCompare;
  HColRef lhs;
  minirel::CompareOp op = minirel::CompareOp::kEq;
  HColRef rhs;
  /// kCompare on date columns: days added to the rhs before comparing
  /// (tstart($s2) <= tstart($s1) + 730).
  int64_t rhs_offset_days = 0;
};

/// XML output construction (the SQL/XML select list).
struct OutputSpec {
  enum class Kind {
    kElement,   ///< XMLElement(name, [XMLAttributes(tstart,tend of var)],
                ///<            children...)
    kColumn,    ///< column text content
    kAgg,       ///< XMLAgg(child) over rows of the group (group by id)
    kInterval,  ///< overlapinterval(lhs,rhs) rendered as <interval .../>
    kText,      ///< literal text
  };
  Kind kind = Kind::kElement;
  std::string name;                   ///< element tag / literal text
  std::optional<size_t> attr_var;     ///< emit tstart/tend of this variable
  std::optional<HColRef> column;      ///< kColumn source
  std::optional<size_t> ivl_lhs, ivl_rhs;  ///< kInterval operand variables
  std::vector<OutputSpec> children;
};

/// Scalar aggregates the paper maps to SQL OLAP functions (Section 5.4).
///
/// A scalar aggregate consumes one fact per iteration tuple: the distinct
/// combinations of the plan variables that are not `predicate_only`, where
/// a key-table variable counts by id (an entity binding iterates objects)
/// and an attribute variable by version. Facts are taken in native FLWOR
/// order, and the result renders as native XQuery does: `<results>` with
/// the bare FormatNumber value, `<results/>` for avg/max/min of nothing.
enum class PlanAggregate {
  kNone,
  kAvgValue,  ///< avg(E)
  kCount,     ///< count(E)
  kMaxValue,  ///< max(E)
  kMinValue,  ///< min(E)
  kSumValue,  ///< sum(E)
  kTAvg,      ///< temporal average: the step history of AVG(value)
              ///< computed with the single-scan sweep (QUERY 5)
};

/// The per-fact argument of an aggregate: one column of a plan variable,
/// or the difference of two (number($s2) - number($s1)).
struct AggExpr {
  HColRef arg{0, HCol::kValue};
  std::optional<HColRef> minus;
};

/// A complete translated query.
struct SqlXmlPlan {
  std::vector<PlanVar> vars;
  std::vector<CrossCond> cross_conds;
  bool join_on_id = true;  ///< id-equijoin across all vars (Algorithm 1)
  /// Deduplicate joined rows on the variables the output references
  /// (SELECT DISTINCT). The translator enables this to match XQuery's
  /// node-identity semantics when a predicate variable with several
  /// matching versions would otherwise fan out the output.
  bool distinct_output = false;
  OutputSpec output;
  PlanAggregate aggregate = PlanAggregate::kNone;
  AggExpr agg_expr;

  /// Renders the plan as SQL/XML text (what ArchIS would send to the
  /// RDBMS), e.g. for logging or the paper's worked examples.
  std::string ToSql() const;
};

/// Physical access path for one plan variable. The translator's logical
/// plan (PlanVar) says *what* to fetch; the planner (archis/planner.h)
/// decides *how* — the paper's §6 pruning model finally gets a chooser.
enum class AccessPath {
  /// ScanId: per-segment B+-tree / block-sid probes for one object, with
  /// temporal conditions applied as a row post-filter.
  kIdIndex,
  /// Temporal merge-scan: segment-interval pruning (snapshot / overlap /
  /// history), with any id restriction applied as a row post-filter.
  kSegmentMerge,
};

/// The planner's decision for one plan variable.
struct VarPlan {
  AccessPath path = AccessPath::kSegmentMerge;
  double est_rows = 0;      ///< rows surviving the pushed-down conditions
  double est_cost = 0;      ///< cost units for this access (DESIGN.md §11)
  uint64_t est_segments = 0;  ///< segments the chosen path touches
};

/// A complete physical plan for one SqlXmlPlan. Constructed ONLY by
/// archis/planner.* (PlanQuery / DefaultPhysicalPlan — the archis-lint
/// `plan-ownership` rule pins this); the executor consumes it read-only.
struct PhysicalPlan {
  std::vector<VarPlan> vars;        ///< parallel to SqlXmlPlan::vars
  /// Variable fetch order, cheapest (fewest estimated rows) first; a
  /// variable that fetches empty short-circuits the rest (any empty input
  /// empties the join's cross product).
  std::vector<size_t> fetch_order;
  /// Compute the scalar/temporal aggregate while scanning, skipping the
  /// join/buffer pipeline (single-variable plans only).
  bool stream_aggregate = false;
  /// False for the fixed legacy shape (planner off).
  bool cost_based = false;
  double est_total_cost = 0;
  double est_result_rows = 0;

  /// One-line rendering for EXPLAIN / logging, e.g.
  /// "cost-based v0=id-index v1=segment-merge agg-pushdown".
  std::string Describe() const;
};

/// Executor statistics for one plan run.
struct PlanStats {
  uint64_t rows_scanned = 0;
  uint64_t rows_joined = 0;
  uint64_t segments_scanned = 0;
  uint64_t blocks_decompressed = 0;
  uint64_t blocks_pruned_by_time = 0;  ///< zone-map block skips
  uint64_t block_cache_hits = 0;       ///< decompressed-block cache hits
  uint64_t block_cache_misses = 0;
  // Planner surface: estimate vs outcome for the run (DESIGN.md §11).
  bool cost_based_plan = false;  ///< whether a cost-based physical plan ran
  double est_cost = 0;           ///< planner cost estimate (cost units)
  double est_rows = 0;           ///< planner output-row estimate
  uint64_t result_rows = 0;      ///< actual joined output rows
};

/// Executes `plan` against the archiver's H-tables, returning the
/// constructed XML (for scalar aggregates, `<results>` holding the value).
///
/// `stats` receives the executor counters; on a non-OK return it still
/// holds the partial work done up to the failure, so failed queries stay
/// attributable. A non-null `trace` gets one segment-scan span per plan
/// variable plus a join span, nested under the caller's execute span.
///
/// `physical` is the planner's decision (archis/planner.h); nullptr runs
/// the fixed legacy shape (DefaultPhysicalPlan), which reproduces the
/// pre-planner executor exactly.
///
/// `deadline` (absolute, steady clock) cancels the run with
/// StatusCode::kDeadlineExceeded: checked before each variable's scan,
/// every few hundred rows inside a scan (the scan stops early), and
/// periodically through the join's cross product — so even a plan that
/// would scan millions of rows observes the deadline promptly.
Result<xml::XmlNodePtr> ExecutePlan(
    const Archiver& archiver, const SqlXmlPlan& plan, Date current_date,
    PlanStats* stats = nullptr, trace::Trace* trace = nullptr,
    const PhysicalPlan* physical = nullptr,
    std::optional<std::chrono::steady_clock::time_point> deadline =
        std::nullopt);

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_SQLXML_H_
