// Cost-based physical planning for SQL/XML plans (DESIGN.md §11).
//
// The translator emits a logical SqlXmlPlan; this module decides how the
// executor should run it. Its statistics are the paper's segment table
// (SegmentInfo: interval, tuple and distinct-id counts, BlockZIP blocks),
// the BlockZIP zone maps and the live segment's counters — nothing is
// maintained for the planner alone. Three decisions are made:
//
//   * Access path per variable: B+-tree / block-sid id probes across all
//     segments (kIdIndex) vs a temporally pruned segment merge-scan
//     (kSegmentMerge). The cost model follows the paper's §6 segment
//     model (Eq. 3/4): a time-restricted scan touches only covering
//     segments, each contributing its tuple count plus a BlockZIP
//     inflation charge, while an id probe pays a probe per segment but
//     reads only that object's versions.
//   * Fetch order: variables are fetched cheapest-estimated-rows first,
//     and an empty fetch short-circuits the remaining ones (any empty
//     input empties the join).
//   * Aggregate pushdown: single-variable scalar/temporal aggregates are
//     computed while scanning, skipping the join/buffer pipeline.
//
// This module is the ONLY producer of PhysicalPlan values (enforced by
// the archis-lint `plan-ownership` rule); everything else consumes them
// read-only.
#ifndef ARCHIS_ARCHIS_PLANNER_H_
#define ARCHIS_ARCHIS_PLANNER_H_

#include "archis/archiver.h"
#include "archis/sqlxml.h"

namespace archis::core {

/// Chooses a physical plan for `plan` from the segment statistics of the
/// stores it touches. Fails only when a plan variable references an
/// unknown relation/attribute (the executor would fail identically).
Result<PhysicalPlan> PlanQuery(const Archiver& archiver,
                               const SqlXmlPlan& plan);

/// Appends a byte-exact structural key of the planning-relevant fields of
/// `plan` (variables with their pushed-down conditions, cross conditions,
/// join and aggregate shape) to `*out`. Two plans with equal keys always
/// receive the same PhysicalPlan from PlanQuery at equal statistics, so
/// the key — an exact encoding, not a hash, so collisions are impossible —
/// backs the facade's plan cache (archis.h). Append-style so the hot
/// cache-hit path can reuse one scratch buffer instead of allocating.
// archis-lint: allow(void-mutator) -- pure byte-append encoder, infallible
void AppendPlanCacheKey(const SqlXmlPlan& plan, std::string* out);

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_PLANNER_H_
