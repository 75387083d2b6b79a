// archis-lint: a domain-invariant checker for the archis source tree.
//
// Compile-time guarantees (thread-safety annotations, [[nodiscard]]) catch
// whole bug classes, but some of the paper's invariants are conventions a
// compiler cannot see. This checker pins those down:
//
//   forbidden-literal  The `now` sentinel 9999-12-31 is an encoding detail
//                      owned by common/date.* and temporal/now.*; spelling
//                      it anywhere else re-encodes the sentinel and breaks
//                      the moment the encoding changes.
//   raw-interval       TimeInterval(s, e) built directly can be ill-formed
//                      (tstart > tend); every construction outside
//                      common/interval.* must go through MakeInterval /
//                      MakeIntervalChecked, which enforce well-formedness.
//   raw-mutex          std::mutex / std::lock_guard / std::call_once are
//                      invisible to clang's thread-safety analysis; all
//                      locking goes through the annotated archis::Mutex
//                      wrappers in common/mutex.h.
//   void-mutator       Public mutating APIs in storage/archis/compress/
//                      xmldb headers must return Status — a void mutator
//                      has no way to report the I/O or validation failure
//                      it will eventually hit.
//   deprecated-api     Retired facade entry points (FlushLog, the
//                      five-parameter CreateRelation) still compile through
//                      [[deprecated]] shims; new code must use the
//                      transactional write path and RelationSpec.
//   raw-logging        printf / fprintf / std::cout / std::cerr logging in
//                      src/ produces unstructured, unfilterable prose; all
//                      diagnostics go through the leveled key=value logger
//                      in common/log.h (which is itself exempt, as are
//                      tools/tests/bench outside src/).
//   plan-ownership     PhysicalPlan values (the executor's physical query
//                      shape) are produced only by the cost-based planner
//                      in archis/planner.*; constructing one anywhere else
//                      in src/ ships an unplanned shape to the executor.
//                      Consumers hold references/pointers only.
//   lock-rank          Every named archis::Mutex declared in src/ must be
//                      constructed with a LockRank from common/lock_rank.h
//                      (e.g. `Mutex mu_{LockRank::kWal};`). Ranked locks
//                      are what the debug-build monotonic-acquisition
//                      assertion keys off; an unranked mutex is invisible
//                      to it.
//
// Findings on a line (or the line below) can be suppressed with a comment:
//   // archis-lint: allow(<rule>) -- <why this is safe>
#ifndef ARCHIS_TOOLS_LINT_LINT_H_
#define ARCHIS_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace archis::lint {

/// One rule violation.
struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;

  std::string ToString() const;
};

/// Runs every rule over one file's contents. `path` decides which
/// allowlists apply (matched by suffix, forward-slash separated).
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& contents);

/// Recursively lints all *.h / *.cc / *.cpp files under `roots`, skipping
/// build directories and lint fixture trees.
Result<std::vector<Finding>> LintTree(const std::vector<std::string>& roots);

/// Replaces comments with spaces (preserving line structure and string
/// literals) so rules don't fire on prose. Exposed for tests.
std::string StripComments(const std::string& src);

}  // namespace archis::lint

#endif  // ARCHIS_TOOLS_LINT_LINT_H_
