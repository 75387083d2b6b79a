// Per-query span trees and the EXPLAIN-style profile renderer.
//
// A Trace owns a span tree built by properly nested metrics::Stage guards
// (common/instruments.h) on the query thread: the query stage is the
// root, the facade opens parse / translate / execute under it, the plan
// executor opens plan, one segment_scan per plan variable and join, and
// every span can carry key=value notes (row counts, cache hits, the table
// scanned). When QueryOptions::collect_profile is set the tree is
// surfaced on QueryResult as a QueryProfile whose Render() is the
// human-readable EXPLAIN output.
//
// A null Trace* opens no spans, so instrumented code paths pay nothing for
// the tree when no profile was requested. Spans are built on one thread
// (the query thread).
#ifndef ARCHIS_COMMON_TRACE_H_
#define ARCHIS_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace archis::trace {

/// One node of the profile tree.
struct Span {
  std::string name;
  uint64_t start_ns = 0;     ///< offset from the trace start
  uint64_t duration_ns = 0;  ///< >= 1 once closed (clamped, so a recorded
                             ///< span is always distinguishable from a
                             ///< never-run one)
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<Span> children;
};

/// Depth-first search by span name; nullptr when absent.
const Span* FindSpan(const Span& root, const std::string& name);

/// The completed profile of one query.
struct QueryProfile {
  Span root;
  /// EXPLAIN-style indented tree, one span per line:
  ///   query                       2.314 ms
  ///     execute                   2.201 ms
  ///       segment_scan            1.806 ms  table=employees_salary rows=42
  std::string Render() const;
};

/// Span-tree builder for one query. Not thread-safe: one Trace is driven
/// by one query thread.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Opens a span at `start`: the first span opened is the root, later
  /// ones nest under the innermost open span. Returns nullptr once the
  /// root has closed. Called by metrics::Stage.
  Span* OpenSpan(const char* name, Clock::time_point start);
  /// Closes `span`, the innermost open span, at `end`.
  void CloseSpan(Span* span, Clock::time_point end);

  /// Closes the root span if it is still open and hands the finished
  /// tree out.
  QueryProfile TakeProfile();

  /// Attaches a key=value annotation to the innermost open span. Lets a
  /// callee annotate its caller's span (e.g. the plan executor putting
  /// estimated-vs-actual rows on the facade's execute span) without
  /// owning a Stage of its own.
  void NoteCurrent(const std::string& key, std::string value);
  void NoteCurrent(const std::string& key, uint64_t value);

 private:
  Clock::time_point start_{};
  bool rooted_ = false;
  Span root_;
  /// Open-span stack; back() is the innermost open span. Pointers stay
  /// valid because RAII nesting means a parent's children vector only
  /// grows while none of its existing children is open.
  std::vector<Span*> open_;
};

}  // namespace archis::trace

#endif  // ARCHIS_COMMON_TRACE_H_
