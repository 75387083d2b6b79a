#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace archis::lint {
namespace {

namespace fs = std::filesystem;

/// Whether `path` (forward slashes) ends with any of `suffixes`.
bool PathEndsWithAny(const std::string& path,
                     const std::vector<std::string>& suffixes) {
  return std::any_of(suffixes.begin(), suffixes.end(),
                     [&](const std::string& s) {
                       return path.size() >= s.size() &&
                              path.compare(path.size() - s.size(), s.size(),
                                           s) == 0;
                     });
}

bool PathContains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Line number (1-based) of byte offset `pos`.
int LineOf(const std::string& text, size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + pos,
                                         '\n'));
}

/// Lines carrying an `archis-lint: allow(<rule>)` suppression, per rule.
/// A suppression covers its own line and the next one, so the comment can
/// sit above the offending statement.
std::set<std::pair<std::string, int>> Suppressions(const std::string& src) {
  std::set<std::pair<std::string, int>> out;
  static const std::string kTag = "archis-lint: allow(";
  size_t pos = 0;
  while ((pos = src.find(kTag, pos)) != std::string::npos) {
    size_t open = pos + kTag.size();
    size_t close = src.find(')', open);
    if (close != std::string::npos) {
      std::string rule = src.substr(open, close - open);
      int line = LineOf(src, pos);
      out.insert({rule, line});
      out.insert({rule, line + 1});
    }
    pos = open;
  }
  return out;
}

struct RuleContext {
  const std::string& path;      // normalized, forward slashes
  const std::string& code;      // comments stripped, strings kept
  const std::set<std::pair<std::string, int>>& suppressed;
  std::vector<Finding>* findings;

  void Report(const std::string& rule, size_t pos,
              const std::string& message) const {
    int line = LineOf(code, pos);
    if (suppressed.count({rule, line}) != 0) return;
    findings->push_back({path, line, rule, message});
  }
};

// ---- Rule: forbidden-literal ---------------------------------------------

void CheckForbiddenLiteral(const RuleContext& ctx) {
  if (PathEndsWithAny(ctx.path, {"common/date.h", "common/date.cc",
                                 "temporal/now.h", "temporal/now.cc"})) {
    return;
  }
  for (const std::string& needle :
       {std::string("9999-12-31"), std::string("FromYmd(9999")}) {
    size_t pos = 0;
    while ((pos = ctx.code.find(needle, pos)) != std::string::npos) {
      ctx.Report("forbidden-literal", pos,
                 "raw `now` sentinel ('" + needle +
                     "'); use Date::Forever() / temporal::ForeverString()");
      pos += needle.size();
    }
  }
}

// ---- Rule: raw-interval ---------------------------------------------------

void CheckRawInterval(const RuleContext& ctx) {
  if (PathEndsWithAny(ctx.path,
                      {"common/interval.h", "common/interval.cc"})) {
    return;
  }
  static const std::string kName = "TimeInterval";
  size_t pos = 0;
  while ((pos = ctx.code.find(kName, pos)) != std::string::npos) {
    size_t start = pos;
    pos += kName.size();
    // Must be a whole identifier ("MakeTimeIntervalish" doesn't count).
    if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
    size_t after = pos;
    while (after < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[after]))) {
      ++after;
    }
    if (after >= ctx.code.size()) break;
    char open = ctx.code[after];
    if (open != '(' && open != '{') continue;  // not a construction
    char close = open == '(' ? ')' : '}';
    size_t arg = after + 1;
    while (arg < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[arg]))) {
      ++arg;
    }
    if (arg >= ctx.code.size() || ctx.code[arg] == close) {
      continue;  // TimeInterval() / TimeInterval{}: default init is fine
    }
    ctx.Report("raw-interval", start,
               "direct TimeInterval construction bypasses validation; use "
               "MakeInterval (guaranteed-valid bounds) or "
               "MakeIntervalChecked (untrusted input)");
  }
}

// ---- Rule: raw-mutex ------------------------------------------------------

void CheckRawMutex(const RuleContext& ctx) {
  if (PathEndsWithAny(ctx.path, {"common/mutex.h"})) return;
  static const std::vector<std::string> kBanned = {
      "std::mutex",       "std::recursive_mutex",
      "std::timed_mutex", "std::shared_mutex",
      "std::lock_guard",  "std::unique_lock",
      "std::scoped_lock", "std::condition_variable",
      "std::once_flag",   "std::call_once",
  };
  for (const std::string& needle : kBanned) {
    size_t pos = 0;
    while ((pos = ctx.code.find(needle, pos)) != std::string::npos) {
      size_t start = pos;
      pos += needle.size();
      // Whole-token match only (std::condition_variable_any is caught by
      // its own prefix entry, but don't double-report it).
      if (pos < ctx.code.size() && IsIdentChar(ctx.code[pos])) {
        if (needle != "std::condition_variable") {
          continue;
        }
      }
      ctx.Report("raw-mutex", start,
                 "raw " + needle +
                     " is invisible to thread-safety analysis; use the "
                     "annotated archis::Mutex / MutexLock / CondVar "
                     "(common/mutex.h)");
    }
  }
}

// ---- Rule: void-mutator ---------------------------------------------------

void CheckVoidMutator(const RuleContext& ctx) {
  // Public persistence-facing APIs only: a void mutator there has no
  // error channel for the I/O failure it will eventually meet.
  const bool in_scope =
      (PathContains(ctx.path, "/storage/") ||
       PathContains(ctx.path, "/archis/") ||
       PathContains(ctx.path, "/compress/") ||
       PathContains(ctx.path, "/xmldb/")) &&
      PathEndsWithAny(ctx.path, {".h"});
  if (!in_scope) return;
  static const std::vector<std::string> kVerbs = {
      "Insert", "Put",    "Write",   "Flush",  "Persist", "Load",
      "Store",  "Append", "Close",   "Freeze", "Delete",  "Remove",
      "Archive", "Commit", "Capture", "Publish",
  };
  static const std::string kVoid = "void";
  size_t pos = 0;
  while ((pos = ctx.code.find(kVoid, pos)) != std::string::npos) {
    size_t start = pos;
    pos += kVoid.size();
    if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
    if (pos < ctx.code.size() && IsIdentChar(ctx.code[pos])) continue;
    // Skip whitespace to the function name.
    size_t name = pos;
    while (name < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[name]))) {
      ++name;
    }
    size_t name_end = name;
    while (name_end < ctx.code.size() && IsIdentChar(ctx.code[name_end])) {
      ++name_end;
    }
    if (name_end == name || name_end >= ctx.code.size() ||
        ctx.code[name_end] != '(') {
      continue;  // `void*`, `void>`, or not a declaration
    }
    std::string fn = ctx.code.substr(name, name_end - name);
    for (const std::string& verb : kVerbs) {
      if (fn.compare(0, verb.size(), verb) == 0) {
        ctx.Report("void-mutator", start,
                   "public mutator '" + fn +
                       "' returns void; return Status so failures are "
                       "reportable (or suppress with a reason if it is "
                       "provably infallible)");
        break;
      }
    }
  }
}

// ---- Rule: lock-rank ------------------------------------------------------

void CheckLockRank(const RuleContext& ctx) {
  // Named mutexes in src/ must join the lock hierarchy at declaration.
  // The primitive's own internals are exempt; tests and tools may declare
  // scratch mutexes (fixtures, selftests) without a rank.
  if (!PathContains(ctx.path, "src/")) return;
  if (PathEndsWithAny(ctx.path, {"common/mutex.h"})) return;
  static const std::string kNeedle = "Mutex";
  size_t pos = 0;
  while ((pos = ctx.code.find(kNeedle, pos)) != std::string::npos) {
    const size_t start = pos;
    pos += kNeedle.size();
    // Whole token only: MutexLock, SomeMutexish etc. are not declarations
    // of archis::Mutex.
    if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
    if (pos < ctx.code.size() && IsIdentChar(ctx.code[pos])) continue;
    size_t i = pos;
    auto skip_ws = [&] {
      while (i < ctx.code.size() &&
             std::isspace(static_cast<unsigned char>(ctx.code[i]))) {
        ++i;
      }
    };
    skip_ws();
    // `Mutex&`, `Mutex*`, `Mutex(` ... are uses, not declarations.
    if (i >= ctx.code.size() || !IsIdentChar(ctx.code[i]) ||
        std::isdigit(static_cast<unsigned char>(ctx.code[i])) != 0) {
      continue;
    }
    while (i < ctx.code.size() && IsIdentChar(ctx.code[i])) ++i;
    skip_ws();
    if (i >= ctx.code.size()) continue;
    if (ctx.code[i] == ';') {
      ctx.Report("lock-rank", start,
                 "named archis::Mutex declared without a LockRank; "
                 "construct it with an ordinal from common/lock_rank.h "
                 "(e.g. Mutex mu_{LockRank::kWal}) so rank-monotonic "
                 "acquisition is enforced in debug builds");
      continue;
    }
    if (ctx.code[i] == '{') {
      size_t close = ctx.code.find('}', i);
      if (close == std::string::npos) continue;
      if (ctx.code.substr(i, close - i).find("LockRank") ==
          std::string::npos) {
        ctx.Report("lock-rank", start,
                   "named archis::Mutex initialized without a LockRank; "
                   "construct it with an ordinal from common/lock_rank.h "
                   "(e.g. Mutex mu_{LockRank::kWal}) so rank-monotonic "
                   "acquisition is enforced in debug builds");
      }
      continue;
    }
  }
}

// ---- Rule: deprecated-api -------------------------------------------------

void CheckDeprecatedApi(const RuleContext& ctx) {
  // The shims are gone from the facade; only the linter itself (which
  // holds the pattern strings) is exempt.
  if (PathEndsWithAny(ctx.path, {"tools/lint/lint.cc"})) {
    return;
  }
  // FlushLog: retired by the transactional write path.
  static const std::string kFlush = "FlushLog";
  size_t pos = 0;
  while ((pos = ctx.code.find(kFlush, pos)) != std::string::npos) {
    size_t start = pos;
    pos += kFlush.size();
    if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
    if (pos < ctx.code.size() && IsIdentChar(ctx.code[pos])) continue;
    ctx.Report("deprecated-api", start,
               "FlushLog() is deprecated; commit through "
               "Transaction::Commit() or ArchIS::Commit()");
  }
  // Legacy five-parameter CreateRelation: its first argument was the
  // relation name — a string literal right after the paren gives it away.
  // The replacement takes a RelationSpec.
  static const std::string kCreate = "CreateRelation";
  pos = 0;
  while ((pos = ctx.code.find(kCreate, pos)) != std::string::npos) {
    size_t start = pos;
    pos += kCreate.size();
    if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
    size_t after = pos;
    while (after < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[after]))) {
      ++after;
    }
    if (after >= ctx.code.size() || ctx.code[after] != '(') continue;
    ++after;
    while (after < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[after]))) {
      ++after;
    }
    if (after >= ctx.code.size() || ctx.code[after] != '"') continue;
    ctx.Report("deprecated-api", start,
               "legacy five-parameter CreateRelation(name, ...); pass a "
               "RelationSpec instead");
  }
}

// ---- Rule: raw-logging ----------------------------------------------------

void CheckRawLogging(const RuleContext& ctx) {
  // Production sources only: tools, tests and bench are user-facing
  // programs that legitimately print. The logger implementation is the
  // one sanctioned raw writer.
  const bool in_scope =
      ctx.path.rfind("src/", 0) == 0 || PathContains(ctx.path, "/src/");
  if (!in_scope) return;
  if (PathEndsWithAny(ctx.path, {"common/log.h", "common/log.cc"})) return;
  // Whole-token matches only, so std::snprintf / fwrite(file IO) never
  // fire. std::clog is the iostream third sibling; vprintf/vfprintf the
  // stdio variadic forms.
  static const std::vector<std::string> kBanned = {
      "printf",    "fprintf",   "vprintf",   "vfprintf",
      "puts",      "fputs",     "std::cout", "std::cerr",
      "std::clog",
  };
  for (const std::string& needle : kBanned) {
    size_t pos = 0;
    while ((pos = ctx.code.find(needle, pos)) != std::string::npos) {
      size_t start = pos;
      pos += needle.size();
      // Token boundaries: "snprintf" must not match "printf", and
      // "fprintf" must not match inside "vfprintf". A preceding ':' means
      // a qualified name we didn't spell (std::printf is still printf —
      // allow the qualifier itself).
      if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
      if (pos < ctx.code.size() && IsIdentChar(ctx.code[pos])) continue;
      ctx.Report("raw-logging", start,
                 "raw console output ('" + needle +
                     "') in src/; emit structured events through the "
                     "leveled logger (common/log.h), e.g. "
                     "archis::logging::Warn(\"event\").Kv(...)");
    }
  }
}

// ---- Rule: plan-ownership -------------------------------------------------

void CheckPlanOwnership(const RuleContext& ctx) {
  // PhysicalPlan values are produced by the cost-based planner alone
  // (archis/planner.*); any other construction — brace-init or a local
  // declaration — bypasses the cost model and ships an unplanned shape to
  // the executor. References and pointers are fine: the executor consumes
  // plans read-only.
  const bool in_scope =
      ctx.path.rfind("src/", 0) == 0 || PathContains(ctx.path, "/src/");
  if (!in_scope) return;
  if (PathEndsWithAny(ctx.path, {"archis/planner.cc"})) return;
  static const std::string kName = "PhysicalPlan";
  size_t pos = 0;
  while ((pos = ctx.code.find(kName, pos)) != std::string::npos) {
    const size_t start = pos;
    pos += kName.size();
    if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
    if (pos < ctx.code.size() && IsIdentChar(ctx.code[pos])) continue;
    // The type's own definition ("struct PhysicalPlan { ... }").
    size_t before = start;
    while (before > 0 && std::isspace(static_cast<unsigned char>(
                             ctx.code[before - 1]))) {
      --before;
    }
    size_t word = before;
    while (word > 0 && IsIdentChar(ctx.code[word - 1])) --word;
    const std::string prev = ctx.code.substr(word, before - word);
    if (prev == "struct" || prev == "class") continue;
    size_t after = pos;
    while (after < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[after]))) {
      ++after;
    }
    if (after >= ctx.code.size()) break;
    bool constructs = false;
    if (ctx.code[after] == '{') {
      constructs = true;  // PhysicalPlan{...} aggregate construction
    } else if (IsIdentChar(ctx.code[after])) {
      // `PhysicalPlan name;` / `= ...` / `{...}` declares a value; a '('
      // after the identifier is a function declaration returning one.
      size_t ident_end = after;
      while (ident_end < ctx.code.size() && IsIdentChar(ctx.code[ident_end])) {
        ++ident_end;
      }
      size_t tail = ident_end;
      while (tail < ctx.code.size() &&
             std::isspace(static_cast<unsigned char>(ctx.code[tail]))) {
        ++tail;
      }
      if (tail < ctx.code.size() &&
          (ctx.code[tail] == ';' || ctx.code[tail] == '=' ||
           ctx.code[tail] == '{')) {
        constructs = true;
      }
    }
    if (constructs) {
      ctx.Report("plan-ownership", start,
                 "PhysicalPlan constructed outside the planner; obtain one "
                 "from PlanQuery() (archis/planner.h) — the cost-based "
                 "planner is the sole producer of physical plans");
    }
  }
}

// ---- Rule: trace-event-names ----------------------------------------------

void CheckTraceEventNames(const RuleContext& ctx) {
  // (a) Every fr::Record call site must pass a registered EventType
  // enumerator as its first argument — never an integer, a cast or a
  // variable — so the trace vocabulary stays closed by construction and
  // tools (trace_check, Perfetto queries) can rely on the name set.
  static const std::string kCall = "fr::Record(";
  size_t pos = 0;
  while ((pos = ctx.code.find(kCall, pos)) != std::string::npos) {
    const size_t start = pos;
    pos += kCall.size();
    if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
    size_t arg = pos;
    while (arg < ctx.code.size() &&
           std::isspace(static_cast<unsigned char>(ctx.code[arg]))) {
      ++arg;
    }
    static const std::vector<std::string> kAllowed = {
        "fr::EventType::k", "EventType::k", "archis::fr::EventType::k"};
    bool ok = false;
    for (const std::string& prefix : kAllowed) {
      if (ctx.code.compare(arg, prefix.size(), prefix) == 0) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      ctx.Report("trace-event-names", start,
                 "fr::Record's first argument must be a registered "
                 "fr::EventType enumerator (EventType::k...); raw integers "
                 "or variables open the closed trace-event vocabulary");
    }
  }
  // (b) The registered display names themselves must be snake_case
  // literals, so every emitted trace/crashdump name is greppable and
  // tools never see mixed-case event names.
  if (!PathEndsWithAny(ctx.path, {"common/flight_recorder.h"})) return;
  static const std::string kEntry = "X(k";
  pos = 0;
  while ((pos = ctx.code.find(kEntry, pos)) != std::string::npos) {
    const size_t start = pos;
    pos += kEntry.size();
    if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
    size_t open = ctx.code.find('"', start);
    if (open == std::string::npos) break;
    size_t close = ctx.code.find('"', open + 1);
    if (close == std::string::npos) break;
    const std::string name = ctx.code.substr(open + 1, close - open - 1);
    bool snake = !name.empty() && name[0] >= 'a' && name[0] <= 'z';
    for (char c : name) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
        snake = false;
        break;
      }
    }
    if (!snake) {
      ctx.Report("trace-event-names", start,
                 "trace event display name '" + name +
                     "' must be snake_case ([a-z][a-z0-9_]*)");
    }
    pos = close + 1;
  }
}

// Rule: raw-socket. Raw socket(2)-family calls are confined to
// src/server/, the one subsystem whose job is the network. Everything
// else talks through server::ArchisClient / server::ArchisServer, so
// socket lifecycle, timeouts and shutdown semantics have a single home.
void CheckRawSocket(const RuleContext& ctx) {
  if (PathContains(ctx.path, "src/server/")) return;
  static const std::vector<std::string> kBanned = {
      "socket", "accept", "accept4", "getsockname", "setsockopt",
  };
  for (const std::string& needle : kBanned) {
    size_t pos = 0;
    while ((pos = ctx.code.find(needle, pos)) != std::string::npos) {
      const size_t start = pos;
      pos += needle.size();
      if (start > 0 && IsIdentChar(ctx.code[start - 1])) continue;
      if (pos < ctx.code.size() && IsIdentChar(ctx.code[pos])) continue;
      // Only call sites: the token must be followed by '(' (possibly
      // after whitespace), so identifiers like `socket_path` or prose in
      // string literals do not fire.
      size_t call = pos;
      while (call < ctx.code.size() &&
             std::isspace(static_cast<unsigned char>(ctx.code[call]))) {
        ++call;
      }
      if (call >= ctx.code.size() || ctx.code[call] != '(') continue;
      ctx.Report("raw-socket", start,
                 "raw socket call ('" + needle +
                     "') outside src/server/; the network front end owns "
                     "all socket handling — use server::ArchisClient or "
                     "server::ArchisServer instead");
    }
  }
}

}  // namespace

std::string Finding::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

std::string StripComments(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip escaped char
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::vector<Finding> LintSource(const std::string& path,
                                const std::string& contents) {
  std::string normalized = path;
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  // The rule tables below necessarily spell every banned token in string
  // literals, so the checker exempts its own implementation.
  if (PathEndsWithAny(normalized, {"tools/lint/lint.cc"})) return {};
  // Suppressions live in comments, so collect them before stripping.
  const auto suppressed = Suppressions(contents);
  const std::string code = StripComments(contents);
  std::vector<Finding> findings;
  RuleContext ctx{normalized, code, suppressed, &findings};
  CheckForbiddenLiteral(ctx);
  CheckRawInterval(ctx);
  CheckRawMutex(ctx);
  CheckVoidMutator(ctx);
  CheckLockRank(ctx);
  CheckDeprecatedApi(ctx);
  CheckRawLogging(ctx);
  CheckPlanOwnership(ctx);
  CheckTraceEventNames(ctx);
  CheckRawSocket(ctx);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

Result<std::vector<Finding>> LintTree(const std::vector<std::string>& roots) {
  std::vector<Finding> all;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (!fs::exists(root, ec)) {
      return Status::NotFound("lint root '" + root + "' does not exist");
    }
    std::vector<fs::path> files;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      for (fs::recursive_directory_iterator it(root, ec), end;
           it != end && !ec; it.increment(ec)) {
        const fs::path& p = it->path();
        // Never descend into build output or seeded violation fixtures.
        if (it->is_directory()) {
          const std::string name = p.filename().string();
          if (name.rfind("build", 0) == 0 || name == "lint_fixtures") {
            it.disable_recursion_pending();
          }
          continue;
        }
        const std::string ext = p.extension().string();
        if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp") {
          files.push_back(p);
        }
      }
      if (ec) {
        return Status::IOError("walking '" + root + "': " + ec.message());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& p : files) {
      std::ifstream in(p, std::ios::binary);
      if (!in) return Status::IOError("cannot read " + p.generic_string());
      std::ostringstream buf;
      buf << in.rdbuf();
      std::vector<Finding> f = LintSource(p.generic_string(), buf.str());
      all.insert(all.end(), f.begin(), f.end());
    }
  }
  return all;
}

}  // namespace archis::lint
