#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "archis/archis.h"
#include "common/date.h"
#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/parse.h"
#include "common/thread_annotations.h"
#include "server/protocol.h"
#include "xml/serializer.h"

namespace archis::server {
namespace {

using Clock = std::chrono::steady_clock;

// -- Metrics (DESIGN.md §9 / §15) -------------------------------------------

metrics::Counter* RequestsCounter(const char* type) {
  // One labeled series per request kind; the set is small and fixed.
  static metrics::Counter* ping = metrics::Registry::Global().GetCounter(
      "archis_server_requests_total{type=\"ping\"}",
      "Requests received by archisd, by type");
  static metrics::Counter* query = metrics::Registry::Global().GetCounter(
      "archis_server_requests_total{type=\"query\"}",
      "Requests received by archisd, by type");
  static metrics::Counter* update = metrics::Registry::Global().GetCounter(
      "archis_server_requests_total{type=\"update\"}",
      "Requests received by archisd, by type");
  static metrics::Counter* http_query = metrics::Registry::Global().GetCounter(
      "archis_server_requests_total{type=\"http_query\"}",
      "Requests received by archisd, by type");
  static metrics::Counter* http_metrics =
      metrics::Registry::Global().GetCounter(
          "archis_server_requests_total{type=\"http_metrics\"}",
          "Requests received by archisd, by type");
  if (std::strcmp(type, "ping") == 0) return ping;
  if (std::strcmp(type, "query") == 0) return query;
  if (std::strcmp(type, "update") == 0) return update;
  if (std::strcmp(type, "http_query") == 0) return http_query;
  return http_metrics;
}

metrics::Counter* ShedCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_server_shed_total",
      "Requests shed by admission control (queue full or connection limit)");
  return c;
}

metrics::Counter* DeadlineCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_server_deadline_exceeded_total",
      "Requests answered with DeadlineExceeded (stale in queue or cancelled "
      "mid-execution)");
  return c;
}

metrics::Counter* ProtocolErrorCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_server_protocol_errors_total",
      "Malformed frames received (oversized length prefix, unknown type, "
      "truncated payload)");
  return c;
}

metrics::Counter* ConnectionsTotal() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_server_connections_total", "Connections accepted by archisd");
  return c;
}

metrics::Gauge* ConnectionsGauge() {
  static metrics::Gauge* g = metrics::Registry::Global().GetGauge(
      "archis_server_connections", "Connections currently open");
  return g;
}

metrics::Gauge* QueueDepthGauge() {
  static metrics::Gauge* g = metrics::Registry::Global().GetGauge(
      "archis_server_queue_depth", "Requests admitted and waiting for a worker");
  return g;
}

metrics::Gauge* InFlightGauge() {
  static metrics::Gauge* g = metrics::Registry::Global().GetGauge(
      "archis_server_in_flight", "Requests admitted and not yet answered");
  return g;
}

metrics::Histogram* RequestSeconds() {
  static metrics::Histogram* h = metrics::Registry::Global().GetHistogram(
      "archis_server_request_seconds",
      "End-to-end server request latency (admission to response)",
      metrics::DefaultLatencyBuckets());
  return h;
}

metrics::WindowedHistogram* RequestWindow() {
  static metrics::WindowedHistogram* w = metrics::Registry::Global().GetWindowed(
      "archis_server_request_window",
      "Windowed server request latency (admission to response)",
      metrics::DefaultLatencyBuckets());
  return w;
}

// -- Request queue (the admission valve) ------------------------------------

struct Response {
  WireStatus status = WireStatus::kInternal;
  std::string payload;
};

struct PendingRequest {
  FrameType type = FrameType::kPing;
  std::string body;  ///< XQuery text or update script
  std::optional<Clock::time_point> deadline;
  uint64_t seq = 0;
  const char* kind = "query";
  std::promise<Response> promise;
};

enum class PushOutcome { kAdmitted, kFull, kClosed };

/// Bounded MPMC queue. Push never blocks (admission control answers
/// immediately); Pop blocks until an item arrives or the queue is closed
/// AND drained — so closing lets workers finish every admitted request.
class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity) : capacity_(capacity) {}

  PushOutcome TryPush(std::shared_ptr<PendingRequest> req) {
    {
      MutexLock l(mu_);
      if (closed_) return PushOutcome::kClosed;
      if (items_.size() >= capacity_) return PushOutcome::kFull;
      items_.push_back(std::move(req));
    }
    QueueDepthGauge()->Add(1);
    cv_.NotifyOne();
    return PushOutcome::kAdmitted;
  }

  /// nullptr means closed-and-drained: the worker should exit.
  std::shared_ptr<PendingRequest> Pop() {
    std::shared_ptr<PendingRequest> req;
    {
      MutexLock l(mu_);
      cv_.Wait(mu_, [this]() ARCHIS_REQUIRES(mu_) {
        return closed_ || !items_.empty();
      });
      if (items_.empty()) return nullptr;
      req = std::move(items_.front());
      items_.pop_front();
    }
    QueueDepthGauge()->Add(-1);
    return req;
  }

  void Close() {
    {
      MutexLock l(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

 private:
  Mutex mu_{LockRank::kServerQueue};
  CondVar cv_;
  const size_t capacity_;
  std::deque<std::shared_ptr<PendingRequest>> items_ ARCHIS_GUARDED_BY(mu_);
  bool closed_ ARCHIS_GUARDED_BY(mu_) = false;
};

// -- Socket helpers ----------------------------------------------------------

Result<int> Listen(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address '" + host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st =
        Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) != 0) {
    const Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  return fd;
}

int BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  return ntohs(addr.sin_port);
}

/// Waits until `fd` is readable, polling the stop flag every 200 ms.
/// Returns false when the server is stopping or the connection errored.
bool WaitReadable(int fd, const std::atomic<bool>& stopping) {
  while (!stopping.load(std::memory_order_relaxed)) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, 200);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r > 0) {
      // Readable OR hung up — either way the next read resolves it.
      return true;
    }
  }
  return false;
}

// -- Update-batch scripts ----------------------------------------------------

std::vector<std::string> SplitFields(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

Result<minirel::Value> ParseTypedValue(const std::string& text,
                                       minirel::DataType type) {
  switch (type) {
    case minirel::DataType::kInt64: {
      ARCHIS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      return minirel::Value(v);
    }
    case minirel::DataType::kDouble: {
      ARCHIS_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return minirel::Value(v);
    }
    case minirel::DataType::kString:
      return minirel::Value(text);
    case minirel::DataType::kDate: {
      ARCHIS_ASSIGN_OR_RETURN(Date d, Date::Parse(text));
      return minirel::Value(d);
    }
  }
  return Status::InvalidArgument("unknown column type");
}

/// Applies one update-batch script (see protocol.h for the line grammar)
/// as a single transaction. On success `*applied` holds the number of DML
/// lines committed.
Status ApplyUpdateBatch(core::ArchIS* db, const std::string& script,
                        size_t* applied) {
  ARCHIS_ASSIGN_OR_RETURN(core::Transaction txn, db->Begin());
  size_t count = 0;
  std::istringstream lines(script);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto fail = [&](const std::string& msg) {
      IgnoreStatus(txn.Abort());  // batch is all-or-nothing
      return Status::InvalidArgument("update script line " +
                                     std::to_string(lineno) + ": " + msg);
    };
    const size_t space = line.find(' ');
    if (space == std::string::npos) return fail("missing operand");
    const std::string op = line.substr(0, space);
    const std::string rest = line.substr(space + 1);
    if (op == "advance") {
      Result<Date> d = Date::Parse(rest);
      if (!d.ok()) return fail("bad date: " + d.status().message());
      // The clock is instance-global; open transactions stamp at commit,
      // so advancing mid-batch is well-defined.
      Status st = db->AdvanceClock(*d);
      if (!st.ok()) return fail(st.message());
      continue;
    }
    std::vector<std::string> fields = SplitFields(rest, '|');
    if (fields.empty() || fields[0].empty()) return fail("missing relation");
    const std::string relation = fields[0];
    Result<minirel::Table*> table = db->current_db().catalog().GetTable(relation);
    if (!table.ok()) return fail(table.status().message());
    const minirel::Schema& schema = (*table)->schema();
    Result<std::vector<std::string>> key_cols = db->KeyColumns(relation);
    if (!key_cols.ok()) return fail(key_cols.status().message());

    if (op == "insert" || op == "update") {
      if (fields.size() - 1 != schema.num_columns()) {
        return fail("expected " + std::to_string(schema.num_columns()) +
                    " values for " + relation + ", got " +
                    std::to_string(fields.size() - 1));
      }
      minirel::Tuple row;
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        Result<minirel::Value> v =
            ParseTypedValue(fields[i + 1], schema.column(i).type);
        if (!v.ok()) {
          return fail("column '" + schema.column(i).name +
                      "': " + v.status().message());
        }
        row.Append(std::move(*v));
      }
      Status st;
      if (op == "insert") {
        st = txn.Insert(relation, row);
      } else {
        // Keys are invariant, so the key values live inside the full row.
        std::vector<minirel::Value> key;
        for (const std::string& col : *key_cols) {
          ARCHIS_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
          key.push_back(row.at(idx));
        }
        st = txn.Update(relation, key, row);
      }
      if (!st.ok()) return fail(st.message());
    } else if (op == "delete") {
      if (fields.size() - 1 != key_cols->size()) {
        return fail("expected " + std::to_string(key_cols->size()) +
                    " key values for " + relation);
      }
      std::vector<minirel::Value> key;
      for (size_t i = 0; i < key_cols->size(); ++i) {
        ARCHIS_ASSIGN_OR_RETURN(size_t idx,
                                schema.ColumnIndex((*key_cols)[i]));
        Result<minirel::Value> v =
            ParseTypedValue(fields[i + 1], schema.column(idx).type);
        if (!v.ok()) {
          return fail("key '" + (*key_cols)[i] + "': " + v.status().message());
        }
        key.push_back(std::move(*v));
      }
      Status st = txn.Delete(relation, key);
      if (!st.ok()) return fail(st.message());
    } else {
      return fail("unknown op '" + op + "'");
    }
    ++count;
  }
  ARCHIS_RETURN_NOT_OK(txn.Commit());
  *applied = count;
  return Status::OK();
}

std::string HttpStatusLine(WireStatus s) {
  switch (s) {
    case WireStatus::kOk:               return "200 OK";
    case WireStatus::kInvalidArgument:
    case WireStatus::kParseError:
    case WireStatus::kUnsupported:      return "400 Bad Request";
    case WireStatus::kNotFound:         return "404 Not Found";
    case WireStatus::kOverloaded:
    case WireStatus::kShuttingDown:     return "503 Service Unavailable";
    case WireStatus::kDeadlineExceeded: return "504 Gateway Timeout";
    case WireStatus::kConflict:         return "409 Conflict";
    case WireStatus::kInternal:         return "500 Internal Server Error";
  }
  return "500 Internal Server Error";
}

}  // namespace

// -- Server impl -------------------------------------------------------------

struct ArchisServer::Impl {
  core::ArchIS* db = nullptr;
  ServerOptions opts;
  int listen_fd = -1;
  int http_fd = -1;
  int bound_port = -1;
  int bound_http_port = -1;

  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};
  std::atomic<uint64_t> next_seq{1};
  std::atomic<uint64_t> next_session{1};

  RequestQueue queue;
  std::vector<std::thread> workers;
  std::thread accept_thread;
  std::thread http_accept_thread;

  /// Session registry: live threads by id, plus ids whose thread has
  /// finished and is ready to join (sessions cannot join themselves).
  Mutex mu{LockRank::kServerState};
  std::map<uint64_t, std::thread> sessions ARCHIS_GUARDED_BY(mu);
  std::map<uint64_t, int> session_fds ARCHIS_GUARDED_BY(mu);
  std::vector<uint64_t> finished ARCHIS_GUARDED_BY(mu);

  explicit Impl(ServerOptions o) : opts(o), queue(o.queue_capacity) {}

  // -- Session lifecycle -----------------------------------------------------

  /// Joins session threads that have announced completion. Called from
  /// the accept loops and from Stop; bounds the registry to live
  /// sessions plus a handful of just-finished ones.
  void ReapFinished() {
    std::vector<std::thread> done;
    {
      MutexLock l(mu);
      for (uint64_t id : finished) {
        auto it = sessions.find(id);
        if (it == sessions.end()) continue;
        done.push_back(std::move(it->second));
        sessions.erase(it);
      }
      finished.clear();
    }
    for (std::thread& t : done) t.join();
  }

  size_t LiveSessions() {
    MutexLock l(mu);
    return sessions.size();
  }

  void SpawnSession(int fd, bool http) {
    const uint64_t id = next_session.fetch_add(1, std::memory_order_relaxed);
    ConnectionsTotal()->Inc();
    ConnectionsGauge()->Add(1);
    MutexLock l(mu);
    session_fds[id] = fd;
    sessions[id] = std::thread([this, id, fd, http] {
      if (http) {
        HttpSession(fd);
      } else {
        BinarySession(fd);
      }
      ::close(fd);
      ConnectionsGauge()->Add(-1);
      MutexLock inner(mu);
      session_fds.erase(id);
      finished.push_back(id);
    });
  }

  // -- Request processing ----------------------------------------------------

  /// Admits one query/update request and waits for its response. All
  /// admission-control outcomes are explicit responses — a shed request
  /// is answered kOverloaded, never dropped.
  Response Submit(FrameType type, std::string body,
                  std::optional<Clock::time_point> deadline, const char* kind) {
    if (stopping.load(std::memory_order_relaxed)) {
      return {WireStatus::kShuttingDown, "server is shutting down"};
    }
    auto req = std::make_shared<PendingRequest>();
    req->type = type;
    req->body = std::move(body);
    req->deadline = deadline;
    req->seq = next_seq.fetch_add(1, std::memory_order_relaxed);
    req->kind = kind;
    std::future<Response> future = req->promise.get_future();
    switch (queue.TryPush(req)) {
      case PushOutcome::kAdmitted:
        break;
      case PushOutcome::kFull:
        ShedCounter()->Inc();
        return {WireStatus::kOverloaded,
                "admission queue full (capacity " +
                    std::to_string(opts.queue_capacity) + "); retry later"};
      case PushOutcome::kClosed:
        return {WireStatus::kShuttingDown, "server is shutting down"};
    }
    // The worker pool always resolves admitted requests, including during
    // shutdown (Stop closes the queue, then workers drain it).
    InFlightGauge()->Add(1);
    Response resp = future.get();
    InFlightGauge()->Add(-1);
    return resp;
  }

  std::optional<Clock::time_point> DeadlineFor(uint32_t request_ms) {
    const uint32_t ms =
        request_ms > 0 ? request_ms : opts.default_deadline_ms;
    if (ms == 0) return std::nullopt;
    return Clock::now() + std::chrono::milliseconds(ms);
  }

  void WorkerLoop() {
    while (std::shared_ptr<PendingRequest> req = queue.Pop()) {
      if (opts.test_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.test_delay_ms));
      }
      const auto start = Clock::now();
      fr::Record(fr::EventType::kRequestBegin, req->seq, 0, 0, req->kind);
      Response resp = ExecuteRequest(*req);
      const auto dur = Clock::now() - start;
      const double secs =
          std::chrono::duration_cast<std::chrono::duration<double>>(dur)
              .count();
      RequestSeconds()->Observe(secs);
      RequestWindow()->Observe(secs);
      if (resp.status == WireStatus::kDeadlineExceeded) {
        DeadlineCounter()->Inc();
      }
      fr::Record(
          fr::EventType::kRequestEnd, req->seq,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(dur)
                  .count()),
          static_cast<uint32_t>(resp.status), req->kind);
      req->promise.set_value(std::move(resp));
    }
  }

  Response ExecuteRequest(const PendingRequest& req) {
    // A request can go stale while queued; answer without executing.
    if (req.deadline.has_value() && Clock::now() >= *req.deadline) {
      return {WireStatus::kDeadlineExceeded,
              "deadline expired while queued for a worker"};
    }
    if (req.type == FrameType::kQuery) {
      core::QueryOptions qopts;
      qopts.deadline = req.deadline;
      Result<core::QueryResult> result = db->Query(req.body, qopts);
      if (!result.ok()) {
        return {WireStatusOf(result.status().code()),
                result.status().message()};
      }
      return {WireStatus::kOk, xml::Serialize(result->xml)};
    }
    size_t applied = 0;
    Status st = ApplyUpdateBatch(db, req.body, &applied);
    if (!st.ok()) return {WireStatusOf(st.code()), st.message()};
    return {WireStatus::kOk, "committed " + std::to_string(applied)};
  }

  // -- Binary protocol session -----------------------------------------------

  void BinarySession(int fd) {
    while (WaitReadable(fd, stopping)) {
      Result<Frame> frame = ReadFrame(fd);
      if (!frame.ok()) {
        if (frame.status().code() == StatusCode::kInvalidArgument) {
          // Oversized length prefix: tell the peer, then drop the
          // connection — the stream is unrecoverable past a bad prefix.
          ProtocolErrorCounter()->Inc();
          IgnoreStatus(
              WriteFrame(fd, static_cast<uint8_t>(WireStatus::kInvalidArgument),
                         frame.status().message()));
        } else if (frame.status().code() != StatusCode::kAborted) {
          ProtocolErrorCounter()->Inc();
        }
        return;
      }
      Response resp;
      switch (static_cast<FrameType>(frame->type)) {
        case FrameType::kPing:
          RequestsCounter("ping")->Inc();
          resp = {WireStatus::kOk, "pong"};
          break;
        case FrameType::kQuery: {
          RequestsCounter("query")->Inc();
          Result<std::pair<uint32_t, std::string>> q =
              DecodeQueryPayload(frame->payload);
          if (!q.ok()) {
            ProtocolErrorCounter()->Inc();
            resp = {WireStatus::kInvalidArgument, q.status().message()};
            break;
          }
          resp = Submit(FrameType::kQuery, std::move(q->second),
                        DeadlineFor(q->first), "query");
          break;
        }
        case FrameType::kUpdateBatch:
          RequestsCounter("update")->Inc();
          resp = Submit(FrameType::kUpdateBatch, std::move(frame->payload),
                        DeadlineFor(0), "update");
          break;
        default:
          // Garbage type byte: the stream is desynchronized; answer and
          // close rather than guessing at framing.
          ProtocolErrorCounter()->Inc();
          IgnoreStatus(WriteFrame(
              fd, static_cast<uint8_t>(WireStatus::kInvalidArgument),
              "unknown frame type " + std::to_string(frame->type)));
          return;
      }
      if (!WriteFrame(fd, static_cast<uint8_t>(resp.status), resp.payload)
               .ok()) {
        return;  // peer went away; response is undeliverable
      }
    }
  }

  // -- HTTP/1.0 shim ---------------------------------------------------------

  void HttpSession(int fd) {
    // Read the request head (cap 64 KiB), then the body per
    // Content-Length (cap kMaxFrameBytes).
    std::string buf;
    size_t head_end = std::string::npos;
    while (head_end == std::string::npos) {
      if (buf.size() > 64 * 1024 || !WaitReadable(fd, stopping)) return;
      char chunk[4096];
      const ssize_t r = ::read(fd, chunk, sizeof(chunk));
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        return;
      }
      buf.append(chunk, static_cast<size_t>(r));
      head_end = buf.find("\r\n\r\n");
    }
    const std::string head = buf.substr(0, head_end);
    std::string body = buf.substr(head_end + 4);

    std::istringstream head_stream(head);
    std::string method, path, version;
    head_stream >> method >> path >> version;

    size_t content_length = 0;
    std::string line;
    std::getline(head_stream, line);  // rest of the request line
    while (std::getline(head_stream, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      if (name == "content-length") {
        std::string value = line.substr(colon + 1);
        const size_t ws = value.find_first_not_of(" \t");
        value = ws == std::string::npos ? "" : value.substr(ws);
        Result<int64_t> n = ParseInt64(value);
        if (!n.ok()) {
          WriteHttp(fd, WireStatus::kInvalidArgument,
                    "bad Content-Length: " + n.status().message());
          return;
        }
        if (*n < 0 || static_cast<uint64_t>(*n) > kMaxFrameBytes) {
          WriteHttp(fd, WireStatus::kInvalidArgument, "bad Content-Length");
          return;
        }
        content_length = static_cast<size_t>(*n);
      }
    }
    while (body.size() < content_length) {
      if (!WaitReadable(fd, stopping)) return;
      char chunk[4096];
      const ssize_t r = ::read(fd, chunk, sizeof(chunk));
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        return;
      }
      body.append(chunk, static_cast<size_t>(r));
    }

    if (method == "GET" && path == "/metrics") {
      RequestsCounter("http_metrics")->Inc();
      WriteHttp(fd, WireStatus::kOk, core::ArchIS::DumpMetrics());
      return;
    }
    if (method == "POST" && path == "/query") {
      RequestsCounter("http_query")->Inc();
      Response resp =
          Submit(FrameType::kQuery, std::move(body), DeadlineFor(0), "query");
      WriteHttp(fd, resp.status, resp.payload);
      return;
    }
    WriteHttp(fd, WireStatus::kNotFound,
              "no route for " + method + " " + path);
  }

  void WriteHttp(int fd, WireStatus status, const std::string& body) {
    const char* content_type =
        status == WireStatus::kOk ? "text/plain; version=0.0.4" : "text/plain";
    std::string resp = "HTTP/1.0 " + std::string(HttpStatusLine(status)) +
                       "\r\nContent-Type: " + content_type +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n";
    if (status == WireStatus::kOverloaded) resp += "Retry-After: 1\r\n";
    resp += "\r\n";
    resp += body;
    // Best effort: an HTTP client that vanished mid-response is its own
    // problem.
    IgnoreStatus(WriteFull(fd, resp.data(), resp.size()));
  }

  // -- Accept loops ----------------------------------------------------------

  void AcceptLoop(int lfd, bool http) {
    while (!stopping.load(std::memory_order_relaxed)) {
      pollfd p{};
      p.fd = lfd;
      p.events = POLLIN;
      const int r = ::poll(&p, 1, 200);
      if (r < 0 && errno != EINTR) break;
      if (r <= 0) {
        ReapFinished();
        continue;
      }
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // listener closed (shutdown) or fatal
      }
      if (stopping.load(std::memory_order_relaxed)) {
        ::close(fd);
        break;
      }
      if (LiveSessions() >= opts.max_connections) {
        // Connection-level admission control: answer, count, close.
        ShedCounter()->Inc();
        if (http) {
          WriteHttp(fd, WireStatus::kOverloaded, "too many connections");
        } else {
          IgnoreStatus(WriteFrame(fd,
                                  static_cast<uint8_t>(WireStatus::kOverloaded),
                                  "too many connections; retry later"));
        }
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      SpawnSession(fd, http);
      ReapFinished();
    }
  }

  // -- Shutdown --------------------------------------------------------------

  void StopAll() {
    if (stopped.exchange(true)) return;
    stopping.store(true, std::memory_order_relaxed);
    // 1. Stop accepting: close the listeners; the accept loops' poll sees
    //    the close (or the 200 ms tick sees the flag) and exits.
    if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
    if (http_fd >= 0) ::shutdown(http_fd, SHUT_RDWR);
    if (accept_thread.joinable()) accept_thread.join();
    if (http_accept_thread.joinable()) http_accept_thread.join();
    if (listen_fd >= 0) ::close(listen_fd);
    if (http_fd >= 0) ::close(http_fd);
    listen_fd = http_fd = -1;
    // 2. Close the queue: new submissions answer kShuttingDown; workers
    //    drain everything already admitted, then exit. Every admitted
    //    request's promise is resolved before any worker exits.
    queue.Close();
    for (std::thread& w : workers) w.join();
    workers.clear();
    // 3. Unblock sessions parked in poll/read and join them. Only the read
    //    side is shut: a session whose response was resolved in step 2
    //    may not have written it yet, and must still be able to.
    {
      MutexLock l(mu);
      for (const auto& [id, fd] : session_fds) ::shutdown(fd, SHUT_RD);
    }
    std::map<uint64_t, std::thread> remaining;
    {
      MutexLock l(mu);
      remaining.swap(sessions);
      finished.clear();
    }
    for (auto& [id, t] : remaining) t.join();
    logging::Info("server.stopped")
        .Kv("port", bound_port)
        .Kv("http_port", bound_http_port);
  }
};

ArchisServer::ArchisServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ArchisServer::~ArchisServer() { impl_->StopAll(); }

Status ArchisServer::Stop() {
  impl_->StopAll();
  return Status::OK();
}

int ArchisServer::port() const { return impl_->bound_port; }
int ArchisServer::http_port() const { return impl_->bound_http_port; }

Result<std::unique_ptr<ArchisServer>> ArchisServer::Start(
    core::ArchIS* db, ServerOptions options) {
  if (db == nullptr) {
    return Status::InvalidArgument("ArchisServer needs an ArchIS instance");
  }
  if (options.workers <= 0) {
    return Status::InvalidArgument("workers must be positive");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be positive");
  }
  auto impl = std::make_unique<ArchisServer::Impl>(options);
  impl->db = db;
  ARCHIS_ASSIGN_OR_RETURN(impl->listen_fd,
                          Listen(options.host, options.port));
  impl->bound_port = BoundPort(impl->listen_fd);
  if (options.http_port >= 0) {
    Result<int> http = Listen(options.host, options.http_port);
    if (!http.ok()) {
      ::close(impl->listen_fd);
      return http.status();
    }
    impl->http_fd = *http;
    impl->bound_http_port = BoundPort(impl->http_fd);
  }
  for (int i = 0; i < options.workers; ++i) {
    impl->workers.emplace_back([p = impl.get()] { p->WorkerLoop(); });
  }
  impl->accept_thread =
      std::thread([p = impl.get()] { p->AcceptLoop(p->listen_fd, false); });
  if (impl->http_fd >= 0) {
    impl->http_accept_thread =
        std::thread([p = impl.get()] { p->AcceptLoop(p->http_fd, true); });
  }
  logging::Info("server.started")
      .Kv("port", impl->bound_port)
      .Kv("http_port", impl->bound_http_port)
      .Kv("workers", options.workers)
      .Kv("queue_capacity", static_cast<uint64_t>(options.queue_capacity));
  return std::unique_ptr<ArchisServer>(new ArchisServer(std::move(impl)));
}

}  // namespace archis::server
