// archisd front-end tests: wire protocol robustness, admission control
// (shed with kOverloaded, never a silent drop), per-request deadlines,
// graceful shutdown, peer hang-ups, and the HTTP shim.
//
// Tests talk to an in-process ArchisServer on an ephemeral loopback
// port — through server::ArchisClient for happy paths, and through raw
// sockets when the point is to send bytes no well-behaved client would.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "archis/archis.h"
#include "common/instruments.h"
#include "common/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload/employee_workload.h"

namespace archis::server {
namespace {

using core::ArchIS;
using core::ArchISOptions;

constexpr const char* kNamesQuery =
    "for $e in doc(\"employees.xml\")/employees/employee return $e/name";

/// Builds an in-memory store with a small employee history.
std::unique_ptr<ArchIS> MakeDb(int employees = 20, int years = 2) {
  workload::WorkloadConfig config;
  config.initial_employees = employees;
  config.years = years;
  auto db = std::make_unique<ArchIS>(ArchISOptions{}, config.start_date);
  workload::EmployeeWorkload wl(config);
  auto stats = wl.Generate(db.get());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(db->FreezeAll().ok());
  return db;
}

std::unique_ptr<ArchisServer> MustStart(ArchIS* db, ServerOptions opts) {
  auto server = ArchisServer::Start(db, opts);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(*server);
}

ClientOptions ClientFor(const ArchisServer& server) {
  ClientOptions opts;
  opts.port = server.port();
  return opts;
}

/// Polls `done` every millisecond for up to 10 s; true once it holds.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A server gauge from the process-wide registry (created on first use).
const metrics::Gauge& ServerGauge(const std::string& name) {
  return *metrics::Registry::Global().GetGauge(name, "");
}

/// Raw loopback connection for protocol-abuse tests.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

// -- Round trips -------------------------------------------------------------

TEST(ServerTest, PingQueryUpdateRoundtrip) {
  auto db = MakeDb();
  auto server = MustStart(db.get(), ServerOptions{});
  ArchisClient client(ClientFor(*server));

  ASSERT_TRUE(client.Ping().ok());

  auto result = client.Query(kNamesQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->find("<results>"), std::string::npos);
  EXPECT_NE(result->find("<name"), std::string::npos);

  auto ack = client.UpdateBatch(
      "insert employees|777001|Wire Person|50000|Engineer|D1\n"
      "update employees|777001|Wire Person|60000|Engineer|D1\n");
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(*ack, "committed 2");

  auto check = client.Query(
      "for $e in doc(\"employees.xml\")/employees/employee[id=777001] "
      "return $e/salary");
  ASSERT_TRUE(check.ok());
  EXPECT_NE(check->find("60000"), std::string::npos);
}

TEST(ServerTest, UpdateBatchIsNotResentAfterAnIoTimeout) {
  auto db = MakeDb();
  ServerOptions opts;
  opts.workers = 1;
  opts.test_delay_ms = 300;
  auto server = MustStart(db.get(), opts);
  metrics::Counter& updates = metrics::Get(metrics::kServerRequestsUpdate);
  const uint64_t before = updates.value();
  ClientOptions copts = ClientFor(*server);
  copts.io_timeout_ms = 100;
  ArchisClient client(copts);
  // The reply comes after the client gave up: the outcome is unknown to
  // it, so it must not send the batch a second time.
  auto ack = client.UpdateBatch(
      "insert employees|777003|Once Person|1000|Engineer|D1\n");
  EXPECT_EQ(ack.status().code(), StatusCode::kIOError);
  client.Close();
  // Stop drains every admitted request, so a resent batch would count.
  ASSERT_TRUE(server->Stop().ok());
  EXPECT_EQ(updates.value(), before + 1);
}

TEST(ServerTest, UpdateBatchIsAtomic) {
  auto db = MakeDb();
  auto server = MustStart(db.get(), ServerOptions{});
  ArchisClient client(ClientFor(*server));

  // Second line is garbage -> whole batch must roll back.
  auto ack = client.UpdateBatch(
      "insert employees|777002|Half Person|1000|Engineer|D1\n"
      "insert employees|notanumber|X|1|Y|D1\n");
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kInvalidArgument);

  auto check = client.Query(
      "for $e in doc(\"employees.xml\")/employees/employee[id=777002] "
      "return $e/name");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->find("Half"), std::string::npos);
}

TEST(ServerTest, QueryErrorsCarryWireStatus) {
  auto db = MakeDb();
  auto server = MustStart(db.get(), ServerOptions{});
  ArchisClient client(ClientFor(*server));

  auto result = client.Query("for $x in doc(\"nosuch.xml\")/a return $x");
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

// -- Protocol robustness -----------------------------------------------------

TEST(ServerTest, TruncatedLengthPrefixDoesNotWedgeServer) {
  auto db = MakeDb();
  auto server = MustStart(db.get(), ServerOptions{});

  // Two bytes of a four-byte length prefix, then close.
  const int fd = RawConnect(server->port());
  ASSERT_EQ(::send(fd, "\x05\x00", 2, 0), 2);
  ::close(fd);

  // The server must shrug it off and keep serving others.
  ArchisClient client(ClientFor(*server));
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, OversizedFrameRejectedWithoutAllocation) {
  auto db = MakeDb();
  auto server = MustStart(db.get(), ServerOptions{});

  // Claim a 256 MiB payload. The server must answer with an error frame
  // based on the prefix alone — if it tried to read (or allocate) the
  // claimed size, the response could never arrive (we send no payload).
  const int fd = RawConnect(server->port());
  const uint32_t huge = 256u << 20;
  unsigned char header[5] = {
      static_cast<unsigned char>(huge & 0xff),
      static_cast<unsigned char>((huge >> 8) & 0xff),
      static_cast<unsigned char>((huge >> 16) & 0xff),
      static_cast<unsigned char>((huge >> 24) & 0xff),
      static_cast<unsigned char>(FrameType::kQuery)};
  ASSERT_EQ(::send(fd, header, sizeof(header), 0), 5);

  Result<Frame> resp = ReadFrame(fd);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->type, static_cast<uint8_t>(WireStatus::kInvalidArgument));
  EXPECT_NE(resp->payload.find("frame too large"), std::string::npos);
  ::close(fd);

  ArchisClient client(ClientFor(*server));
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, GarbageFrameTypeAnsweredAndClosed) {
  auto db = MakeDb();
  auto server = MustStart(db.get(), ServerOptions{});

  const int fd = RawConnect(server->port());
  // Valid length (3), nonsense type 0xEE, payload "abc".
  ASSERT_EQ(::send(fd, "\x03\x00\x00\x00\xee" "abc", 8, 0), 8);
  Result<Frame> resp = ReadFrame(fd);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->type, static_cast<uint8_t>(WireStatus::kInvalidArgument));
  ::close(fd);

  ArchisClient client(ClientFor(*server));
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, HalfOpenConnectionDoesNotBlockShutdown) {
  auto db = MakeDb();
  auto server = MustStart(db.get(), ServerOptions{});

  // Connect and go silent; also one that stalls mid-frame.
  const int idle = RawConnect(server->port());
  const int stalled = RawConnect(server->port());
  ASSERT_EQ(::send(stalled, "\x09\x00", 2, 0), 2);

  // Other clients still get service.
  ArchisClient client(ClientFor(*server));
  EXPECT_TRUE(client.Ping().ok());

  // Graceful stop must complete promptly despite both zombies.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(server->Stop().ok());
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(secs, 10);
  ::close(idle);
  ::close(stalled);
}

// A peer that pipelines large-result queries and never reads the replies
// fills the socket buffers until its session blocks in send. Other
// sessions keep their service, and Stop() returns once the bounded send
// gives up.
TEST(ServerTest, NonReadingPeerCannotHoldStop) {
  auto db = MakeDb(/*employees=*/120, /*years=*/17);
  auto server = MustStart(db.get(), ServerOptions{});
  // The H-document once per department: natively evaluated, megabytes per
  // reply, so the rest of a blocked reply outweighs anything the read-side
  // shutdown in Stop() releases.
  const std::string big =
      "for $d in doc(\"depts.xml\")/depts/dept "
      "return doc(\"employees.xml\")/employees";
  ArchisClient client(ClientFor(*server));
  Result<std::string> reply = client.Query(big);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_GT(reply->size(), 1u << 20);

  metrics::Counter* queries = metrics::Registry::Global().GetCounter(
      "archis_server_requests_total{type=\"query\"}", "");
  const uint64_t before = queries->value();
  constexpr uint64_t kPipelined = 16;
  const int hog = RawConnect(server->port());
  for (uint64_t i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(WriteFrame(hog, static_cast<uint8_t>(FrameType::kQuery),
                           EncodeQueryPayload(0, big))
                    .ok());
  }
  // The session reads a frame only after writing the previous reply, so
  // once send blocks its request count stalls short of kPipelined with
  // nothing in flight (a query still evaluating would stall it too).
  const metrics::Gauge& in_flight = ServerGauge("archis_server_in_flight");
  uint64_t seen = 0;
  int steady_polls = 0;
  ASSERT_TRUE(WaitFor([&] {
    const uint64_t now = queries->value();
    steady_polls = now == seen && in_flight.value() == 0 ? steady_polls + 1
                                                         : 0;
    seen = now;
    return steady_polls >= 500;
  }));
  ASSERT_LT(seen - before, kPipelined) << "replies never backed up";

  // Other sessions are unaffected.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Query(kNamesQuery).ok());

  // A send that trickles out a few bytes (window probes into the full
  // receive buffer) returns them at its timeout and the next send waits
  // again, until a probe gap outlasts the timeout.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(server->Stop().ok());
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LE(secs, 4 * kSessionSendTimeoutSeconds + 2);
  ::close(hog);
}

// -- Deadlines ---------------------------------------------------------------

TEST(ServerTest, FacadeQueryDeadlineCancelsBeforeExecution) {
  auto db = MakeDb();
  core::QueryOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto result = db->Query(kNamesQuery, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServerTest, ExecutorObservesDeadlineMidPlan) {
  auto db = MakeDb(100, 3);
  auto plan = db->Translate(kNamesQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Tighten the deadline until the executor cancels. The final iteration
  // (deadline already passed) is guaranteed to cancel at the first scan
  // boundary, so the loop always terminates with a kDeadlineExceeded
  // proof; earlier iterations may catch it genuinely mid-scan.
  bool cancelled = false;
  for (int64_t us : {1000, 100, 10, 1, 0, -1000000}) {
    core::PlanStats stats;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    auto result = db->Execute(*plan, &stats, nullptr, deadline);
    if (!result.ok()) {
      ASSERT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
      cancelled = true;
      break;
    }
  }
  EXPECT_TRUE(cancelled);
}

TEST(ServerTest, RequestStaleInQueueAnsweredDeadlineExceeded) {
  auto db = MakeDb();
  ServerOptions opts;
  opts.workers = 1;
  // Every worker sleeps 100 ms before executing, so a 10 ms deadline is
  // deterministically stale by execution time.
  opts.test_delay_ms = 100;
  auto server = MustStart(db.get(), opts);
  ArchisClient client(ClientFor(*server));

  auto result = client.Query(kNamesQuery, /*deadline_ms=*/10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // Without a deadline the same query still succeeds.
  auto fine = client.Query(kNamesQuery);
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
}

/// Observations of `h` above `seconds` (whole buckets past that bound).
uint64_t CountAbove(const metrics::Histogram& h, double seconds) {
  uint64_t n = 0;
  for (size_t i = 1; i <= h.bounds().size(); ++i) {
    if (h.bounds()[i - 1] >= seconds) n += h.bucket_count(i);
  }
  return n;
}

TEST(ServerTest, QueueWaitIsPartOfRequestLatency) {
  // One worker that stalls 50 ms per request: of three queries sent at
  // once, the last is admitted while the first still runs and waits for
  // both others, so its queue_wait exceeds 50 ms — and every request's
  // latency, measured from admission, covers its stall.
  auto db = MakeDb();
  ServerOptions opts;
  opts.workers = 1;
  opts.test_delay_ms = 50;
  auto server = MustStart(db.get(), opts);
  const metrics::Histogram& wait = *metrics::Registry::Global().GetHistogram(
      "archis_stage_seconds{stage=\"queue_wait\"}", "", {});
  const metrics::Histogram& request =
      metrics::Get(metrics::kServerRequestSeconds);
  const uint64_t waits_before = wait.count();
  const uint64_t long_waits_before = CountAbove(wait, 0.05);
  const uint64_t long_requests_before = CountAbove(request, 0.05);

  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&] {
      ArchisClient client(ClientFor(*server));
      auto result = client.Query(kNamesQuery);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(wait.count(), waits_before + 3);
  EXPECT_GE(CountAbove(wait, 0.05), long_waits_before + 1);
  EXPECT_EQ(CountAbove(request, 0.05), long_requests_before + 3);
}

// -- Admission control -------------------------------------------------------

TEST(ServerTest, SaturatedQueueShedsWithOverloadedNotSilence) {
  auto db = MakeDb();
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.test_delay_ms = 150;  // one slow worker + depth-1 queue
  auto server = MustStart(db.get(), opts);

  constexpr int kClients = 6;
  std::atomic<int> ok_count{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      ArchisClient client(ClientFor(*server));
      auto result = client.Query(kNamesQuery);
      if (result.ok()) {
        ok_count.fetch_add(1);
      } else if (result.status().code() == StatusCode::kOverloaded) {
        overloaded.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every request got SOME answer (no silent drops, no hang): the three
  // counters account for all clients. With one worker stalled 150 ms and
  // a queue of one, at most ~2 can be in flight; the rest must shed.
  EXPECT_EQ(ok_count.load() + overloaded.load() + other.load(), kClients);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_GE(ok_count.load(), 1);
}

// -- Graceful shutdown -------------------------------------------------------

TEST(ServerTest, StopDrainsInFlightRequests) {
  auto db = MakeDb();
  ServerOptions opts;
  opts.workers = 1;
  opts.test_delay_ms = 100;
  auto server = MustStart(db.get(), opts);
  const metrics::Gauge& in_flight = ServerGauge("archis_server_in_flight");
  const int64_t idle = in_flight.value();

  // Launch a request that will still be queued when Stop begins.
  std::atomic<bool> got_answer{false};
  std::thread requester([&] {
    ArchisClient client(ClientFor(*server));
    auto result = client.Query(kNamesQuery);
    // Admitted before Stop -> must be drained and succeed.
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    got_answer.store(true);
  });
  // Stop only once the server reports the request admitted.
  ASSERT_TRUE(WaitFor([&] { return in_flight.value() > idle; }));
  EXPECT_TRUE(server->Stop().ok());
  requester.join();
  EXPECT_TRUE(got_answer.load());

  // After Stop the listener is gone: connects fail.
  ArchisClient late(ClientFor(*server));
  EXPECT_FALSE(late.Ping().ok());
}

// -- Peer hang-up -------------------------------------------------------------

// A client that hangs up before its reply is written costs the server that
// connection only: the write fails with EPIPE, and the process survives
// even with SIGPIPE at its default (terminating) disposition.
TEST(ServerTest, PeerHangupBeforeReplyDoesNotKillProcess) {
  auto db = MakeDb();
  ServerOptions opts;
  opts.workers = 1;
  opts.test_delay_ms = 20;
  auto server = MustStart(db.get(), opts);
  struct sigaction dfl {};
  struct sigaction saved {};
  dfl.sa_handler = SIG_DFL;
  ASSERT_EQ(::sigaction(SIGPIPE, &dfl, &saved), 0);

  const metrics::Gauge& conns = ServerGauge("archis_server_connections");
  const int64_t idle = conns.value();
  // Three pipelined queries, then a hang-up before any reply exists. The
  // first reply draws a reset from the closed socket; the next write
  // meets a dead peer.
  const int fd = RawConnect(server->port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(WriteFrame(fd, static_cast<uint8_t>(FrameType::kQuery),
                           EncodeQueryPayload(0, kNamesQuery))
                    .ok());
  }
  ::close(fd);
  ASSERT_TRUE(WaitFor([&] { return conns.value() > idle; }));
  ASSERT_TRUE(WaitFor([&] { return conns.value() == idle; }));

  // Still alive, still serving.
  ArchisClient client(ClientFor(*server));
  EXPECT_TRUE(client.Ping().ok());
  ASSERT_EQ(::sigaction(SIGPIPE, &saved, nullptr), 0);
}

// -- HTTP shim ---------------------------------------------------------------

std::string HttpRequest(int port, const std::string& raw) {
  const int fd = RawConnect(port);
  EXPECT_EQ(::send(fd, raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServerTest, HttpMetricsScrape) {
  auto db = MakeDb();
  ServerOptions opts;
  opts.http_port = 0;
  auto server = MustStart(db.get(), opts);
  ASSERT_GT(server->http_port(), 0);

  const std::string response = HttpRequest(
      server->http_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(response.find("archis_server_requests_total"), std::string::npos);
  EXPECT_NE(response.find("# TYPE"), std::string::npos);
}

TEST(ServerTest, HttpPostQuery) {
  auto db = MakeDb();
  ServerOptions opts;
  opts.http_port = 0;
  auto server = MustStart(db.get(), opts);

  const std::string body = kNamesQuery;
  const std::string response = HttpRequest(
      server->http_port(),
      "POST /query HTTP/1.0\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(response.find("<results>"), std::string::npos);
}

TEST(ServerTest, HttpUnknownRouteIs404) {
  auto db = MakeDb();
  ServerOptions opts;
  opts.http_port = 0;
  auto server = MustStart(db.get(), opts);

  const std::string response =
      HttpRequest(server->http_port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.0 404", 0), 0u);
}

// -- Facade support ----------------------------------------------------------

TEST(ServerTest, KeyColumnsAccessor) {
  auto db = MakeDb();
  auto cols = db->KeyColumns("employees");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols->size(), 1u);
  EXPECT_EQ((*cols)[0], "id");
  EXPECT_FALSE(db->KeyColumns("nonexistent").ok());
}

}  // namespace
}  // namespace archis::server
