// The warm annotation service, end to end: frame decoding over hostile
// byte streams, request/response wire round trips, and a live server on
// a Unix socket -- ping, bit-identical annotation, admission-control
// shedding, graceful drain, metrics, and protocol-error answers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spice/parser.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"

namespace gana {
namespace {

const char* kTinyNetlist =
    "test circuit\n"
    "m1 out in vdd vdd pmos w=2u l=0.1u\n"
    "m2 out in 0 0 nmos w=1u l=0.1u\n"
    ".end\n";

// --- Framing -----------------------------------------------------------

std::string frame_bytes(std::string_view payload) {
  const auto f = serve::encode_frame(payload);
  EXPECT_TRUE(f.has_value());
  return f.value_or("");
}

TEST(FrameDecoder, SplitsMultipleFramesFromOneFeed) {
  serve::FrameDecoder dec;
  ASSERT_TRUE(dec.feed(frame_bytes("alpha") + frame_bytes("") +
                       frame_bytes("gamma")));
  EXPECT_EQ(dec.next().value_or("?"), "alpha");
  EXPECT_EQ(dec.next().value_or("?"), "");
  EXPECT_EQ(dec.next().value_or("?"), "gamma");
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.error());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoder, ReassemblesByteByByteFeeds) {
  const std::string wire = frame_bytes("payload one") + frame_bytes("two");
  serve::FrameDecoder dec;
  std::vector<std::string> out;
  for (const char c : wire) {
    ASSERT_TRUE(dec.feed(&c, 1));
    while (auto p = dec.next()) out.push_back(*p);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "payload one");
  EXPECT_EQ(out[1], "two");
}

TEST(FrameDecoder, OversizedLengthPrefixLatchesError) {
  serve::FrameDecoder dec(1024);
  const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};  // ~4 GiB claim
  EXPECT_TRUE(dec.feed(huge, sizeof(huge)));  // bytes accepted, then latched
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.error());
  // Latched: further feeds are refused, no recovery.
  EXPECT_FALSE(dec.feed(frame_bytes("fine")));
  EXPECT_FALSE(dec.next().has_value());
}

TEST(FrameDecoder, TruncatedFrameStaysPendingWithoutError) {
  serve::FrameDecoder dec;
  const std::string wire = frame_bytes("cut off");
  ASSERT_TRUE(dec.feed(wire.substr(0, wire.size() - 3)));
  EXPECT_FALSE(dec.next().has_value());  // incomplete != error
  EXPECT_FALSE(dec.error());
  ASSERT_TRUE(dec.feed(wire.substr(wire.size() - 3)));
  EXPECT_EQ(dec.next().value_or("?"), "cut off");
}

TEST(FrameDecoder, EncodeRejectsOversizedPayload) {
  const std::string big(2048, 'x');
  EXPECT_FALSE(serve::encode_frame(big, 1024).has_value());
  EXPECT_TRUE(serve::encode_frame(big, 4096).has_value());
}

// --- Payload codecs ----------------------------------------------------

TEST(Protocol, RequestRoundTripsAllFields) {
  serve::Request r;
  r.id = 987654321;
  r.kind = serve::RequestKind::Annotate;
  r.name = "ota \"quoted\"";
  r.netlist = kTinyNetlist;
  r.timeout_seconds = 2.5;
  const auto back = serve::decode_request(serve::encode_request(r));
  ASSERT_TRUE(back.ok()) << back.diag().message;
  EXPECT_EQ(back.value().id, r.id);
  EXPECT_EQ(back.value().kind, r.kind);
  EXPECT_EQ(back.value().name, r.name);
  EXPECT_EQ(back.value().netlist, r.netlist);
  EXPECT_DOUBLE_EQ(back.value().timeout_seconds, r.timeout_seconds);
}

TEST(Protocol, ReannotateRequestRoundTripsSession) {
  serve::Request r;
  r.id = 42;
  r.kind = serve::RequestKind::Reannotate;
  r.session = "design/ota-v2";
  r.name = "ota";
  r.netlist = kTinyNetlist;
  const auto back = serve::decode_request(serve::encode_request(r));
  ASSERT_TRUE(back.ok()) << back.diag().message;
  EXPECT_EQ(back.value().kind, serve::RequestKind::Reannotate);
  EXPECT_EQ(back.value().session, r.session);
  EXPECT_EQ(back.value().name, r.name);
  EXPECT_EQ(back.value().netlist, r.netlist);
}

TEST(Protocol, ResponseRoundTripsPayloadAndDiag) {
  serve::Response ok;
  ok.id = 7;
  ok.ok = true;
  ok.payload = R"({"nested":"json","n":[1,2,3]})";
  const auto ok_back = serve::decode_response(serve::encode_response(ok));
  ASSERT_TRUE(ok_back.ok());
  EXPECT_TRUE(ok_back.value().ok);
  EXPECT_EQ(ok_back.value().payload, ok.payload);  // byte-exact
  EXPECT_FALSE(ok_back.value().diag.has_value());

  serve::Response bad;
  bad.id = 8;
  bad.ok = false;
  bad.diag = make_diag(DiagCode::Overloaded, Stage::Serve, "shed");
  const auto bad_back = serve::decode_response(serve::encode_response(bad));
  ASSERT_TRUE(bad_back.ok());
  ASSERT_TRUE(bad_back.value().diag.has_value());
  EXPECT_EQ(bad_back.value().diag->code, DiagCode::Overloaded);
}

TEST(Protocol, MalformedRequestsYieldStructuredDiags) {
  for (const char* payload : {
           "not json at all",
           "[]",                               // wrong shape
           R"({"kind":"annotate"})",           // missing id
           R"({"id":1,"kind":"teleport"})",    // unknown kind
           R"({"id":1,"kind":"annotate"})",    // annotate without netlist
           R"({"id":1,"kind":"reannotate","netlist":"x"})",  // no session
           R"({"id":1,"kind":"reannotate","session":"",)"
           R"("netlist":"x"})",                // empty session id
           R"({"id":1,"kind":"reannotate","session":"s"})",  // no netlist
           R"({"id":-4,"kind":"ping"})",       // negative id
           R"({"id":1,"kind":"ping","timeout_seconds":-1})",
       }) {
    const auto r = serve::decode_request(payload);
    ASSERT_FALSE(r.ok()) << payload;
    EXPECT_EQ(r.diag().stage, Stage::Serve) << payload;
  }
}

// --- Live server -------------------------------------------------------

std::string unique_socket_path(const char* tag) {
  return "/tmp/gana_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm(); }

  /// Starts a server over a fresh Annotator; test-scoped socket path.
  std::unique_ptr<serve::Server> start_server(const char* tag,
                                              serve::ServerConfig config) {
    annotator_ = std::make_unique<core::Annotator>(
        nullptr, std::vector<std::string>{"ota", "bias"});
    config.socket_path = unique_socket_path(tag);
    auto server = std::make_unique<serve::Server>(*annotator_, config);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
    return server;
  }

  serve::Client make_client(const serve::Server& server,
                            double timeout_seconds = 10.0) {
    serve::ClientOptions opt;
    opt.socket_path = server.config().socket_path;
    opt.timeout_seconds = timeout_seconds;
    return serve::Client(opt);
  }

  std::unique_ptr<core::Annotator> annotator_;
};

TEST_F(ServeTest, PingAndMetricsAnswer) {
  serve::ServerConfig config;
  config.jobs = 2;
  auto server = start_server("ping", config);
  auto client = make_client(*server);
  EXPECT_TRUE(client.ping());
  const auto metrics = client.metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.diag().message;
  const auto parsed = json::parse(metrics.value());
  ASSERT_TRUE(parsed.has_value()) << metrics.value();
  EXPECT_TRUE(parsed->get("wall_seconds") != nullptr);
  server->stop();
  EXPECT_FALSE(server->running());
}

TEST_F(ServeTest, MetricsSumStageSeconds) {
  // The metrics name the stage seconds a --perf-json record carries, so
  // they sum each successful annotate's and reannotate's stage timings.
  serve::ServerConfig config;
  config.jobs = 2;
  auto server = start_server("stages", config);
  auto client = make_client(*server);
  for (int i = 0; i < 3; ++i) {
    const auto r = client.annotate("tiny", kTinyNetlist);
    ASSERT_TRUE(r.ok()) << r.diag().message;
  }
  const auto again = client.reannotate("s", "tiny", kTinyNetlist);
  ASSERT_TRUE(again.ok()) << again.diag().message;
  const auto metrics = client.metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.diag().message;
  const auto parsed = json::parse(metrics.value());
  ASSERT_TRUE(parsed.has_value()) << metrics.value();
  for (const char* key : {"prepare_seconds", "prepare_wall_seconds"}) {
    const json::Value* v = parsed->get(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_GT(v->as_double(), 0.0) << key;
  }
  server->stop();
}

TEST_F(ServeTest, AnnotationIsBitIdenticalToLocalPipeline) {
  serve::ServerConfig config;
  config.jobs = 2;
  auto server = start_server("bits", config);

  // Local reference bytes through the same Annotator configuration.
  auto parsed = spice::parse_netlist_result(kTinyNetlist);
  ASSERT_TRUE(parsed.ok());
  const core::Annotator local(nullptr, {"ota", "bias"});
  auto expected = local.try_annotate(parsed.value(), "tiny");
  ASSERT_TRUE(expected.ok());
  const std::string expected_json =
      core::annotation_to_json(expected.value(), {"ota", "bias"});

  auto client = make_client(*server);
  const auto remote = client.annotate("tiny", kTinyNetlist);
  ASSERT_TRUE(remote.ok()) << remote.diag().message;
  EXPECT_EQ(remote.value(), expected_json);

  // Warm path: a second identical request hits the caches and must not
  // drift.
  const auto again = client.annotate("tiny", kTinyNetlist);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), expected_json);

  server->stop();
  const auto stats = server->stats();
  EXPECT_EQ(stats.annotated_ok, 2u);
  EXPECT_EQ(stats.annotate_failed, 0u);
}

TEST_F(ServeTest, ReannotationMatchesColdAnnotateBytes) {
  serve::ServerConfig config;
  config.jobs = 2;
  auto server = start_server("reann", config);
  auto client = make_client(*server);

  // Revision 2 of the same design: a value-only edit (m1 resized).
  const char* kEditedNetlist =
      "test circuit\n"
      "m1 out in vdd vdd pmos w=4u l=0.1u\n"
      "m2 out in 0 0 nmos w=1u l=0.1u\n"
      ".end\n";

  // Revision 1 through the session must answer with exactly the bytes
  // the plain annotate path produces for the same netlist.
  const auto cold0 = client.annotate("tiny", kTinyNetlist);
  ASSERT_TRUE(cold0.ok()) << cold0.diag().message;
  const auto warm0 = client.reannotate("design", "tiny", kTinyNetlist);
  ASSERT_TRUE(warm0.ok()) << warm0.diag().message;
  EXPECT_EQ(warm0.value(), cold0.value());

  // Revision 2 reuses the session's baseline server-side; the bytes
  // must still equal a cold annotate of the edited netlist.
  const auto cold1 = client.annotate("tiny", kEditedNetlist);
  ASSERT_TRUE(cold1.ok()) << cold1.diag().message;
  const auto warm1 = client.reannotate("design", "tiny", kEditedNetlist);
  ASSERT_TRUE(warm1.ok()) << warm1.diag().message;
  EXPECT_EQ(warm1.value(), cold1.value());

  server->stop();
  const auto stats = server->stats();
  EXPECT_EQ(stats.sessions_created, 1u);
  EXPECT_EQ(stats.active_sessions, 1u);
  EXPECT_EQ(stats.sessions_shed, 0u);
  EXPECT_EQ(stats.annotated_ok, 4u);
}

TEST_F(ServeTest, SessionsAreShedFifoAtTheBound) {
  serve::ServerConfig config;
  config.jobs = 1;
  config.max_sessions = 2;
  auto server = start_server("sessfifo", config);
  auto client = make_client(*server);

  ASSERT_TRUE(client.reannotate("a", "tiny", kTinyNetlist).ok());
  ASSERT_TRUE(client.reannotate("b", "tiny", kTinyNetlist).ok());
  EXPECT_EQ(server->stats().active_sessions, 2u);
  EXPECT_EQ(server->stats().sessions_shed, 0u);

  // A third session sheds the oldest-created ("a"), not the map's limit.
  ASSERT_TRUE(client.reannotate("c", "tiny", kTinyNetlist).ok());
  EXPECT_EQ(server->stats().active_sessions, 2u);
  EXPECT_EQ(server->stats().sessions_shed, 1u);

  // A shed id transparently restarts cold -- recreating "a" sheds the
  // now-oldest "b" and still answers correct bytes.
  const auto cold = client.annotate("tiny", kTinyNetlist);
  ASSERT_TRUE(cold.ok()) << cold.diag().message;
  const auto again = client.reannotate("a", "tiny", kTinyNetlist);
  ASSERT_TRUE(again.ok()) << again.diag().message;
  EXPECT_EQ(again.value(), cold.value());

  server->stop();
  const auto stats = server->stats();
  EXPECT_EQ(stats.sessions_created, 4u);
  EXPECT_EQ(stats.sessions_shed, 2u);
  EXPECT_EQ(stats.active_sessions, 2u);
}

TEST_F(ServeTest, BadNetlistComesBackAsStructuredDiag) {
  serve::ServerConfig config;
  config.jobs = 1;
  auto server = start_server("badnet", config);
  auto client = make_client(*server);
  // Title line first: a device card on line 1 would parse as the title.
  const auto r =
      client.annotate("broken", "broken\nm1 only three nodes\n.end\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().stage, Stage::Parse);
  server->stop();
  EXPECT_EQ(server->stats().annotate_failed, 1u);
}

TEST_F(ServeTest, ExpiredDeadlineComesBackAsDeadlineExceeded) {
  serve::ServerConfig config;
  config.jobs = 1;
  auto server = start_server("deadline", config);
  auto client = make_client(*server);
  serve::Request r;
  r.kind = serve::RequestKind::Annotate;
  r.name = "tiny";
  r.netlist = kTinyNetlist;
  r.timeout_seconds = 1e-9;  // expires before the first checkpoint
  const auto result = client.call(r);
  ASSERT_TRUE(result.ok()) << result.diag().message;
  ASSERT_FALSE(result.value().ok);
  ASSERT_TRUE(result.value().diag.has_value());
  EXPECT_EQ(result.value().diag->code, DiagCode::DeadlineExceeded);
  server->stop();
  EXPECT_EQ(server->stats().deadline_expired, 1u);
}

TEST_F(ServeTest, AdmissionControlShedsBeyondMaxInflight) {
  serve::ServerConfig config;
  config.jobs = 1;
  config.max_inflight = 1;
  auto server = start_server("shed", config);

  // Hold the one admitted slot with an injected 300ms stall on every
  // stage entry, keyed to request id 1.
  FaultPlan plan;  // no faults by default
  FaultPlan stall;
  stall.stage_delay = 1.0;
  stall.delay_seconds = 0.3;
  auto& injector = FaultInjector::instance();
  injector.arm(7, plan);
  injector.set_stage_plan(Stage::Parse, stall);

  std::atomic<bool> slow_done{false};
  std::thread slow([&] {
    auto client = make_client(*server);
    serve::Request r;
    r.id = 1;
    r.kind = serve::RequestKind::Annotate;
    r.name = "slow";
    r.netlist = kTinyNetlist;
    const auto result = client.call(r);
    EXPECT_TRUE(result.ok());
    slow_done.store(true);
  });

  // Give the slow request time to be admitted, then probe: the probe
  // must be shed immediately (retries disabled to observe the shed).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  serve::ClientOptions probe_opt;
  probe_opt.socket_path = server->config().socket_path;
  probe_opt.timeout_seconds = 5.0;
  probe_opt.max_retries = 0;
  serve::Client probe(probe_opt);
  serve::Request r;
  r.id = 2;
  r.kind = serve::RequestKind::Annotate;
  r.name = "probe";
  r.netlist = kTinyNetlist;
  const auto shed = probe.call(r);
  ASSERT_TRUE(shed.ok()) << shed.diag().message;
  ASSERT_FALSE(shed.value().ok);
  ASSERT_TRUE(shed.value().diag.has_value());
  EXPECT_EQ(shed.value().diag->code, DiagCode::Overloaded);

  // Ping still answers while the pool is saturated (inline on reader).
  EXPECT_TRUE(probe.ping());

  slow.join();
  EXPECT_TRUE(slow_done.load());
  injector.disarm();

  // With the slot free and retries enabled, the same request succeeds.
  auto retrying = make_client(*server);
  const auto after = retrying.annotate("probe", kTinyNetlist);
  EXPECT_TRUE(after.ok()) << after.diag().message;

  server->stop();
  EXPECT_GE(server->stats().overloaded, 1u);
}

TEST_F(ServeTest, GracefulDrainDeliversInFlightResponse) {
  serve::ServerConfig config;
  config.jobs = 1;
  auto server = start_server("drain", config);

  FaultPlan plan;
  FaultPlan stall;
  stall.stage_delay = 1.0;
  stall.delay_seconds = 0.2;
  auto& injector = FaultInjector::instance();
  injector.arm(7, plan);
  injector.set_stage_plan(Stage::Parse, stall);

  std::atomic<bool> got_response{false};
  std::thread inflight([&] {
    auto client = make_client(*server);
    serve::Request r;
    r.id = 1;
    r.kind = serve::RequestKind::Annotate;
    r.name = "inflight";
    r.netlist = kTinyNetlist;
    const auto result = client.call(r);
    got_response.store(result.ok() && result.value().ok);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server->request_shutdown();  // the SIGTERM path
  server->stop();              // drain-and-join
  inflight.join();
  EXPECT_TRUE(got_response.load())
      << "drain must deliver admitted responses before closing";
}

TEST_F(ServeTest, ShutdownRequestDrainsTheServer) {
  serve::ServerConfig config;
  config.jobs = 1;
  auto server = start_server("shutreq", config);
  auto client = make_client(*server);
  EXPECT_TRUE(client.shutdown_server());
  server->wait();  // returns once the drain completes
  EXPECT_FALSE(server->running());
}

TEST_F(ServeTest, UndecodablePayloadIsAnsweredNotDropped) {
  serve::ServerConfig config;
  config.jobs = 1;
  auto server = start_server("proto", config);

  // The Client cannot emit a malformed payload, so speak the framing
  // layer directly: a well-framed frame holding garbage JSON must be
  // *answered* (id=0, Serve-stage diag), not dropped -- only framing
  // violations cost the connection.
  const std::string path = server->config().socket_path;
  struct RawConn {
    int fd;
    explicit RawConn(const std::string& p) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
      EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)),
                0);
    }
    ~RawConn() { ::close(fd); }
  } conn(path);

  const std::string garbage = frame_bytes("this is not json");
  ASSERT_EQ(::send(conn.fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  serve::FrameDecoder dec;
  char buf[4096];
  std::optional<std::string> payload;
  for (int i = 0; i < 100 && !payload.has_value(); ++i) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "server dropped the connection instead of answering";
    dec.feed(buf, static_cast<std::size_t>(n));
    payload = dec.next();
  }
  ASSERT_TRUE(payload.has_value());
  const auto response = serve::decode_response(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().ok);
  ASSERT_TRUE(response.value().diag.has_value());
  EXPECT_EQ(response.value().diag->stage, Stage::Serve);

  server->stop();
  EXPECT_GE(server->stats().protocol_errors, 1u);
}

TEST_F(ServeTest, SlowReaderIsDroppedNotWedged) {
  // REVIEW regression: a client that submits requests but never reads
  // the responses fills the socket buffer; an unbounded send() would
  // wedge the reader thread forever and hang stop(). With the write
  // timeout, the server drops the connection and shutdown completes.
  serve::ServerConfig config;
  config.jobs = 1;
  config.write_timeout_seconds = 0.2;
  auto server = start_server("slowreader", config);

  const std::string path = server->config().socket_path;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Flood pings without ever reading a response. Non-blocking sends:
  // persistent EAGAIN means the reader has stopped draining -- it is
  // blocked writing responses we refuse to read.
  const std::string ping = frame_bytes(R"({"id":1,"kind":"ping"})");
  int consecutive_eagain = 0;
  for (int i = 0; i < 200000 && consecutive_eagain < 20; ++i) {
    const ssize_t n = ::send(fd, ping.data(), ping.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++consecutive_eagain;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // EPIPE/ECONNRESET: the server already dropped us
    }
    consecutive_eagain = 0;
  }

  // The wedged write must give up within the timeout and count the
  // connection dropped.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->stats().dropped_connections == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server->stats().dropped_connections, 1u);
  ::close(fd);
  server->stop();  // must return promptly: no worker is wedged
  EXPECT_FALSE(server->running());
}

TEST_F(ServeTest, DisconnectedConnectionsAreReaped) {
  // REVIEW regression: dead connections must not accumulate fds or
  // thread handles until stop() -- a long-lived daemon under churn
  // would hit EMFILE. Each disconnect reaps its entry.
  serve::ServerConfig config;
  config.jobs = 1;
  auto server = start_server("reap", config);
  for (int i = 0; i < 8; ++i) {
    auto client = make_client(*server);
    EXPECT_TRUE(client.ping());
  }  // Client destructor disconnects
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->stats().open_connections != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto stats = server->stats();
  EXPECT_EQ(stats.connections, 8u);
  EXPECT_EQ(stats.open_connections, 0u)
      << "dead connections must be reaped before stop()";
  server->stop();
}

TEST(ClientRoundTrip, IdZeroErrorResponseIsTerminal) {
  // REVIEW regression: the server answers undecodable requests with
  // id=0; the client must surface that diag immediately instead of
  // skipping it and burning its full timeout into DeadlineExceeded.
  const std::string path = unique_socket_path("idzero");
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);

  // Fake server: read the request, reject it the way the real server
  // rejects a payload it cannot decode, keep the connection open.
  std::thread fake([&] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    char buf[4096];
    serve::FrameDecoder dec;
    while (!dec.next().has_value() && !dec.error()) {
      const ssize_t n = ::read(conn, buf, sizeof(buf));
      if (n <= 0) break;
      dec.feed(buf, static_cast<std::size_t>(n));
    }
    serve::Response r;
    r.id = 0;
    r.ok = false;
    r.diag = make_diag(DiagCode::SyntaxError, Stage::Serve,
                       "request rejected at decode");
    const auto frame = serve::encode_frame(serve::encode_response(r));
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(::send(conn, frame->data(), frame->size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame->size()));
    // Hold the connection open until the client is done: closing now
    // would let a broken client fail on EOF rather than on the diag.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    ::close(conn);
  });

  serve::ClientOptions opt;
  opt.socket_path = path;
  opt.timeout_seconds = 30.0;  // a skipped response would burn all this
  opt.max_retries = 0;
  serve::Client client(opt);
  const auto start = std::chrono::steady_clock::now();
  const auto result = client.annotate("x", "y\n.end\n");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.diag().code, DiagCode::SyntaxError)
      << result.diag().message;
  EXPECT_LT(elapsed, 5.0) << "client must not wait out its timeout";
  fake.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace gana
