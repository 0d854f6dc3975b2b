#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <system_error>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/batch_runner.hpp"
#include "core/export.hpp"
#include "incremental/session.hpp"
#include "spice/parser.hpp"
#include "util/deadline.hpp"
#include "util/timer.hpp"

namespace gana::serve {

/// Shared between the reader thread and pool tasks still answering this
/// connection's admitted requests: the fd stays open until the last
/// holder drops its reference, so a drained response is always written
/// before close().
struct Server::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Unblocks the reader thread (read() returns 0) without closing the
  /// fd -- in-flight responses still go out.
  void shut_read() { ::shutdown(fd, SHUT_RD); }

  /// Tears down both directions: the reader's read() and any in-flight
  /// send_all bail out promptly, while pool-task references still keep
  /// the fd number valid until the last one drops.
  void abort() {
    aborted.store(true, std::memory_order_release);
    ::shutdown(fd, SHUT_RDWR);
  }

  int fd;
  std::mutex write_mutex;
  std::atomic<bool> aborted{false};
  std::atomic<bool> counted_dropped{false};  ///< n_dropped_ charged once
};

/// One reannotation session. The mutex serializes reannotates of the
/// same session id (each call mutates the session's baseline); the
/// shared_ptr keeps a FIFO-shed session alive until its last in-flight
/// request answers.
struct Server::SessionEntry {
  explicit SessionEntry(const core::Annotator* annotator)
      : session(annotator) {}
  std::mutex mutex;
  incremental::AnnotationSession session;
};

void Server::send_all(Connection& conn, std::string_view data) {
  // MSG_NOSIGNAL so a client that hung up mid-response costs an EPIPE,
  // not a process-wide SIGPIPE. MSG_DONTWAIT + poll(POLLOUT) keeps the
  // write bounded: a peer that submits requests but never reads its
  // responses fills the socket buffer, and an unbounded send() here
  // would wedge the calling worker forever (holding its in-flight slot
  // and hanging shutdown's drain). Instead the write gets
  // write_timeout_seconds of wall clock; past that the connection is
  // dropped. Polling in <=100ms slices also honors abort() quickly.
  const bool bounded = config_.write_timeout_seconds > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              bounded ? config_.write_timeout_seconds : 0.0));
  std::size_t off = 0;
  while (off < data.size()) {
    if (conn.aborted.load(std::memory_order_acquire)) return;
    const ssize_t n = ::send(conn.fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return;  // peer gone
    int wait_ms = 100;
    if (bounded) {
      const double remaining =
          std::chrono::duration<double>(deadline -
                                        std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0.0) {
        mark_dropped(conn);  // hostile or hung peer: shed it, stay alive
        return;
      }
      wait_ms = std::min(
          wait_ms, static_cast<int>(remaining * 1e3) + 1);
    }
    pollfd pfd{conn.fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0 && errno != EINTR) return;
  }
}

void Server::mark_dropped(Connection& conn) {
  if (!conn.counted_dropped.exchange(true, std::memory_order_acq_rel)) {
    n_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  conn.abort();
}

Server::Server(core::Annotator& annotator, ServerConfig config)
    : annotator_(&annotator), config_(std::move(config)) {
  resolved_jobs_ = config_.jobs != 0
                       ? config_.jobs
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency());
  resolved_max_inflight_ = config_.max_inflight != 0 ? config_.max_inflight
                                                     : 2 * resolved_jobs_;
  resolved_max_sessions_ =
      config_.max_sessions != 0 ? config_.max_sessions : 8;
  // Graceful degradation: long-lived servers see unbounded distinct
  // structures; bounded caches trade recompute for bounded memory.
  annotator_->attach_caches(config_.cache_capacity);
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : shutdown_pipe_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    return false;
  };

  if (running_.load(std::memory_order_acquire)) return true;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "invalid socket path";
    return false;
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  if (::pipe(shutdown_pipe_) != 0) return fail("pipe");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  ::unlink(config_.socket_path.c_str());  // stale path from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind " + config_.socket_path);
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");

  pool_ = std::make_unique<ThreadPool>(resolved_jobs_);
  perf_at_start_ = perf_snapshot();
  started_at_ = std::chrono::steady_clock::now();
  draining_.store(false, std::memory_order_release);
  stopped_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this]() { accept_loop(); });
  return true;
}

void Server::request_shutdown() {
  // Async-signal-safe: one write to the self-pipe, nothing else. A full
  // pipe (EAGAIN) or a race with close just means shutdown was already
  // requested -- every outcome is idempotent.
  const int fd = shutdown_pipe_[1];
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void Server::accept_loop() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {shutdown_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // shutdown requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient resource exhaustion sheds this one connection, not
        // the server: count it, back off briefly, keep accepting.
        n_accept_failures_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // unrecoverable (EBADF/EINVAL): enter drain
    }
    n_connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(client);
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      connections_.push_back(conn);
    }
    {
      std::lock_guard<std::mutex> lock(reader_mutex_);
      ++active_readers_;
    }
    try {
      std::thread([this, conn]() mutable {
        connection_loop(std::move(conn));
      }).detach();
    } catch (const std::system_error&) {
      // Out of threads: undo the bookkeeping and shed the connection.
      {
        std::lock_guard<std::mutex> lock(reader_mutex_);
        --active_readers_;
        reader_cv_.notify_all();
      }
      {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_.pop_back();
      }
      n_accept_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Drain phase: refuse new connections, wake idle readers. Admitted
  // requests keep running; connection_loop and stop() finish the rest.
  draining_.store(true, std::memory_order_release);
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& conn : connections_) conn->shut_read();
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  FrameDecoder decoder;
  char buf[16384];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or SHUT_RD during drain
    decoder.feed(buf, static_cast<std::size_t>(n));
    while (std::optional<std::string> payload = decoder.next()) {
      handle_payload(conn, *payload);
    }
    if (decoder.error()) {
      // Framing is unrecoverable mid-stream; drop the connection rather
      // than guess at byte boundaries.
      mark_dropped(*conn);
      break;
    }
  }
  conn->shut_read();
  // Reap: remove this connection's entry so a long-lived daemon under
  // connection churn doesn't accumulate one open fd per dead client.
  // Pool tasks still answering admitted requests hold their own
  // references; the fd closes when the last one drops.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    const auto it = std::find(connections_.begin(), connections_.end(), conn);
    if (it != connections_.end()) connections_.erase(it);
  }
  conn.reset();
  // Final action on `this`: stop() may return -- and the Server be
  // destroyed -- the moment the count hits zero, so nothing may follow
  // the notify. Notifying under the lock keeps the waiter from racing
  // past before the decrement is fully published.
  std::lock_guard<std::mutex> lock(reader_mutex_);
  --active_readers_;
  reader_cv_.notify_all();
}

void Server::handle_payload(const std::shared_ptr<Connection>& conn,
                            const std::string& payload) {
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  Result<Request> decoded = decode_request(payload);
  if (!decoded.ok()) {
    n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.id = 0;  // the id, if any, was undecodable
    r.ok = false;
    r.diag = decoded.diag();
    send_response(conn, r);
    return;
  }
  Request request = decoded.take();
  switch (request.kind) {
    case RequestKind::Ping: {
      Response r;
      r.id = request.id;
      r.ok = true;
      send_response(conn, r);
      return;
    }
    case RequestKind::Metrics: {
      Response r;
      r.id = request.id;
      r.ok = true;
      r.payload = metrics_json();
      send_response(conn, r);
      return;
    }
    case RequestKind::Shutdown: {
      Response r;
      r.id = request.id;
      r.ok = true;
      send_response(conn, r);
      request_shutdown();
      return;
    }
    case RequestKind::Annotate:
    case RequestKind::Reannotate:
      break;  // pipeline work: admission-controlled below
  }

  // Admission control. fetch_add-then-check keeps the fast path one
  // atomic RMW; the shed path undoes its reservation before answering.
  // Draining counts as full: admitted work finishes, new work is shed.
  const std::size_t admitted =
      inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (admitted >= resolved_max_inflight_ ||
      draining_.load(std::memory_order_acquire)) {
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      drain_cv_.notify_all();
    }
    n_overloaded_.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.id = request.id;
    r.ok = false;
    r.diag = make_diag(
        DiagCode::Overloaded, Stage::Serve,
        draining_.load(std::memory_order_acquire)
            ? "server is draining; retry against a fresh instance"
            : std::to_string(resolved_max_inflight_) +
                  " requests already in flight; retry with backoff");
    send_response(conn, r);
    return;
  }

  pool_->submit([this, conn, request = std::move(request)]() mutable {
    run_annotate(conn, std::move(request));
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      drain_cv_.notify_all();
    }
  });
}

void Server::run_annotate(const std::shared_ptr<Connection>& conn,
                          Request request) {
  Response response;
  response.id = request.id;

  const double timeout = request.timeout_seconds > 0.0
                             ? request.timeout_seconds
                             : config_.default_timeout_seconds;
  const Deadline deadline = timeout > 0.0 ? Deadline::after_seconds(timeout)
                                          : Deadline();
  // The request context carries the deadline and the fault-injection
  // site key through parse -> prepare -> GCN -> VF2. Keying faults by
  // the client-chosen id is what makes soak failures reproducible.
  const RequestContext ctx{timeout > 0.0 ? &deadline : nullptr, request.id};
  ScopedRequestContext scope(&ctx);

  const std::string name = request.name.empty() ? "<request>" : request.name;
  try {
    spice::ParseOptions popt;
    popt.source = name;
    Result<spice::Netlist> parsed =
        spice::parse_netlist_result(request.netlist, popt);
    if (!parsed.ok()) {
      response.ok = false;
      response.diag = parsed.diag();
    } else {
      Result<core::AnnotateResult> outcome = make_diag(
          DiagCode::Internal, Stage::Serve, "request was never run");
      if (request.kind == RequestKind::Reannotate) {
        // Same pipeline, same exporter as the cold path: a warm reannotate
        // answers with exactly the bytes an annotate of this netlist
        // would. Requests within one session serialize on its mutex
        // (each call advances the session's baseline revision).
        const std::shared_ptr<SessionEntry> entry =
            checkout_session(request.session);
        std::lock_guard<std::mutex> lock(entry->mutex);
        outcome = entry->session.reannotate(parsed.value(), name);
      } else {
        outcome = annotator_->try_annotate(parsed.value(), name);
      }
      if (outcome.ok()) {
        response.ok = true;
        // Byte-for-byte the one-shot CLI's --json output: same function,
        // same class vocabulary -- the soak bit-identity contract.
        response.payload = core::annotation_to_json(
            outcome.value(), annotator_->class_names());
      } else {
        response.ok = false;
        response.diag = outcome.diag();
      }
    }
  } catch (const DiagError& e) {
    response.ok = false;
    response.diag = e.diag();
  } catch (const std::bad_alloc&) {
    response.ok = false;
    response.diag = make_diag(DiagCode::BudgetExhausted, Stage::Serve,
                              "out of memory while serving " + name);
  } catch (const std::exception& e) {
    response.ok = false;
    response.diag = make_diag(DiagCode::Internal, Stage::Serve,
                              std::string("unexpected exception: ") + e.what());
  }

  if (response.ok) {
    n_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    note_failure(*response.diag);
  }
  send_response(conn, response);
}

std::shared_ptr<Server::SessionEntry> Server::checkout_session(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(session_mutex_);
  if (const auto it = sessions_.find(id); it != sessions_.end()) {
    return it->second;
  }
  // Shed oldest-created first (FIFO, not LRU: eviction order is a pure
  // function of creation order, never of request timing).
  while (sessions_.size() >= resolved_max_sessions_ &&
         !session_fifo_.empty()) {
    sessions_.erase(session_fifo_.front());
    session_fifo_.pop_front();
    n_sessions_shed_.fetch_add(1, std::memory_order_relaxed);
  }
  auto entry = std::make_shared<SessionEntry>(annotator_);
  sessions_.emplace(id, entry);
  session_fifo_.push_back(id);
  n_sessions_created_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

void Server::note_failure(const Diag& diag) {
  n_failed_.fetch_add(1, std::memory_order_relaxed);
  if (diag.code == DiagCode::DeadlineExceeded) {
    n_deadline_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::send_response(const std::shared_ptr<Connection>& conn,
                           const Response& response) {
  const std::optional<std::string> frame =
      encode_frame(encode_response(response));
  if (!frame.has_value()) {
    // Response larger than a frame allows (enormous annotation JSON):
    // replace it with a structured failure that always fits.
    Response overflow;
    overflow.id = response.id;
    overflow.ok = false;
    overflow.diag = make_diag(DiagCode::LimitExceeded, Stage::Serve,
                              "response exceeds the frame size limit");
    const std::optional<std::string> fallback =
        encode_frame(encode_response(overflow));
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (fallback.has_value()) send_all(*conn, *fallback);
    return;
  }
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  send_all(*conn, *frame);  // EPIPE = client gone; nothing to do
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.annotated_ok = n_ok_.load(std::memory_order_relaxed);
  s.annotate_failed = n_failed_.load(std::memory_order_relaxed);
  s.overloaded = n_overloaded_.load(std::memory_order_relaxed);
  s.deadline_expired = n_deadline_.load(std::memory_order_relaxed);
  s.protocol_errors = n_protocol_errors_.load(std::memory_order_relaxed);
  s.connections = n_connections_.load(std::memory_order_relaxed);
  s.dropped_connections = n_dropped_.load(std::memory_order_relaxed);
  s.accept_failures = n_accept_failures_.load(std::memory_order_relaxed);
  s.sessions_created = n_sessions_created_.load(std::memory_order_relaxed);
  s.sessions_shed = n_sessions_shed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    s.open_connections = connections_.size();
  }
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    s.active_sessions = sessions_.size();
  }
  return s;
}

std::string Server::metrics_json() const {
  // Reuses the --perf-json record format so existing tooling parses
  // server metrics unchanged: counters are the deltas since start() and
  // wall_seconds is the server uptime.
  const PerfSnapshot perf = perf_snapshot() - perf_at_start_;
  core::BatchTimings t;
  t.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started_at_)
                       .count();
  t.apply_perf_delta(perf);
  const ServerStats s = stats();
  return core::batch_timings_to_json(t, resolved_jobs_, s.annotated_ok,
                                     s.annotated_ok + s.annotate_failed);
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  stop();
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  request_shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // accept_loop has set draining_ and nudged every reader; new annotate
  // requests are now shed. Wait for admitted work to finish so every
  // response is written before connections close.
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this]() {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& conn : connections_) conn->shut_read();
  }
  // Readers are detached; wait for the count to drain instead of
  // joining. Bounded writes guarantee progress: a reader wedged writing
  // to a hung peer gives up within write_timeout_seconds.
  {
    std::unique_lock<std::mutex> lock(reader_mutex_);
    reader_cv_.wait(lock, [this]() { return active_readers_ == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.clear();  // closes any fds the readers left behind
  }
  pool_.reset();  // queued-but-unadmitted tasks cannot exist: admission
                  // counted every submit, and inflight_ drained to zero
  for (int& fd : shutdown_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ::unlink(config_.socket_path.c_str());
  running_.store(false, std::memory_order_release);
}

}  // namespace gana::serve
