// Warm annotation server: load once, annotate many.
//
// The one-shot CLI pays model + primitive-library construction on every
// invocation; gana-serve pays it once and then answers framed requests
// (serve/protocol.hpp) over a Unix-domain socket for as long as the
// process lives. Design constraints, in priority order:
//
//  1. *Never crash on input.* Every failure -- malformed frame, bad
//     JSON, hostile netlist, injected fault, expired deadline -- becomes
//     either a structured Diag response or a dropped connection. The
//     soak test hammers this with fault injection armed.
//  2. *Bounded everything.* Admission control caps concurrently admitted
//     annotate requests at `max_inflight`; request number max_inflight+1
//     is answered `Overloaded` immediately (from the connection reader
//     thread, microseconds, no queueing) so clients can back off instead
//     of stacking latency. Frames are capped (kMaxFrameBytes), caches
//     are capacity-bounded (cache_capacity), and every annotate request
//     runs under a wall-clock Deadline.
//  3. *Deterministic outputs.* An admitted healthy request produces the
//     exact bytes `annotate_netlist --json` would: same Annotator, same
//     caches (Annotator::attach_caches), same exporter. Deadlines and
//     faults change *which* requests fail, never the bytes of the ones
//     that succeed. Reannotate requests route through a per-session
//     incremental::AnnotationSession whose reuse paths carry the same
//     bit-identity contract, so a warm reannotation answers with
//     exactly an annotate's bytes.
//
// Reannotation sessions: a `reannotate` request names a session id and
// carries the *full* netlist of the next revision; the server diffs it
// against the session's previous revision and skips the work the edit
// left unchanged. Sessions are bounded at max_sessions and shed FIFO by creation
// order; a shed id transparently restarts cold on its next request.
// Requests within one session serialize on the session's mutex (they
// mutate its baseline); distinct sessions run concurrently and share
// the annotate admission-control budget.
//
// Threading model: one accept thread; one detached reader thread per
// connection (cheap: blocked in read() almost always; the server tracks
// a count, not handles, so dead connections leave no residue); annotate
// work executes on the shared ThreadPool. Responses from the pool and
// from the reader interleave on one socket, serialized by a
// per-connection write mutex, and every write runs under
// write_timeout_seconds -- a peer that never reads its responses is
// dropped, never waited on. Control requests (ping/metrics/shutdown)
// are answered inline by the reader even when the pool is saturated --
// liveness probes must not queue behind work.
//
// Shutdown: `request_shutdown()` is async-signal-safe (one write() to a
// self-pipe), so the gana-serve binary calls it straight from its
// SIGTERM/SIGINT handler. Drain order: stop accepting, nudge readers
// (SHUT_RD on every connection), answer still-running admitted requests,
// then close. Clients see their in-flight responses, then EOF.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/protocol.hpp"
#include "util/perf.hpp"
#include "util/thread_pool.hpp"

namespace gana::serve {

struct ServerConfig {
  std::string socket_path;      ///< Unix-domain socket path (required)
  std::size_t jobs = 0;         ///< annotate worker threads; 0 = hw threads
  /// Concurrently admitted annotate requests before shedding; 0 derives
  /// 2 * jobs (workers busy + one queued each -- full pipes, bounded
  /// queueing delay).
  std::size_t max_inflight = 0;
  double default_timeout_seconds = 0.0;  ///< per-request deadline when the
                                         ///< request names none; 0 = none
  std::size_t cache_capacity = 0;  ///< per structural cache (0 = unbounded)
  /// Live reannotation sessions held at once; 0 derives a default (8).
  /// Opening session max_sessions+1 sheds the *oldest-created* session
  /// (FIFO) -- its cached artifacts are dropped and the next reannotate
  /// under that id silently starts a fresh session (first revision runs
  /// cold). Bounds the per-session baselines (previous netlist + graph +
  /// match stores) a long-lived daemon can accumulate.
  std::size_t max_sessions = 0;
  /// Wall-clock budget for writing one response to a connection. A peer
  /// that stops reading (hostile or hung) has its connection dropped
  /// once the budget expires, so a worker can never wedge in a write
  /// and shutdown always completes. 0 = unbounded (trusted peers only).
  double write_timeout_seconds = 30.0;
};

/// Point-in-time server health; all counters are lifetime totals.
struct ServerStats {
  std::uint64_t requests = 0;          ///< frames decoded into requests
  std::uint64_t annotated_ok = 0;      ///< annotate responses with ok=true
  std::uint64_t annotate_failed = 0;   ///< annotate responses with a Diag
                                       ///< (excluding sheds)
  std::uint64_t overloaded = 0;        ///< requests shed by admission
  std::uint64_t deadline_expired = 0;  ///< DeadlineExceeded responses
  std::uint64_t protocol_errors = 0;   ///< undecodable payloads answered
  std::uint64_t connections = 0;       ///< accepted connections
  std::uint64_t dropped_connections = 0;  ///< closed due to framing errors
                                          ///< or write timeouts
  std::uint64_t accept_failures = 0;  ///< accept() resource errors shed
                                      ///< (EMFILE and friends)
  std::uint64_t open_connections = 0;  ///< currently tracked connections
  std::uint64_t sessions_created = 0;  ///< reannotation sessions opened
  std::uint64_t sessions_shed = 0;     ///< sessions dropped FIFO at the
                                       ///< max_sessions bound
  std::uint64_t active_sessions = 0;   ///< sessions currently held
};

class Server {
 public:
  /// `annotator` must stay alive (and unmodified) for the server's
  /// lifetime; the server attaches its capacity-bounded caches to it
  /// (Annotator::attach_caches with `cache_capacity`).
  Server(core::Annotator& annotator, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts accepting. Returns false (with a
  /// message in `error` when non-null) if the socket cannot be bound.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Async-signal-safe shutdown trigger; idempotent. Initiates the
  /// drain but does not wait for it -- call stop() (or the destructor)
  /// to join.
  void request_shutdown();

  /// Drains and joins everything: admitted requests finish and their
  /// responses are written before connections close. Idempotent.
  void stop();

  /// Blocks until a shutdown request arrives, then drains (the daemon
  /// main loop).
  void wait();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] ServerStats stats() const;

  /// The metrics-response payload: batch_timings_to_json over the
  /// perf-counter deltas since start, with ok/total request counts.
  [[nodiscard]] std::string metrics_json() const;

 private:
  struct Connection;
  struct SessionEntry;

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void handle_payload(const std::shared_ptr<Connection>& conn,
                      const std::string& payload);
  void run_annotate(const std::shared_ptr<Connection>& conn, Request request);
  /// Looks up (or creates) the reannotation session named by `id`,
  /// shedding the oldest-created session first when the map is at
  /// max_sessions. A shed session that is still answering an in-flight
  /// request stays alive through that request's shared_ptr.
  [[nodiscard]] std::shared_ptr<SessionEntry> checkout_session(
      const std::string& id);
  void send_response(const std::shared_ptr<Connection>& conn,
                     const Response& response);
  /// Bounded write of `data` to the connection (write_timeout_seconds);
  /// on timeout the connection is counted dropped and aborted. Caller
  /// holds the connection's write mutex.
  void send_all(Connection& conn, std::string_view data);
  /// Counts the connection dropped (once) and aborts it so its reader
  /// exits and pending writes bail out.
  void mark_dropped(Connection& conn);
  void note_failure(const Diag& diag);

  core::Annotator* annotator_;
  ServerConfig config_;
  std::size_t resolved_jobs_ = 1;
  std::size_t resolved_max_inflight_ = 2;
  std::size_t resolved_max_sessions_ = 8;

  int listen_fd_ = -1;
  int shutdown_pipe_[2] = {-1, -1};  ///< [read, write]; write end is the
                                     ///< async-signal-safe trigger
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<std::size_t> inflight_{0};  ///< admitted, not yet answered
  mutable std::mutex drain_mutex_;
  std::condition_variable drain_cv_;  ///< signaled when inflight_ hits 0

  mutable std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  // Reannotation sessions, keyed by client-chosen id. session_mutex_
  // guards the map and the creation-order FIFO only; each entry carries
  // its own mutex serializing reannotates of that design, so distinct
  // sessions annotate concurrently.
  mutable std::mutex session_mutex_;
  std::unordered_map<std::string, std::shared_ptr<SessionEntry>> sessions_;
  std::deque<std::string> session_fifo_;  ///< creation order, oldest first

  // Reader threads are detached and tracked by count only: a finished
  // reader removes its connection entry and decrements, so a long-lived
  // daemon under connection churn holds no per-dead-client state.
  // stop() waits for the count to reach zero instead of joining.
  mutable std::mutex reader_mutex_;
  std::condition_variable reader_cv_;
  std::size_t active_readers_ = 0;

  // Lifetime counters (relaxed; read quiescently by stats()).
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_ok_{0};
  std::atomic<std::uint64_t> n_failed_{0};
  std::atomic<std::uint64_t> n_overloaded_{0};
  std::atomic<std::uint64_t> n_deadline_{0};
  std::atomic<std::uint64_t> n_protocol_errors_{0};
  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_dropped_{0};
  std::atomic<std::uint64_t> n_accept_failures_{0};
  std::atomic<std::uint64_t> n_sessions_created_{0};
  std::atomic<std::uint64_t> n_sessions_shed_{0};

  PerfSnapshot perf_at_start_;
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace gana::serve
