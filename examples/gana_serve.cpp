// Warm annotation daemon: loads the model and primitive library once,
// then serves framed annotate/reannotate/ping/metrics/shutdown requests
// over a Unix-domain socket until SIGTERM/SIGINT (or a shutdown
// request) drains it.
//
//   ./gana_serve --socket /tmp/gana.sock
//                [--domain ota|rf] [--load-model m.bin]
//                [--jobs N] [--max-inflight M] [--max-sessions K]
//                [--timeout-seconds S] [--write-timeout-seconds S]
//                [--cache-capacity C]
//                [--fault-seed N] [--fault-alloc P] [--fault-error P]
//                [--fault-delay P] [--fault-delay-seconds S]
//
// --max-inflight M: admission-control bound; request M+1 is answered
// `Overloaded` immediately instead of queueing (default 2 * jobs).
//
// --max-sessions K: live reannotation sessions held at once (default
// 8). Opening session K+1 sheds the oldest-created session FIFO; its
// next reannotate silently restarts cold under the same id.
//
// --timeout-seconds S: default per-request wall-clock deadline (a
// request's own timeout_seconds takes precedence; 0 = no deadline).
//
// --write-timeout-seconds S: wall-clock budget for writing one response
// back to a client (default 30). A peer that stops reading has its
// connection dropped once the budget expires, so a slow or hostile
// reader can never wedge a worker or hang shutdown. 0 = unbounded.
//
// --cache-capacity C: bound each structural cache (sample prep, GCN
// inference, VF2 annotation), and each session's structure store, to
// C entries with FIFO eviction; 0 keeps them unbounded. Eviction costs
// recompute only -- responses stay bit-identical.
//
// --fault-*: arm the deterministic fault injector (soak testing): every
// pipeline stage entry of every request draws alloc-failure / stage-
// error / stage-delay faults as a pure function of (fault-seed, stage,
// request id). The same flags plus the same request ids always fault
// the same stages -- crashes found by the soak harness replay exactly.
// --fault-alloc, --fault-error and --fault-delay are probabilities in
// [0, 1]; any other value is a usage error.
//
// The process exits 0 after a clean drain, 1 on usage errors (an
// unknown flag, or a malformed or out-of-range value such as --jobs -1),
// 2 when the socket cannot be bound.
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "gana.hpp"
#include "gcn/serialize.hpp"
#include "primitives/library_io.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/fault_injection.hpp"

namespace {

gana::serve::Server* g_server = nullptr;

void handle_signal(int) {
  // Async-signal-safe: request_shutdown is one write() to a self-pipe.
  if (g_server != nullptr) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  const gana::Args args(argc, argv);
  if (!args.has("socket")) {
    std::printf(
        "usage: gana_serve --socket /path/to.sock\n"
        "                  [--domain ota|rf] [--load-model m.bin]\n"
        "                  [--load-library lib|standard]\n"
        "                  [--jobs N] [--max-inflight M]\n"
        "                  [--max-sessions K]\n"
        "                  [--timeout-seconds S]\n"
        "                  [--write-timeout-seconds S]\n"
        "                  [--cache-capacity C]\n"
        "                  [--fault-seed N] [--fault-alloc P]\n"
        "                  [--fault-error P] [--fault-delay P]\n"
        "                  [--fault-delay-seconds S]\n");
    return 1;
  }
  const std::string domain = args.get("domain", "ota");
  const auto classes = gana::datagen::domain_class_names(domain);
  if (!classes.has_value()) {
    std::fprintf(stderr,
                 "gana-serve: unknown --domain '%s' (expected ota or rf)\n",
                 domain.c_str());
    return 1;
  }

  // Numeric flags are read before any work starts: a malformed or
  // out-of-range value is a usage error, never a silent default.
  gana::serve::ServerConfig config;
  gana::FaultPlan plan;
  std::uint64_t fault_seed = 1;
  try {
    args.reject_unknown(
        {"socket", "domain", "load-model", "load-library", "jobs",
         "max-inflight", "max-sessions", "timeout-seconds",
         "write-timeout-seconds", "cache-capacity", "fault-seed",
         "fault-alloc", "fault-error", "fault-delay", "fault-delay-seconds"});
    config.socket_path = args.get("socket");
    config.jobs = args.get_count("jobs", 0, 0);
    config.max_inflight = args.get_count("max-inflight", 0, 0);
    config.default_timeout_seconds = args.get_seconds("timeout-seconds", 0.0);
    config.write_timeout_seconds = args.get_seconds(
        "write-timeout-seconds", config.write_timeout_seconds);
    config.max_sessions = args.get_count("max-sessions", 0, 0);
    config.cache_capacity = args.get_count("cache-capacity", 0, 0);
    plan.alloc_failure = args.get_fraction("fault-alloc", 0.0);
    plan.stage_error = args.get_fraction("fault-error", 0.0);
    plan.stage_delay = args.get_fraction("fault-delay", 0.0);
    plan.delay_seconds = args.get_seconds("fault-delay-seconds", 0.01);
    fault_seed = args.get_u64("fault-seed", fault_seed);
  } catch (const gana::ArgError& e) {
    std::fprintf(stderr, "gana-serve: %s\n", e.what());
    return 1;
  }

  // Warm state, paid once: the model (optional) and the Annotator with
  // its parsed primitive library.
  std::unique_ptr<gana::gcn::GcnModel> model;
  if (args.has("load-model")) {
    // A model artifact: the loader maps the file and borrows the
    // weights zero-copy.
    auto loaded = gana::gcn::load_model_any(args.get("load-model"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "gana-serve: %s\n",
                   loaded.diag().render().c_str());
      return 2;
    }
    model = std::make_unique<gana::gcn::GcnModel>(loaded.take());
    std::printf("loaded model from %s (%zu parameters)\n",
                args.get("load-model").c_str(), model->parameter_count());
  }
  auto library =
      gana::primitives::load_library_any(args.get("load-library", "standard"));
  if (!library.ok()) {
    std::fprintf(stderr, "gana-serve: %s\n", library.diag().render().c_str());
    return 2;
  }
  // The Annotator rejects a model whose widths do not fit the feature
  // builder and the --domain's classes.
  std::unique_ptr<gana::core::Annotator> annotator;
  try {
    annotator = std::make_unique<gana::core::Annotator>(model.get(), *classes,
                                                        library.take());
  } catch (const gana::DiagError& e) {
    std::fprintf(stderr, "gana-serve: %s\n", e.diag().render().c_str());
    return 2;
  }

  if (!plan.empty()) {
    gana::FaultInjector::instance().arm(fault_seed, plan);
    std::printf("fault injector armed (alloc %.3f, error %.3f, delay %.3f)\n",
                plan.alloc_failure, plan.stage_error, plan.stage_delay);
  }

  gana::serve::Server server(*annotator, config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: cannot start server: %s\n", error.c_str());
    return 2;
  }
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::printf("gana-serve listening on %s (%zu jobs)\n",
              config.socket_path.c_str(),
              server.config().jobs != 0 ? server.config().jobs
                                        : std::size_t{0});

  server.wait();  // blocks until SIGTERM/SIGINT or a shutdown request

  const gana::serve::ServerStats stats = server.stats();
  std::printf("drained: %llu requests (%llu ok, %llu failed, %llu shed, "
              "%llu deadline, %llu protocol errors) over %llu connections\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.annotated_ok),
              static_cast<unsigned long long>(stats.annotate_failed),
              static_cast<unsigned long long>(stats.overloaded),
              static_cast<unsigned long long>(stats.deadline_expired),
              static_cast<unsigned long long>(stats.protocol_errors),
              static_cast<unsigned long long>(stats.connections));
  g_server = nullptr;
  return 0;
}
