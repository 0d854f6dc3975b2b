// Command-line client for a running gana-serve instance.
//
//   ./gana_client --socket /tmp/gana.sock file.sp [more.sp ...]
//                 [--timeout-seconds S] [--retries N] [--json out.json]
//   ./gana_client --socket /tmp/gana.sock --ping
//   ./gana_client --socket /tmp/gana.sock --metrics
//   ./gana_client --socket /tmp/gana.sock --shutdown
//
// Each positional file is read locally, shipped to the server as one
// annotate request, and summarized with the same [ OK ]/[FAIL] lines as
// the one-shot annotate_netlist CLI. --json writes the first successful
// annotation payload exactly as the server serialized it -- byte-equal
// to `annotate_netlist --json` on the same input (the soak harness
// diffs the two).
//
// --timeout-seconds bounds each request end to end (client wait and the
// server-side deadline). Overloaded responses are retried with
// exponential backoff + jitter up to --retries times before counting as
// a failure.
//
// Exit codes: 0 all requests succeeded, 1 usage error (including a
// negative --retries or --timeout-seconds), 2 local I/O or
// connection failure, 4 any request failed, 5 any request exceeded its
// deadline (highest-numbered applicable code wins).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "util/args.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitIo = 2;
constexpr int kExitFailed = 4;
constexpr int kExitTimeout = 5;

}  // namespace

int main(int argc, char** argv) {
  const gana::Args args(argc, argv, {"ping", "metrics", "shutdown"});
  const bool control_only =
      args.has("ping") || args.has("metrics") || args.has("shutdown");
  if (!args.has("socket") || (args.positional().empty() && !control_only)) {
    std::printf(
        "usage: gana_client --socket /path/to.sock file.sp [more.sp ...]\n"
        "                   [--timeout-seconds S] [--retries N]\n"
        "                   [--json out.json]\n"
        "       gana_client --socket /path/to.sock --ping | --metrics |\n"
        "                   --shutdown\n");
    return kExitUsage;
  }

  gana::serve::ClientOptions copt;
  copt.socket_path = args.get("socket");
  double timeout = 0.0;
  try {
    args.reject_unknown({"socket", "timeout-seconds", "retries", "json"});
    timeout = args.get_seconds("timeout-seconds", 0.0);
    if (timeout > 0.0) copt.timeout_seconds = timeout;
    copt.max_retries =
        static_cast<int>(args.get_count("retries", copt.max_retries, 0));
  } catch (const gana::ArgError& e) {
    std::fprintf(stderr, "gana-client: %s\n", e.what());
    return kExitUsage;
  }
  gana::serve::Client client(copt);

  if (args.has("ping")) {
    const bool ok = client.ping();
    std::printf("%s\n", ok ? "pong" : "no response");
    return ok ? kExitOk : kExitIo;
  }
  if (args.has("metrics")) {
    gana::Result<std::string> metrics = client.metrics();
    if (!metrics.ok()) {
      std::fprintf(stderr, "error: %s\n", metrics.diag().render().c_str());
      return kExitIo;
    }
    std::printf("%s\n", metrics.value().c_str());
    return kExitOk;
  }
  if (args.has("shutdown")) {
    const bool ok = client.shutdown_server();
    std::printf("%s\n", ok ? "server draining" : "no response");
    return ok ? kExitOk : kExitIo;
  }

  int exit_code = kExitOk;
  std::size_t ok_count = 0;
  std::string first_annotation;
  for (const std::string& path : args.positional()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::printf("[FAIL] %s: cannot open\n", path.c_str());
      exit_code = std::max(exit_code, kExitIo);
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    gana::Result<std::string> annotation =
        client.annotate(path, text.str(), timeout);
    if (annotation.ok()) {
      ++ok_count;
      std::printf("[ OK ] %s\n", path.c_str());
      if (first_annotation.empty()) first_annotation = annotation.take();
      continue;
    }
    const gana::Diag& diag = annotation.diag();
    if (diag.code == gana::DiagCode::DeadlineExceeded) {
      std::printf("[TIMEOUT] %s: %s\n", path.c_str(), diag.render().c_str());
      exit_code = std::max(exit_code, kExitTimeout);
    } else {
      std::printf("[FAIL] %s: %s\n", path.c_str(), diag.render().c_str());
      exit_code = std::max(exit_code, kExitFailed);
    }
  }
  std::printf("annotated %zu/%zu circuit%s via %s\n", ok_count,
              args.positional().size(),
              args.positional().size() == 1 ? "" : "s",
              copt.socket_path.c_str());
  if (args.has("json") && !first_annotation.empty()) {
    std::ofstream f(args.get("json"));
    f << first_annotation;
    std::printf("annotation JSON written to %s\n", args.get("json").c_str());
  }
  return exit_code;
}
