// serve_mixed: the warm path. An in-process gana-serve instance fed
// open-loop by two client connections over a rate ladder, then closed-
// loop at saturation. Most requests skip the GCN (cache hits), so the
// cost sits in the front end, cache keys, post and the protocol.
#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/export.hpp"
#include "e2e.hpp"
#include "inputs.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spice/parser.hpp"
#include "trace.hpp"
#include "util/perf.hpp"

namespace gana::e2e {

namespace {

constexpr std::size_t kServerJobs = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kHotSet = 32;
/// The open-loop rate ladder: req/s and the share of the window each
/// step is scheduled to last. It finds the highest rate that meets the
/// latency limit (serve.max_rate_rps). Steps above capacity run long;
/// every step sends a fixed request count, so the work (and the caches
/// it fills) does not depend on the machine's speed.
struct Step {
  double rate;
  double share;
};
constexpr Step kLadder[] = {{500, 0.2},   {1000, 0.1},  {1500, 0.05},
                            {2000, 0.03}, {2500, 0.03}, {3000, 0.03}};
constexpr double kP99LimitMs = 5.0;
constexpr double kLagLimitMs = 100.0;
/// Saturation-step requests per second of window (about a quarter of
/// it at the reference box's capacity). The step gives the end-to-end
/// latency and throughput metrics: with both connections always in
/// flight the server never idles, so its latency does not pick up the
/// shared box's wake-up stalls the way the open-loop steps do (their
/// p99 spread 20-30% across runs). Texts are materialized up front so
/// the client does no generation work during the step.
constexpr double kSaturationRequestsPerSecond = 400;
/// A generator this far behind schedule abandons the rest of its step:
/// a guard against a pathologically slow build, never hit normally.
constexpr double kAbandonLagSeconds = 5.0;

struct Response {
  std::uint64_t serial = 0;
  std::uint64_t digest = 0;
};

/// What one connection saw during one step.
struct ConnectionLog {
  std::vector<double> ms;  ///< latency from the scheduled send time
  std::vector<Response> responses;
  std::size_t sent = 0;
  std::size_t failed = 0;
  double lag = 0.0;  ///< how late the last send of the step was, seconds
  double finished = 0.0;
  std::string error;  ///< an exception that ended the connection's loop
};

void send_one(serve::Client& client, const TextInput& in, std::uint64_t serial,
              double due, ConnectionLog& log) {
  ++log.sent;
  auto r = client.annotate(in.name, in.text);
  const double done = now_seconds();
  if (r.ok()) {
    log.ms.push_back((done - due) * 1e3);
    log.responses.push_back({serial, fnv1a(r.value())});
  } else {
    ++log.failed;
    log.ms.push_back(std::numeric_limits<double>::infinity());
  }
}

/// Open loop: request k of the step is due at start + k / rate; this
/// connection sends every `stride`-th one starting at `first`.
void open_loop(serve::Client& client, const ServeMix& mix,
               const std::vector<ServeRequest>& requests, std::size_t first,
               std::size_t stride, double start, double rate,
               ConnectionLog& log) try {
  for (std::size_t k = first; k < requests.size(); k += stride) {
    const double due = start + static_cast<double>(k) / rate;
    const TextInput in = mix.text(requests[k]);  // before the wait
    const double now = now_seconds();
    if (now - due > kAbandonLagSeconds) {
      log.lag = now - due;
      break;
    }
    if (due > now) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(due))));
    }
    log.lag = std::max(0.0, now_seconds() - due);
    send_one(client, in, requests[k].serial, due, log);
  }
  log.finished = now_seconds();
} catch (const std::exception& e) {
  log.error = e.what();
}

/// Closed loop: the next request goes out when the previous one is
/// answered.
void closed_loop(serve::Client& client, const std::vector<TextInput>& texts,
                 const std::vector<std::uint64_t>& serials,
                 ConnectionLog& log) try {
  for (std::size_t i = 0; i < texts.size(); ++i) {
    send_one(client, texts[i], serials[i], now_seconds(), log);
  }
  log.finished = now_seconds();
} catch (const std::exception& e) {
  log.error = e.what();
}

/// Runs `loop(c, log)` for every connection on its own thread and
/// returns the logs; rethrows a loop's exception after all have joined.
std::vector<ConnectionLog> run_connections(
    const std::function<void(std::size_t, ConnectionLog&)>& loop) {
  std::vector<ConnectionLog> logs(kConnections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(loop, c, std::ref(logs[c]));
  }
  for (std::thread& t : threads) t.join();
  for (const ConnectionLog& log : logs) {
    if (!log.error.empty()) throw std::runtime_error(log.error);
  }
  return logs;
}

serve::ClientOptions client_options(const std::string& socket) {
  serve::ClientOptions c;
  c.socket_path = socket;
  c.timeout_seconds = 30.0;
  c.max_retries = 0;
  return c;
}

/// Cold annotation of a request's text: what the response must equal.
std::uint64_t offline_digest(const core::Annotator& annotator,
                             const TextInput& in) {
  spice::ParseOptions popt;
  popt.source = in.name;
  auto parsed = spice::parse_netlist_result(in.text, popt);
  if (!parsed.ok()) return 0;
  auto r = annotator.try_annotate(parsed.value(), in.name);
  if (!r.ok()) return 0;
  return fnv1a(core::annotation_to_json(r.value(), annotator.class_names()));
}

}  // namespace

void run_serve_mixed(const RunOptions& o, Record& record) {
  const ArtifactPaths art = artifact_paths(o.models_dir);
  const std::string socket = o.work_dir + "/serve.sock";
  ServeMix mix(o.seed, kHotSet);
  serve::ServerConfig config;
  config.socket_path = socket;
  config.jobs = kServerJobs;

  const auto setup = [&] {
    const double start = now_seconds();
    Loaded l = load_artifacts(art.ota_model, art.library);
    core::Annotator annotator(l.model.get(), ota_classes(),
                              std::move(l.library));
    serve::Server server(annotator, config);
    std::string error;
    if (!server.start(&error)) throw std::runtime_error(error);
    serve::Client client(client_options(socket));
    const auto& hot = mix.hot_set().front();
    if (!client.annotate(hot.name, hot.text).ok()) {
      throw std::runtime_error("serve set-up request failed");
    }
    return now_seconds() - start;
  };
  setup_metric(record, o, setup);

  // The request stream: ladder steps, then the saturation step.
  std::vector<std::vector<ServeRequest>> steps;
  for (const Step& step : kLadder) {
    steps.emplace_back();
    const auto n =
        static_cast<std::size_t>(step.rate * step.share * o.seconds);
    for (std::size_t i = 0; i < n; ++i) steps.back().push_back(mix.next());
  }
  std::vector<std::vector<TextInput>> sat_texts(kConnections);
  std::vector<std::vector<std::uint64_t>> sat_serials(kConnections);
  const auto sat_count =
      static_cast<std::size_t>(kSaturationRequestsPerSecond * o.seconds);
  std::vector<ServeRequest> all;
  for (const auto& s : steps) all.insert(all.end(), s.begin(), s.end());
  for (std::size_t i = 0; i < sat_count; ++i) {
    const ServeRequest r = mix.next();
    all.push_back(r);
    sat_texts[i % kConnections].push_back(mix.text(r));
    sat_serials[i % kConnections].push_back(r.serial);
  }

  Loaded l = load_artifacts(art.ota_model, art.library);
  core::Annotator annotator(l.model.get(), ota_classes(),
                            std::move(l.library));
  serve::Server server(annotator, config);
  std::string error;
  if (!server.start(&error)) throw std::runtime_error(error);
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(
        std::make_unique<serve::Client>(client_options(socket)));
  }
  for (const TextInput& hot : mix.hot_set()) {  // warm the hot set
    if (!clients.front()->annotate(hot.name, hot.text).ok()) {
      throw std::runtime_error("serve warm-up request failed");
    }
  }

  const PerfSnapshot perf_start = perf_snapshot();
  std::vector<ConnectionLog> logs;  // every connection, every step
  double max_rate = 0.0;
  double top_lag_ms = 0.0;
  std::vector<json::Value> ladder;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const double start = now_seconds() + 0.01;
    std::vector<ConnectionLog> step =
        run_connections([&](std::size_t c, ConnectionLog& log) {
          open_loop(*clients[c], mix, steps[s], c, kConnections, start,
                    kLadder[s].rate, log);
        });
    std::vector<double> ms;
    double lag = 0.0;
    std::size_t sent = 0;
    for (const ConnectionLog& c : step) {
      ms.insert(ms.end(), c.ms.begin(), c.ms.end());
      lag = std::max(lag, c.lag);
      sent += c.sent;
    }
    const double p99 = quantile(ms, 0.99);
    const bool meets = sent == steps[s].size() && p99 <= kP99LimitMs &&
                       lag * 1e3 <= kLagLimitMs;
    if (meets) max_rate = std::max(max_rate, kLadder[s].rate);
    if (s + 1 == steps.size()) top_lag_ms = lag * 1e3;
    json::Value row{std::vector<json::Member>{}};
    row.set("rate", json::Value(kLadder[s].rate));
    row.set("scheduled",
            json::Value(static_cast<std::uint64_t>(steps[s].size())));
    row.set("sent", json::Value(static_cast<std::uint64_t>(sent)));
    row.set("p50_ms", json::Value(std::min(quantile(ms, 0.5), 1e9)));
    row.set("p99_ms", json::Value(std::min(p99, 1e9)));
    row.set("lag_ms", json::Value(lag * 1e3));
    row.set("meets_limit", json::Value(meets));
    ladder.push_back(std::move(row));
    for (ConnectionLog& c : step) logs.push_back(std::move(c));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // drain
  }

  // Saturation: both connections closed-loop.
  {
    const double start = now_seconds();
    std::vector<ConnectionLog> step =
        run_connections([&](std::size_t c, ConnectionLog& log) {
          closed_loop(*clients[c], sat_texts[c], sat_serials[c], log);
        });
    double finished = start;
    std::size_t done = 0;
    std::vector<double> ms;
    for (const ConnectionLog& c : step) {
      finished = std::max(finished, c.finished);
      done += c.responses.size();
      ms.insert(ms.end(), c.ms.begin(), c.ms.end());
    }
    record.metric("throughput_per_s",
                  static_cast<double>(done) / (finished - start), "1/s");
    latency_metrics(record, ms);
    for (ConnectionLog& c : step) logs.push_back(std::move(c));
  }
  record.metric("peak_rss_mb", peak_rss_mb(), "MB");
  const PerfSnapshot perf = perf_snapshot() - perf_start;
  const serve::ServerStats stats = server.stats();
  clients.clear();
  server.stop();

  std::vector<Response> responses;
  for (const ConnectionLog& c : logs) {
    record.add_attempts(c.sent, c.failed);
    responses.insert(responses.end(), c.responses.begin(), c.responses.end());
  }
  record.note("ladder", json::Value(std::move(ladder)));
  record.layer("serve.max_rate_rps", max_rate);
  record.layer("serve.generator_lag_ms", top_lag_ms);
  record.layer("serve.overloaded", static_cast<double>(stats.overloaded));
  record.layer("serve.deadline_expired",
               static_cast<double>(stats.deadline_expired));
  record.layer("serve.protocol_errors",
               static_cast<double>(stats.protocol_errors));
  record.layer("serve.dropped_connections",
               static_cast<double>(stats.dropped_connections));
  cache_layers(record, perf);

  // Output check: seeded sample of responses vs. a cold offline run.
  const core::Annotator cold(l.model.get(), ota_classes(),
                             load_library(art.library));
  Rng pick(o.seed ^ 0x5eed);
  const std::size_t samples = std::min(responses.size(), o.size(1000, 100));
  std::vector<Response> chosen;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t j = i + pick.index(responses.size() - i);
    std::swap(responses[i], responses[j]);
    chosen.push_back(responses[i]);
  }
  const std::size_t bad = count_failures(
      chosen.size(), kConnections + kServerJobs, [&](std::size_t i) {
        return offline_digest(cold, mix.text(all[chosen[i].serial])) ==
               chosen[i].digest;
      });
  record.check("serve.responses_match_offline", bad == 0 && samples > 0,
               std::to_string(samples - bad) + " of " +
                   std::to_string(samples) +
                   " sampled responses byte-identical to a cold annotation");
  record.note("weights_fingerprint",
              json::Value(hex64(l.model->weights_fingerprint())));

  if (o.traced()) {
    std::vector<TextInput> inputs;
    for (std::size_t i = 0; i < std::min(all.size(), o.size(1000, 50)); ++i) {
      inputs.push_back(mix.text(all[i]));
    }
    traced_pass(*l.model, ota_classes(), load_library(art.library), inputs, o,
                record);
  }
}

}  // namespace gana::e2e
