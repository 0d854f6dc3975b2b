// `bench_e2e compare A B`: two sets of run records, one verdict per
// workload and end-to-end metric under the BENCHMARK.json bounds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "e2e.hpp"

namespace gana::e2e {

namespace {

/// workload -> metric -> values of every valid record in a directory.
using Samples =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

Samples load_records(const std::string& dir) {
  namespace fs = std::filesystem;
  Samples out;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".json" &&
        name.find(".trace.") == std::string::npos) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    const json::Value record = read_json_file(file.string());
    const json::Value* workload = record.get("workload");
    const json::Value* metrics = record.get("metrics");
    if (workload == nullptr || metrics == nullptr) continue;
    if (const json::Value* valid = record.get("valid");
        valid == nullptr || !valid->as_bool()) {
      std::fprintf(stderr, "compare: skipping invalid record %s\n",
                   file.string().c_str());
      continue;
    }
    for (const auto& [name, m] : metrics->as_object()) {
      if (const json::Value* v = m.get("value")) {
        out[workload->as_string()][name].push_back(v->as_double());
      }
    }
  }
  return out;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the "exclusive" method), so verdicts agree with external tooling.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v.front();
    return {x, x, x};
  }
  const std::size_t m = v.size() + 1;
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, v.size() - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

}  // namespace

int compare_main(const std::string& a_dir, const std::string& b_dir,
                 const std::string& bench_json) {
  const json::Value bench = read_json_file(bench_json);
  const Samples a = load_records(a_dir);
  const Samples b = load_records(b_dir);
  bool any_worse = false;
  std::printf("%-15s %-17s %28s %28s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound",
              "verdict");
  for (const auto& [workload, a_metrics] : a) {
    const auto b_it = b.find(workload);
    if (b_it == b.end()) continue;
    for (const json::Value& decl : bench.get("end_to_end")->as_array()) {
      const std::string name = decl.get("name")->as_string();
      const bool lower = decl.get("better")->as_string() == "lower";
      const double bound = decl.get("bound")->as_double();
      const auto va = a_metrics.find(name);
      const auto vb = b_it->second.find(name);
      if (va == a_metrics.end() || vb == b_it->second.end()) continue;
      const Quartiles qa = quartiles(va->second);
      const Quartiles qb = quartiles(vb->second);
      const double base = std::max(std::fabs(qa.median), 1e-300);
      // Relative change, positive when B is better.
      const double gain =
          (lower ? qa.median - qb.median : qb.median - qa.median) / base;
      const double spread_a = (qa.q3 - qa.q1) / base;
      const double spread_b = (qb.q3 - qb.q1) / base;
      const auto [a_min, a_max] =
          std::minmax_element(va->second.begin(), va->second.end());
      const auto [b_min, b_max] =
          std::minmax_element(vb->second.begin(), vb->second.end());
      const bool b_beats_all = lower ? *b_max < *a_min : *b_min > *a_max;
      const char* verdict = "unchanged";
      if (gain < -bound) {
        verdict = "worse";
        any_worse = true;
      } else if (b_beats_all || (gain > spread_a && spread_a <= bound &&
                                 spread_b <= bound)) {
        verdict = gain > 0.0 ? "better" : "unchanged";
      } else if (spread_a > bound || spread_b > bound) {
        verdict = "unresolved";
      }
      std::printf("%-15s %-17s %10.4g [%.4g, %.4g] %2zu "
                  "%10.4g [%.4g, %.4g] %2zu %+7.2f%% %5.0f%%  %s\n",
                  workload.c_str(), name.c_str(), qa.median, qa.q1, qa.q3,
                  va->second.size(), qb.median, qb.q1, qb.q3, vb->second.size(),
                  -100.0 * (lower ? gain : -gain), bound * 100.0, verdict);
    }
  }
  return any_worse ? 1 : 0;
}

}  // namespace gana::e2e
