// Preprocessing in id space (see preprocess.hpp for the passes).
//
// Two ordering rules decide which device survives a merge, and so the
// surviving names, values and aliases the goldens pin:
//  * merge_series visits internal nets in net-NAME order (the order of
//    Netlist::connectivity(), a std::map keyed by name), so the pass
//    sorts candidate net ids by their interned bytes -- never by id,
//    which would depend on the order names were first interned;
//  * merge_parallel only relies on key EQUALITY (it keeps the first
//    device per key and never iterates its key map), so canonical
//    drain/source ordering by id is as good as ordering by name.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "spice/interned.hpp"

namespace gana::spice {
namespace {

/// splitmix64-style mixing for the parallel-merge hash key.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h += 0x9e3779b97f4a7c15ull + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// Connection key for parallel-merge: devices with equal keys are
/// electrically parallel. MOS drain/source are interchangeable, so the
/// (d, s) pair is ordered canonically (by id; only equality matters).
struct ParallelKey {
  DeviceType type = DeviceType::Nmos;
  SymbolId model = kNoSymbol;
  std::array<SymbolId, 4> pins{kNoSymbol, kNoSymbol, kNoSymbol, kNoSymbol};

  bool operator==(const ParallelKey& o) const {
    return type == o.type && model == o.model && pins == o.pins;
  }
};

struct ParallelKeyHash {
  std::size_t operator()(const ParallelKey& k) const {
    std::uint64_t h = static_cast<std::uint64_t>(k.type);
    h = mix(h, static_cast<std::uint64_t>(k.model));
    for (const SymbolId p : k.pins) {
      h = mix(h, static_cast<std::uint64_t>(p));
    }
    return static_cast<std::size_t>(h);
  }
};

ParallelKey parallel_key(const InternedDevice& d) {
  ParallelKey key;
  key.type = d.type;
  key.model = d.model;
  if (is_mos(d.type)) {
    SymbolId a = d.pins[kDrain], b = d.pins[kSource];
    if (a > b) std::swap(a, b);
    key.pins = {a, d.pins[kGate], b, d.pins[kBody]};
  } else {
    SymbolId a = d.pins[0], b = d.pins[1];
    if (a > b) std::swap(a, b);
    key.pins[0] = a;
    key.pins[1] = b;
  }
  return key;
}

class InternedPreprocessor {
 public:
  InternedPreprocessor(InternedNetlist& netlist,
                       const PreprocessOptions& options)
      : netlist_(netlist), options_(options), rails_(netlist.syms) {
    m_key_ = netlist_.syms.intern("m");
    l_key_ = netlist_.syms.intern("l");
    for (const auto& [net, label] : netlist_.port_labels) {
      (void)label;
      protected_.insert(net);
    }
    for (const SymbolId g : netlist_.globals) protected_.insert(g);
  }

  PreprocessReport run() {
    if (!netlist_.is_flat()) {
      throw NetlistError(make_diag(DiagCode::NotFlat, Stage::Preprocess,
                                   "preprocess requires a flattened netlist"));
    }
    bool changed = true;
    while (changed) {
      changed = false;
      if (options_.remove_decaps) changed |= remove_decaps_pass();
      if (options_.remove_dummies) changed |= remove_dummies_pass();
      if (options_.merge_parallel) changed |= merge_parallel_pass();
      if (options_.merge_series) changed |= merge_series_pass();
    }
    netlist_.syms.flush_stats();
    return std::move(report_);
  }

 private:
  [[nodiscard]] std::string name_of(SymbolId id) const {
    return std::string(netlist_.syms.name(id));
  }

  bool is_dummy_mos(const InternedDevice& d) {
    if (!is_mos(d.type)) return false;
    const auto& p = d.pins;
    // Shorted channel: source tied to drain.
    if (p[kDrain] == p[kSource]) return true;
    // All channel terminals parked on rails (classic fill dummy).
    if (rails_.rail(p[kDrain]) && rails_.rail(p[kGate]) &&
        rails_.rail(p[kSource])) {
      return true;
    }
    // Gate tied to its own source (device permanently off) with drain on a
    // rail: edge dummy.
    if (p[kGate] == p[kSource] && rails_.rail(p[kDrain])) return true;
    return false;
  }

  bool is_decap(const InternedDevice& d) {
    if (d.type != DeviceType::Capacitor) return false;
    const auto& p = d.pins;
    if (p[0] == p[1]) return true;
    return rails_.rail(p[0]) && rails_.rail(p[1]);
  }

  template <typename Pred>
  bool remove_if_pass(Pred pred, bool decap) {
    auto& devs = netlist_.devices;
    const std::size_t before = devs.size();
    std::vector<InternedDevice> kept;
    kept.reserve(devs.size());
    for (auto& d : devs) {
      if (pred(d)) {
        report_.alias[name_of(d.name)] = "";
      } else {
        kept.push_back(std::move(d));
      }
    }
    devs = std::move(kept);
    const std::size_t removed = before - devs.size();
    (decap ? report_.removed_decaps : report_.removed_dummies) += removed;
    return removed > 0;
  }

  bool remove_decaps_pass() {
    return remove_if_pass([&](const InternedDevice& d) { return is_decap(d); },
                          true);
  }
  bool remove_dummies_pass() {
    return remove_if_pass(
        [&](const InternedDevice& d) { return is_dummy_mos(d); }, false);
  }

  bool merge_parallel_pass() {
    auto& devs = netlist_.devices;
    std::unordered_map<ParallelKey, std::size_t, ParallelKeyHash> first_by_key;
    std::vector<bool> drop(devs.size(), false);
    bool changed = false;
    for (std::size_t i = 0; i < devs.size(); ++i) {
      auto [it, inserted] = first_by_key.emplace(parallel_key(devs[i]), i);
      if (inserted) continue;
      InternedDevice& keep = devs[it->second];
      keep.param(m_key_) = multiplicity(keep) + multiplicity(devs[i]);
      if (keep.type == DeviceType::Capacitor ||
          keep.type == DeviceType::ISource) {
        keep.value += devs[i].value;  // parallel caps/currents add
      }
      report_.alias[name_of(devs[i].name)] = name_of(keep.name);
      drop[i] = true;
      ++report_.merged_parallel;
      changed = true;
    }
    if (changed) erase_marked(drop);
    return changed;
  }

  [[nodiscard]] double multiplicity(const InternedDevice& d) const {
    const double* m = d.find_param(m_key_);
    return m == nullptr ? 1.0 : *m;
  }

  bool merge_series_pass() {
    auto& devs = netlist_.devices;
    // net id -> (device index, pin index), in device/pin order -- the
    // same touch lists Netlist::connectivity() builds.
    std::unordered_map<SymbolId,
                       std::vector<std::pair<std::size_t, std::size_t>>>
        conn;
    for (std::size_t di = 0; di < devs.size(); ++di) {
      const auto& pins = devs[di].pins;
      for (std::size_t pi = 0; pi < pins.size(); ++pi) {
        conn[pins[pi]].push_back({di, pi});
      }
    }
    // Merges mutate device pins as the loop runs, so the visit order is
    // observable: visit nets in NAME order (see the file comment).
    std::vector<SymbolId> nets;
    nets.reserve(conn.size());
    for (const auto& [net, touches] : conn) {
      (void)touches;
      nets.push_back(net);
    }
    std::sort(nets.begin(), nets.end(), [&](SymbolId a, SymbolId b) {
      return netlist_.syms.name(a) < netlist_.syms.name(b);
    });

    std::vector<bool> drop(devs.size(), false);
    bool changed = false;
    for (const SymbolId net : nets) {
      const auto& touches = conn[net];
      if (touches.size() != 2) continue;  // internal node only
      if (rails_.rail(net) || protected_.count(net) != 0) continue;
      const auto [di, pi] = touches[0];
      const auto [dj, pj] = touches[1];
      if (di == dj || drop[di] || drop[dj]) continue;
      InternedDevice& a = devs[di];
      InternedDevice& b = devs[dj];
      if (a.type != b.type) continue;

      if (is_mos(a.type)) {
        // Series stack: the shared net is a channel terminal of both, the
        // gates are tied together, and the bodies match.
        const bool a_chan = (pi == kDrain || pi == kSource);
        const bool b_chan = (pj == kDrain || pj == kSource);
        if (!a_chan || !b_chan) continue;
        if (a.pins[kGate] != b.pins[kGate]) continue;
        if (a.pins[kBody] != b.pins[kBody]) continue;
        if (a.model != b.model) continue;
        // Outer terminals replace the merged channel.
        const std::size_t b_other = (pj == kDrain) ? kSource : kDrain;
        a.pins[pi] = b.pins[b_other];
        // Stacked devices emulate a longer channel.
        double* al = find_param_mut(a, l_key_);
        const double* bl = b.find_param(l_key_);
        if (al != nullptr && bl != nullptr) *al += *bl;
        report_.alias[name_of(b.name)] = name_of(a.name);
        drop[dj] = true;
        ++report_.merged_series;
        changed = true;
      } else if (a.type == DeviceType::Resistor) {
        a.pins[pi] = b.pins[1 - pj];
        a.value += b.value;
        report_.alias[name_of(b.name)] = name_of(a.name);
        drop[dj] = true;
        ++report_.merged_series;
        changed = true;
      }
    }
    if (changed) erase_marked(drop);
    return changed;
  }

  static double* find_param_mut(InternedDevice& d, SymbolId key) {
    for (auto& p : d.params) {
      if (p.key == key) return &p.value;
    }
    return nullptr;
  }

  void erase_marked(const std::vector<bool>& drop) {
    auto& devs = netlist_.devices;
    std::vector<InternedDevice> kept;
    kept.reserve(devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i) {
      if (!drop[i]) kept.push_back(std::move(devs[i]));
    }
    devs = std::move(kept);
  }

  InternedNetlist& netlist_;
  const PreprocessOptions& options_;
  PreprocessReport report_;
  NetClassCache rails_;
  std::unordered_set<SymbolId> protected_;
  SymbolId m_key_ = kNoSymbol;
  SymbolId l_key_ = kNoSymbol;
};

}  // namespace

PreprocessReport preprocess_interned(InternedNetlist& netlist,
                                     const PreprocessOptions& options) {
  return InternedPreprocessor(netlist, options).run();
}

}  // namespace gana::spice
