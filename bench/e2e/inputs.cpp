#include "inputs.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "datagen/phased_array.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"

namespace gana::e2e {

namespace {

constexpr std::uint64_t kCorpusSeed = 20260808;
constexpr std::size_t kCorpusCount = 100000;

bool is_rail(const spice::Netlist& netlist, const std::string& net) {
  return spice::is_supply_net(net) || spice::is_ground_net(net) ||
         netlist.globals.count(net) > 0;
}

std::vector<std::string> non_rail_nets(const spice::Netlist& netlist) {
  std::vector<std::string> out;
  for (const std::string& net : netlist.nets()) {
    if (!is_rail(netlist, net)) out.push_back(net);
  }
  return out;
}

/// Indices of the R and C devices, the ones structural edits touch.
std::vector<std::size_t> passives(const spice::Netlist& netlist) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < netlist.devices.size(); ++i) {
    const spice::DeviceType t = netlist.devices[i].type;
    if (t == spice::DeviceType::Resistor || t == spice::DeviceType::Capacitor) {
      out.push_back(i);
    }
  }
  return out;
}

/// The sized quantity of a device: MOS width, otherwise its value.
double& sizing(spice::Device& d) {
  if (spice::is_mos(d.type)) {
    const auto w = d.params.find("w");
    if (w != d.params.end()) return w->second;
  }
  return d.value;
}

}  // namespace

datagen::CorpusOptions corpus_options() {
  datagen::CorpusOptions options;
  options.seed = kCorpusSeed;
  options.count = kCorpusCount;
  return options;
}

std::vector<std::size_t> draw_indices(Rng& rng, std::size_t count,
                                      std::set<std::size_t>& used) {
  std::vector<std::size_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::size_t i = rng.index(kCorpusCount);
    if (used.insert(i).second) out.push_back(i);
  }
  return out;
}

datagen::LabeledCircuit phased_array_design(std::uint64_t seed) {
  Rng rng(seed);
  return datagen::generate_phased_array({}, rng);
}

spice::Netlist renamed_copy(const spice::Netlist& netlist, Rng& rng) {
  if (!netlist.instances.empty() || !netlist.subckts.empty()) {
    throw std::runtime_error("renamed_copy expects a flat netlist");
  }
  // A random stem keeps names unrelated to the originals; the serial
  // keeps them unique.
  const auto fresh_name = [&rng](char prefix, std::size_t serial) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%cr%06llu_%zu", prefix,
                  static_cast<unsigned long long>(rng.next_u64() % 1000000),
                  serial);
    return std::string(buf);
  };
  spice::Netlist out = netlist;
  std::map<std::string, std::string> nets;
  const auto rename_net = [&](const std::string& net) -> std::string {
    if (is_rail(netlist, net)) return net;
    auto it = nets.find(net);
    if (it == nets.end()) {
      it = nets.emplace(net, fresh_name('q', nets.size())).first;
    }
    return it->second;
  };
  // SPICE derives the card type from the first letter of the name.
  static constexpr char kLetter[] = {'m', 'm', 'r', 'c', 'l', 'v', 'i'};
  std::size_t k = 0;
  for (spice::Device& d : out.devices) {
    d.name = fresh_name(kLetter[static_cast<std::size_t>(d.type)], k++);
    for (std::string& pin : d.pins) pin = rename_net(pin);
  }
  std::map<std::string, spice::PortLabel> labels;
  for (const auto& [net, label] : out.port_labels) {
    labels.emplace(rename_net(net), label);
  }
  out.port_labels = std::move(labels);
  rng.shuffle(out.devices);
  return out;
}

ServeMix::ServeMix(std::uint64_t seed, std::size_t hot_count)
    : seed_(seed), rng_(seed) {
  const datagen::CorpusOptions corpus = corpus_options();
  for (std::size_t i : draw_indices(rng_, hot_count, used_)) {
    TextInput in{"hot" + std::to_string(hot_.size()),
                 datagen::corpus_netlist_text(corpus, i)};
    auto parsed = spice::parse_netlist_result(in.text);
    if (!parsed.ok()) {
      throw std::runtime_error("hot-set circuit does not parse: " +
                               parsed.diag().render());
    }
    hot_parsed_.push_back(parsed.take());
    hot_.push_back(std::move(in));
  }
}

ServeRequest ServeMix::next() {
  ServeRequest r;
  r.serial = serial_++;
  const double u = rng_.uniform();
  if (u < 0.4) {
    r.kind = ServeRequest::Kind::Fresh;
    r.index = draw_indices(rng_, 1, used_).front();
  } else {
    r.kind = u < 0.7 ? ServeRequest::Kind::Hot : ServeRequest::Kind::Renamed;
    r.index = rng_.index(hot_.size());
  }
  return r;
}

TextInput ServeMix::text(const ServeRequest& r) const {
  switch (r.kind) {
    case ServeRequest::Kind::Fresh:
      return {"fresh" + std::to_string(r.index),
              datagen::corpus_netlist_text(corpus_options(), r.index)};
    case ServeRequest::Kind::Hot:
      return hot_[r.index];
    case ServeRequest::Kind::Renamed: {
      Rng rng(seed_ ^ (0x9e3779b97f4a7c15ull * (r.serial + 1)));
      return {hot_[r.index].name + "~" + std::to_string(r.serial),
              spice::write_netlist(renamed_copy(hot_parsed_[r.index], rng))};
    }
  }
  return {};
}

const char* to_string(EditKind kind) {
  switch (kind) {
    case EditKind::Value: return "value";
    case EditKind::Bucket: return "bucket";
    case EditKind::Structural: return "structural";
  }
  return "?";
}

EditStream::EditStream(spice::Netlist base, std::uint64_t seed)
    : current_(std::move(base)), rng_(seed) {}

EditKind EditStream::advance() {
  if (block_.empty()) {
    block_.assign(16, EditKind::Value);
    block_.insert(block_.end(), 3, EditKind::Bucket);
    block_.push_back(EditKind::Structural);
    rng_.shuffle(block_);
  }
  const EditKind kind = block_.back();
  block_.pop_back();
  switch (kind) {
    case EditKind::Value: value_edit(); break;
    case EditKind::Bucket: bucket_edit(); break;
    case EditKind::Structural: structural_edit(); break;
  }
  return kind;
}

void EditStream::value_edit() {
  spice::Device& d = current_.devices[rng_.index(current_.devices.size())];
  sizing(d) *= 1.0 + rng_.uniform(-0.01, 0.01);
}

void EditStream::bucket_edit() {
  std::vector<std::size_t> mos;
  for (std::size_t i = 0; i < current_.devices.size(); ++i) {
    if (spice::is_mos(current_.devices[i].type)) mos.push_back(i);
  }
  if (mos.empty()) {
    value_edit();
    return;
  }
  // One width per feature bucket of core/features.cpp (< 2u, < 8u, >= 8u).
  static constexpr double kWidths[] = {1e-6, 4e-6, 16e-6};
  double& w = sizing(current_.devices[rng_.pick(mos)]);
  const std::size_t bucket = w < 2e-6 ? 0 : (w < 8e-6 ? 1 : 2);
  w = kWidths[(bucket + 1 + rng_.index(2)) % 3];
}

void EditStream::structural_edit() {
  if (structural_pending_) {
    current_ = saved_;
    structural_pending_ = false;
    return;
  }
  saved_ = current_;
  structural_pending_ = true;
  const std::vector<std::string> nets = non_rail_nets(current_);
  const std::vector<std::size_t> rc = passives(current_);
  const std::size_t kind = applied_++ % 3;
  if (kind == 0 && !rc.empty() && nets.size() > 2) {
    // Rewire: move the second pin of a passive to another signal net.
    spice::Device& d = current_.devices[rng_.pick(rc)];
    std::string net = rng_.pick(nets);
    while (net == d.pins[0] || net == d.pins[1]) net = rng_.pick(nets);
    d.pins[1] = net;
  } else if (kind == 1 && nets.size() > 1) {
    spice::Device c;
    c.name = "cbench" + std::to_string(applied_);
    c.type = spice::DeviceType::Capacitor;
    const std::string a = rng_.pick(nets);
    std::string b = rng_.pick(nets);
    while (b == a) b = rng_.pick(nets);
    c.pins = {a, b};
    c.value = 1e-13;
    current_.devices.push_back(std::move(c));
  } else if (!rc.empty()) {
    current_.devices.erase(current_.devices.begin() +
                           static_cast<std::ptrdiff_t>(rng_.pick(rc)));
  }
}

}  // namespace gana::e2e
