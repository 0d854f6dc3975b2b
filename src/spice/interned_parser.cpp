// The SPICE parser (see parser.hpp for the grammar and interned.hpp for
// the id-space result).
//
// It makes exactly one pass-sized allocation -- a lower-cased copy of
// the whole input -- and lexes `std::string_view` tokens straight out of
// it, instead of copying every line and every token into its own string.
// A logical line is a sequence of physical-line segments: a continuation
// reads as its card's text joined with ' ' and the '+' dropped, so no
// token ever spans a segment boundary. The only tokens that need
// materialization are the rare "w = 1u" -> "w=1u" merges, which land in
// a small side buffer.
#include <cctype>
#include <cmath>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "spice/interned.hpp"
#include "spice/number.hpp"
#include "spice/parser.hpp"
#include "util/deadline.hpp"
#include "util/perf.hpp"
#include "util/strings.hpp"

namespace gana::spice {
namespace {

/// True if a normalized (trimmed, lower-cased) logical line is a device,
/// instance, or directive card rather than free-form title prose.
bool looks_like_card(const std::string& s) {
  if (s.empty()) return false;
  const char c = s.front();
  if (c == '.') return true;
  // A device/instance card: recognized leading letter and the minimum
  // token count for that card type (so prose titles like "my amplifier"
  // are not mistaken for MOS cards).
  const std::size_t tokens = split_ws(s).size();
  switch (c) {
    case 'm': return tokens >= 6;
    case 'r':
    case 'c':
    case 'l': return tokens >= 4;
    case 'v':
    case 'i':
    case 'x': return tokens >= 3;
    default: return false;
  }
}

/// std::isspace in the C locale, without the per-char function call.
bool is_space(char c) {
  switch (c) {
    case ' ': case '\t': case '\n': case '\v': case '\f': case '\r':
      return true;
    default:
      return false;
  }
}

bool is_param_token(std::string_view t) {
  return t.find('=') != std::string_view::npos;
}

/// One logical line: `count` physical-line segments starting at
/// `first` in the shared segment pool. Continuation segments keep their
/// leading '+' (it reads as the ' ' that joins them to the card).
struct Logical {
  std::size_t number = 0;       ///< 1-based first physical line
  std::uint32_t first = 0;      ///< index into the segment pool
  std::uint32_t count = 0;
  std::size_t joined_size = 0;  ///< length of the joined logical text
};

class InternedParser {
 public:
  InternedParser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  InternedNetlist run() {
    perf::count_parse_bytes(text_.size());
    // Per-request deadline / fault-injection site at parse entry; the
    // loop below re-checks the deadline every 256 logical lines so a
    // huge input cannot overstay its budget by a whole parse.
    checkpoint(Stage::Parse);
    split_lines();
    std::size_t i = 0;
    // Only the physically-first line can be a title (SPICE convention);
    // anything later that fails to parse is an error, not a title.
    if (!lines_.empty() && lines_[0].number == 1) {
      const std::string joined = join_logical(lines_[0]);
      if (!looks_like_card(joined)) {
        netlist_.title = joined;
        i = 1;
      }
    }
    // First pass: collect .model cards so device typing is order-independent.
    for (std::size_t j = i; j < lines_.size(); ++j) {
      // Cheap gate: only dot-directives can be .model cards, so the
      // prescan never tokenizes device lines.
      if (segs_[lines_[j].first].front() != '.') continue;
      tokenize(lines_[j], tokens_);
      if (tokens_.size() >= 3 && tokens_[0] == ".model") {
        if (tokens_[2] == "pmos") set_model(tokens_[1], DeviceType::Pmos);
        if (tokens_[2] == "nmos") set_model(tokens_[1], DeviceType::Nmos);
      }
    }
    for (; i < lines_.size(); ++i) {
      if ((i & 255u) == 0) check_deadline(Stage::Parse);
      parse_card(lines_[i]);
    }
    if (cur_ != kNoScope) {
      throw ParseError(make_diag(
          DiagCode::SyntaxError, Stage::Parse,
          "unterminated .subckt " +
              std::string(netlist_.syms.name(netlist_.subckts[cur_].name)),
          loc(netlist_.subckts[cur_].src_line)));
    }
    validate_interned(netlist_, options_.source);
    netlist_.syms.flush_stats();
    return std::move(netlist_);
  }

 private:
  static constexpr std::size_t kNoScope = static_cast<std::size_t>(-1);

  [[nodiscard]] SourceLoc loc(std::size_t line_number) const {
    return SourceLoc{options_.source, line_number};
  }

  [[noreturn]] void fail(const Logical& line, DiagCode code,
                         const std::string& what) const {
    std::string shown = join_logical(line);
    if (shown.size() > 120) shown = shown.substr(0, 117) + "...";
    throw ParseError(make_diag(code, Stage::Parse, what + " [" + shown + "]",
                               loc(line.number)));
  }

  [[noreturn]] void fail_limit(std::size_t line_number,
                               const std::string& what) const {
    throw ParseError(make_diag(DiagCode::LimitExceeded, Stage::Parse, what,
                               loc(line_number)));
  }

  /// The logical-line text: segments joined with ' ', continuation '+'
  /// dropped. Cold path -- only titles and error messages ever
  /// materialize it.
  [[nodiscard]] std::string join_logical(const Logical& line) const {
    std::string out{segs_[line.first]};
    for (std::uint32_t s = 1; s < line.count; ++s) {
      std::string_view seg = segs_[line.first + s];
      out.push_back(' ');
      out.append(seg.data() + 1, seg.size() - 1);
    }
    return out;
  }

  /// Splits the lower-cased buffer into comment-stripped, trimmed
  /// logical-line segments, applying the input-size guards.
  void split_lines() {
    const ParseLimits& lim = options_.limits;
    if (lim.max_input_bytes != 0 && text_.size() > lim.max_input_bytes) {
      fail_limit(0, "input is " + std::to_string(text_.size()) +
                        " bytes, limit " + std::to_string(lim.max_input_bytes));
    }
    // The single fast-path allocation: one lower-cased copy of the whole
    // input that every token view points into.
    buf_.resize(text_.size());
    for (std::size_t i = 0; i < text_.size(); ++i) {
      buf_[i] = static_cast<char>(
          std::tolower(static_cast<unsigned char>(text_[i])));
    }
    perf::count_frontend_alloc();

    const std::string_view buf{buf_};
    std::size_t lineno = 0;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      std::size_t nl = buf.find('\n', pos);
      if (nl == std::string_view::npos) nl = buf.size();
      std::string_view raw = buf.substr(pos, nl - pos);
      pos = nl + 1;
      ++lineno;
      if (lim.max_lines != 0 && lineno > lim.max_lines) {
        fail_limit(lineno, "more than " + std::to_string(lim.max_lines) +
                               " lines of input");
      }
      if (lim.max_line_length != 0 && raw.size() > lim.max_line_length) {
        fail_limit(lineno, "line is " + std::to_string(raw.size()) +
                               " bytes, limit " +
                               std::to_string(lim.max_line_length));
      }
      // Strip inline comments ('$' or ';' to end of line).
      const auto cpos = raw.find_first_of("$;");
      if (cpos != std::string_view::npos) raw = raw.substr(0, cpos);
      const std::string_view s = trim(raw);
      if (s.empty()) continue;
      if (s.front() == '*') continue;  // full-line comment
      if (s.front() == '+') {
        if (lines_.empty()) {
          throw ParseError(make_diag(DiagCode::SyntaxError, Stage::Parse,
                                     "continuation with no preceding card",
                                     loc(lineno)));
        }
        Logical& prev = lines_.back();
        if (lim.max_logical_line_length != 0 &&
            prev.joined_size + s.size() > lim.max_logical_line_length) {
          fail_limit(lineno, "continuation chain exceeds " +
                                 std::to_string(lim.max_logical_line_length) +
                                 " bytes");
        }
        segs_.push_back(s);
        ++prev.count;
        prev.joined_size += s.size();  // '+' -> ' ', so length is unchanged
      } else {
        Logical line;
        line.number = lineno;
        line.first = static_cast<std::uint32_t>(segs_.size());
        line.count = 1;
        line.joined_size = s.size();
        segs_.push_back(s);
        lines_.push_back(line);
      }
    }
  }

  /// split_ws across the logical line's segments; tokens are views into
  /// the lower-cased buffer.
  void tokenize(const Logical& line, std::vector<std::string_view>& out) const {
    out.clear();
    for (std::uint32_t s = 0; s < line.count; ++s) {
      std::string_view seg = segs_[line.first + s];
      if (s > 0) seg.remove_prefix(1);  // the '+' joins as a space
      std::size_t i = 0;
      while (i < seg.size()) {
        while (i < seg.size() && is_space(seg[i])) ++i;
        std::size_t j = i;
        while (j < seg.size() && !is_space(seg[j])) ++j;
        if (j > i) out.push_back(seg.substr(i, j - i));
        i = j;
      }
    }
  }

  /// Splits "key=value" tokens back together, tolerating spaces around
  /// '=' ("w", "=", "1u" / "w=", "1u" / "w", "=1u" -> "w=1u"). Merged
  /// tokens have no contiguous source bytes, so they materialize into
  /// `merged_` (cleared per card; interning copies what survives).
  void normalize_tokens(std::vector<std::string_view>& t) {
    norm_.clear();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i] == "=" && !norm_.empty() && i + 1 < t.size()) {
        ++i;
        merged_.emplace_back(std::string(norm_.back()) + "=" +
                             std::string(t[i]));
        norm_.back() = merged_.back();
      } else if (ends_with(t[i], "=") && i + 1 < t.size()) {
        std::string merged{t[i]};
        ++i;
        merged += t[i];
        merged_.push_back(std::move(merged));
        norm_.push_back(merged_.back());
      } else if (starts_with(t[i], "=") && !norm_.empty()) {
        merged_.emplace_back(std::string(norm_.back()) + std::string(t[i]));
        norm_.back() = merged_.back();
      } else {
        norm_.push_back(t[i]);
      }
    }
    t.swap(norm_);
  }

  void set_model(std::string_view name, DeviceType type) {
    auto it = models_.find(name);
    if (it != models_.end()) {
      it->second = type;
    } else {
      models_.emplace(std::string(name), type);
    }
  }

  DeviceType mos_type_from_model(std::string_view model,
                                 const Logical& line) const {
    auto it = models_.find(model);
    if (it != models_.end()) return it->second;
    // Heuristic fallback on the model name, as used by common PDKs.
    if (model.find("pmos") != std::string_view::npos ||
        model.find("pch") != std::string_view::npos ||
        model.find("pfet") != std::string_view::npos ||
        starts_with(model, "p")) {
      return DeviceType::Pmos;
    }
    if (model.find("nmos") != std::string_view::npos ||
        model.find("nch") != std::string_view::npos ||
        model.find("nfet") != std::string_view::npos ||
        starts_with(model, "n")) {
      return DeviceType::Nmos;
    }
    fail(line, DiagCode::BadValue,
         "cannot infer NMOS/PMOS from model '" + std::string(model) + "'");
  }

  void parse_card(const Logical& line) {
    merged_.clear();
    tokenize(line, tokens_);
    normalize_tokens(tokens_);
    const std::vector<std::string_view>& t = tokens_;
    if (t.empty()) return;
    const std::string_view head = t[0];

    if (head.front() == '.') {
      parse_directive(line, t);
      return;
    }
    switch (head.front()) {
      case 'm': parse_mos(line, t); break;
      case 'r': parse_two_pin(line, t, DeviceType::Resistor); break;
      case 'c': parse_two_pin(line, t, DeviceType::Capacitor); break;
      case 'l': parse_two_pin(line, t, DeviceType::Inductor); break;
      case 'v': parse_source(line, t, DeviceType::VSource); break;
      case 'i': parse_source(line, t, DeviceType::ISource); break;
      case 'x': parse_instance(line, t); break;
      default:
        fail(line, DiagCode::SyntaxError,
             "unrecognized card '" + std::string(head) + "'");
    }
  }

  void parse_directive(const Logical& line,
                       const std::vector<std::string_view>& t) {
    const std::string_view d = t[0];
    if (d == ".subckt") {
      if (cur_ != kNoScope) {
        fail(line, DiagCode::SyntaxError,
             "nested .subckt definitions are not supported");
      }
      if (t.size() < 2) {
        fail(line, DiagCode::SyntaxError, ".subckt needs a name");
      }
      InternedSubckt def;
      def.name = netlist_.syms.intern(t[1]);
      def.src_line = line.number;
      for (std::size_t i = 2; i < t.size(); ++i) {
        if (is_param_token(t[i])) break;  // parameter defaults: ignored
        def.ports.push_back(netlist_.syms.intern(t[i]));
      }
      if (netlist_.find_subckt(def.name) != InternedNetlist::npos) {
        fail(line, DiagCode::DuplicateName,
             "duplicate subckt " + std::string(t[1]));
      }
      cur_ = netlist_.subckts.size();
      netlist_.subckts.push_back(std::move(def));
    } else if (d == ".ends") {
      if (cur_ == kNoScope) {
        fail(line, DiagCode::SyntaxError, ".ends without .subckt");
      }
      cur_ = kNoScope;
    } else if (d == ".global") {
      for (std::size_t i = 1; i < t.size(); ++i) {
        const SymbolId id = netlist_.syms.intern(t[i]);
        bool present = false;
        for (const SymbolId g : netlist_.globals) present |= (g == id);
        if (!present) netlist_.globals.push_back(id);
      }
    } else if (d == ".portlabel") {
      if (t.size() < 3) {
        fail(line, DiagCode::SyntaxError, ".portlabel needs <net> <label>");
      }
      auto label = port_label_from_string(std::string(t[2]));
      if (!label) {
        fail(line, DiagCode::BadValue,
             "unknown port label '" + std::string(t[2]) + "'");
      }
      const SymbolId net = netlist_.syms.intern(t[1]);
      bool found = false;
      for (auto& [id, l] : netlist_.port_labels) {
        if (id == net) {
          l = *label;
          found = true;
        }
      }
      if (!found) netlist_.port_labels.emplace_back(net, *label);
    } else if (d == ".param") {
      // .param name=value [name=value ...]; values may reference
      // previously defined parameters.
      for (std::size_t i = 1; i < t.size(); ++i) {
        std::string_view key, value;
        if (!split_kv(t[i], key, value) || key.empty()) {
          fail(line, DiagCode::SyntaxError,
               "malformed .param entry '" + std::string(t[i]) + "'");
        }
        const auto v = resolve_value(value);
        if (!v) {
          fail(line, DiagCode::BadValue,
               "unresolvable .param value '" + std::string(t[i]) + "'");
        }
        check_finite(*v, line, t[i]);
        auto it = params_.find(key);
        if (it != params_.end()) {
          it->second = *v;
        } else {
          params_.emplace(std::string(key), *v);
        }
      }
    } else if (d == ".model" || d == ".end" ||
               d == ".option" || d == ".options" || d == ".temp" ||
               d == ".include" || d == ".lib" || d == ".op" || d == ".tran" ||
               d == ".ac" || d == ".dc") {
      // Simulation/bookkeeping directives are irrelevant to recognition.
    } else {
      fail(line, DiagCode::UnknownDirective,
           "unsupported directive '" + std::string(d) + "'");
    }
  }

  std::vector<InternedDevice>& device_sink() {
    return cur_ != kNoScope ? netlist_.subckts[cur_].devices
                            : netlist_.devices;
  }
  std::vector<InternedInstance>& instance_sink() {
    return cur_ != kNoScope ? netlist_.subckts[cur_].instances
                            : netlist_.instances;
  }

  /// "key=value" with exactly one '=' (either side may be empty),
  /// split without building strings.
  static bool split_kv(std::string_view t, std::string_view& key,
                       std::string_view& value) {
    const auto eq = t.find('=');
    if (eq == std::string_view::npos) return false;
    if (t.find('=', eq + 1) != std::string_view::npos) return false;
    key = t.substr(0, eq);
    value = t.substr(eq + 1);
    return true;
  }

  /// Numeric literal, or a name defined by a prior .param, or a literal
  /// wrapped in quotes/braces ("{2*w}" is NOT evaluated -- expressions
  /// beyond direct references are unsupported).
  std::optional<double> resolve_value(std::string_view token) const {
    if (auto v = parse_number(token)) return v;
    std::string_view name = token;
    if (name.size() >= 2 && ((name.front() == '\'' && name.back() == '\'') ||
                             (name.front() == '{' && name.back() == '}'))) {
      name = name.substr(1, name.size() - 2);
    }
    auto it = params_.find(name);
    if (it != params_.end()) return it->second;
    return std::nullopt;
  }

  /// Rejects overflowed literals like 1e999 right at the card: a single
  /// Inf would otherwise propagate through features into every GCN
  /// activation of the circuit.
  void check_finite(double v, const Logical& line,
                    std::string_view token) const {
    if (!std::isfinite(v)) {
      fail(line, DiagCode::NonFinite,
           "non-finite value '" + std::string(token) + "'");
    }
  }

  void parse_params(const std::vector<std::string_view>& t, std::size_t from,
                    const Logical& line, InternedDevice& dev) {
    for (std::size_t i = from; i < t.size(); ++i) {
      if (!is_param_token(t[i])) {
        fail(line, DiagCode::SyntaxError,
             "unexpected token '" + std::string(t[i]) + "'");
      }
      std::string_view key, value;
      if (!split_kv(t[i], key, value) || key.empty()) {
        fail(line, DiagCode::SyntaxError,
             "malformed parameter '" + std::string(t[i]) + "'");
      }
      auto v = resolve_value(value);
      if (!v) {
        fail(line, DiagCode::BadValue,
             "non-numeric parameter value '" + std::string(t[i]) + "'");
      }
      check_finite(*v, line, t[i]);
      dev.param(netlist_.syms.intern(key)) = *v;
    }
  }

  void parse_mos(const Logical& line, const std::vector<std::string_view>& t) {
    // Mname d g s b model [params...]
    if (t.size() < 6) {
      fail(line, DiagCode::SyntaxError,
           "MOS card needs name, 4 nets, and a model");
    }
    InternedDevice dev;
    dev.name = netlist_.syms.intern(t[0]);
    dev.src_line = line.number;
    for (std::size_t p = 1; p <= 4; ++p) {
      dev.pins.push_back(netlist_.syms.intern(t[p]));
    }
    if (is_param_token(t[5])) {
      fail(line, DiagCode::SyntaxError, "MOS card is missing its model name");
    }
    dev.model = netlist_.syms.intern(t[5]);
    dev.type = mos_type_from_model(t[5], line);
    parse_params(t, 6, line, dev);
    device_sink().push_back(std::move(dev));
  }

  void parse_two_pin(const Logical& line,
                     const std::vector<std::string_view>& t, DeviceType type) {
    // Rname n1 n2 value [params...]
    if (t.size() < 4) {
      fail(line, DiagCode::SyntaxError,
           "passive card needs name, 2 nets, value");
    }
    InternedDevice dev;
    dev.name = netlist_.syms.intern(t[0]);
    dev.type = type;
    dev.src_line = line.number;
    dev.pins.push_back(netlist_.syms.intern(t[1]));
    dev.pins.push_back(netlist_.syms.intern(t[2]));
    auto v = resolve_value(t[3]);
    if (!v) {
      fail(line, DiagCode::BadValue, "bad value '" + std::string(t[3]) + "'");
    }
    check_finite(*v, line, t[3]);
    dev.value = *v;
    parse_params(t, 4, line, dev);
    device_sink().push_back(std::move(dev));
  }

  void parse_source(const Logical& line,
                    const std::vector<std::string_view>& t, DeviceType type) {
    // Vname n+ n- [dc] value  |  Vname n+ n-
    if (t.size() < 3) {
      fail(line, DiagCode::SyntaxError, "source card needs name and 2 nets");
    }
    InternedDevice dev;
    dev.name = netlist_.syms.intern(t[0]);
    dev.type = type;
    dev.src_line = line.number;
    dev.pins.push_back(netlist_.syms.intern(t[1]));
    dev.pins.push_back(netlist_.syms.intern(t[2]));
    std::size_t i = 3;
    if (i < t.size() && t[i] == "dc") ++i;
    if (i < t.size() && !is_param_token(t[i])) {
      auto v = parse_number(t[i]);
      if (!v) {
        fail(line, DiagCode::BadValue,
             "bad source value '" + std::string(t[i]) + "'");
      }
      check_finite(*v, line, t[i]);
      dev.value = *v;
      ++i;
    }
    parse_params(t, i, line, dev);
    device_sink().push_back(std::move(dev));
  }

  void parse_instance(const Logical& line,
                      const std::vector<std::string_view>& t) {
    // Xname net1 ... netN subcktname [params...]
    if (t.size() < 3) {
      fail(line, DiagCode::SyntaxError, "instance card needs nets and a subckt");
    }
    InternedInstance inst;
    inst.name = netlist_.syms.intern(t[0]);
    inst.src_line = line.number;
    std::size_t end = t.size();
    while (end > 1 && is_param_token(t[end - 1])) --end;  // drop params
    if (end < 3) {
      fail(line, DiagCode::SyntaxError,
           "instance card needs at least one net");
    }
    inst.subckt = netlist_.syms.intern(t[end - 1]);
    inst.nets.reserve(end - 2);
    for (std::size_t i = 1; i < end - 1; ++i) {
      inst.nets.push_back(netlist_.syms.intern(t[i]));
    }
    instance_sink().push_back(std::move(inst));
  }

  std::string_view text_;
  const ParseOptions& options_;
  std::string buf_;                     ///< lower-cased whole-input copy
  std::vector<std::string_view> segs_;  ///< physical-line segment pool
  std::vector<Logical> lines_;
  std::vector<std::string_view> tokens_;  ///< reused per card
  std::vector<std::string_view> norm_;    ///< normalize_tokens scratch
  std::deque<std::string> merged_;        ///< storage for merged param tokens
  InternedNetlist netlist_;
  std::size_t cur_ = kNoScope;  ///< index of the open .subckt, if any
  std::map<std::string, DeviceType, std::less<>> models_;
  std::map<std::string, double, std::less<>> params_;  ///< .param definitions
};

}  // namespace

InternedNetlist parse_netlist_interned(std::string_view text,
                                       const ParseOptions& options) {
  return InternedParser(text, options).run();
}

InternedNetlist parse_netlist_file_interned(const std::string& path,
                                            const ParseLimits& limits) {
  const std::string text = read_netlist_text(path, limits);
  ParseOptions options;
  options.source = path;
  options.limits = limits;
  return parse_netlist_interned(text, options);
}

}  // namespace gana::spice
