#include "util/args.hpp"

#include <charconv>
#include <cmath>
#include <system_error>
#include <utility>

#include "util/strings.hpp"

namespace gana {

Args::Args(int argc, const char* const* argv,
           std::set<std::string> boolean_flags)
    : boolean_flags_(std::move(boolean_flags)) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (starts_with(a, "--")) {
      std::string body = a.substr(2);
      auto eq = body.find('=');
      std::string key = body.substr(0, eq);
      if (eq != std::string::npos) {
        flags_[key] = body.substr(eq + 1);
      } else if (boolean_flags_.count(key) == 0 && i + 1 < argc &&
                 !starts_with(argv[i + 1], "--")) {
        flags_[key] = argv[++i];
      } else {
        flags_[key] = "true";
      }
      flag_order_.push_back(std::move(key));
    } else {
      positional_.push_back(std::move(a));
    }
  }
}

bool Args::has(const std::string& key) const { return flags_.count(key) > 0; }

void Args::reject_unknown(const std::set<std::string>& known) const {
  for (const std::string& key : flag_order_) {
    if (known.count(key) == 0 && boolean_flags_.count(key) == 0) {
      throw ArgError("unknown flag --" + key);
    }
  }
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// Parses all of `text` as a T, or throws ArgError naming the flag.
template <typename T>
T parse_whole(const std::string& key, const std::string& text,
              const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw ArgError("--" + key + " expects " + expected + ", got '" + text +
                   "'");
  }
  return value;
}

}  // namespace

int Args::get_int(const std::string& key, int fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return parse_whole<int>(key, it->second, "an integer");
}

std::size_t Args::get_count(const std::string& key, std::size_t fallback,
                            int min, int max) const {
  if (!has(key)) return fallback;
  const int v = get_int(key, 0);
  if (v < min || v > max) {
    throw ArgError("--" + key + " expects an integer in [" +
                   std::to_string(min) + ", " + std::to_string(max) +
                   "], got '" + get(key) + "'");
  }
  return static_cast<std::size_t>(v);
}

std::uint64_t Args::get_u64(const std::string& key,
                           std::uint64_t fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return parse_whole<std::uint64_t>(key, it->second,
                                    "an unsigned 64-bit integer");
}

double Args::get_double(const std::string& key, double fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const double v = parse_whole<double>(key, it->second, "a number");
  if (!std::isfinite(v)) {
    throw ArgError("--" + key + " expects a finite number, got '" +
                   it->second + "'");
  }
  return v;
}

double Args::get_seconds(const std::string& key, double fallback) const {
  const double v = get_double(key, fallback);
  if (v < 0.0) {
    throw ArgError("--" + key + " expects seconds >= 0, got '" + get(key) +
                   "'");
  }
  return v;
}

double Args::get_fraction(const std::string& key, double fallback) const {
  const double v = get_double(key, fallback);
  if (v < 0.0 || v > 1.0) {
    throw ArgError("--" + key + " expects a value in [0, 1], got '" +
                   get(key) + "'");
  }
  return v;
}

}  // namespace gana
