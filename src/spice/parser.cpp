#include "spice/parser.hpp"

#include <algorithm>
#include <fstream>

#include "spice/interned.hpp"

namespace gana::spice {

Netlist parse_netlist(std::string_view text, const ParseOptions& options) {
  return materialize_netlist(parse_netlist_interned(text, options));
}

std::string read_netlist_text(const std::string& path,
                              const ParseLimits& limits) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError(make_diag(DiagCode::IoError, Stage::Io,
                               "cannot open file: " + path,
                               SourceLoc{path, 0}));
  }
  in.seekg(0, std::ios::end);
  const auto size_pos = in.tellg();
  if (size_pos < 0) {
    throw ParseError(make_diag(DiagCode::IoError, Stage::Io,
                               "cannot determine size of file: " + path,
                               SourceLoc{path, 0}));
  }
  const std::size_t size = static_cast<std::size_t>(size_pos);
  // Same rejection the parser itself would issue, but before a single
  // byte of an oversized file has been read into memory.
  if (limits.max_input_bytes != 0 && size > limits.max_input_bytes) {
    throw ParseError(make_diag(
        DiagCode::LimitExceeded, Stage::Parse,
        "input is " + std::to_string(size) + " bytes, limit " +
            std::to_string(limits.max_input_bytes),
        SourceLoc{path, 0}));
  }
  in.seekg(0, std::ios::beg);
  return read_probed_text(in, size, path);
}

std::string read_probed_text(std::istream& in, std::size_t probed_size,
                             const std::string& path) {
  std::string text(probed_size, '\0');
  in.read(text.data(), static_cast<std::streamsize>(probed_size));
  const std::size_t got = static_cast<std::size_t>(std::max<std::streamsize>(
      in.gcount(), 0));
  if (in.bad() || (got != probed_size && !in.eof())) {
    throw ParseError(make_diag(DiagCode::IoError, Stage::Io,
                               "cannot read file: " + path,
                               SourceLoc{path, 0}));
  }
  // The buffer was sized from a pre-read tellg probe; a file that
  // changes size between probe and read would otherwise be parsed as a
  // torn prefix (shrink -> short read padded with NULs, grow -> probed
  // prefix only). Verify the read delivered exactly the probed bytes
  // and that nothing trails them.
  if (got != probed_size) {
    throw ParseError(make_diag(
        DiagCode::IoError, Stage::Io,
        "file shrank while being read: " + path + " (expected " +
            std::to_string(probed_size) + " bytes, got " +
            std::to_string(got) + ")",
        SourceLoc{path, 0}));
  }
  in.clear();  // reading exactly to EOF may have latched eofbit
  if (in.peek() != std::istream::traits_type::eof()) {
    throw ParseError(make_diag(
        DiagCode::IoError, Stage::Io,
        "file grew while being read: " + path + " (trailing bytes after the " +
            std::to_string(probed_size) + "-byte size probe)",
        SourceLoc{path, 0}));
  }
  return text;
}

Netlist parse_netlist_file(const std::string& path, const ParseLimits& limits) {
  const std::string text = read_netlist_text(path, limits);
  ParseOptions options;
  options.source = path;
  options.limits = limits;
  return parse_netlist(text, options);
}

Result<Netlist> parse_netlist_result(std::string_view text,
                                     const ParseOptions& options) {
  try {
    return parse_netlist(text, options);
  } catch (const NetlistError& e) {
    return e.diag();
  } catch (const DiagError& e) {
    // Checkpoint aborts (expired deadline, injected fault) already carry
    // a structured Diag; pass it through rather than wrapping as
    // Internal.
    return e.diag();
  } catch (const std::exception& e) {
    return make_diag(DiagCode::Internal, Stage::Parse, e.what(),
                     SourceLoc{options.source, 0});
  }
}

Result<Netlist> parse_netlist_file_result(const std::string& path,
                                          const ParseLimits& limits) {
  try {
    return parse_netlist_file(path, limits);
  } catch (const NetlistError& e) {
    return e.diag();
  } catch (const DiagError& e) {
    return e.diag();
  } catch (const std::exception& e) {
    return make_diag(DiagCode::Internal, Stage::Parse, e.what(),
                     SourceLoc{path, 0});
  }
}

}  // namespace gana::spice
