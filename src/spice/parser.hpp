// SPICE netlist parser.
//
// Supports the subset needed by the GANA flow: device cards M/R/C/L/V/I,
// subcircuit definitions and instantiations, `.global`, `.model`, line
// continuations, comments, and a `.portlabel <net> <label>` extension for
// the designer-provided port annotations used by Postprocessing II.
//
// Every rejection carries a structured `gana::Diag` (code, stage, source
// file and 1-based line number). The throwing entry points raise
// ParseError; the `_result` variants return `Result<Netlist>` and never
// throw on malformed input.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "spice/netlist.hpp"

namespace gana::spice {

/// Thrown on malformed input; `diag()` has the source location.
class ParseError : public NetlistError {
 public:
  explicit ParseError(Diag diag) : NetlistError(std::move(diag)) {}
  explicit ParseError(const std::string& what)
      : NetlistError(what, DiagCode::SyntaxError, Stage::Parse) {}
};

/// Guards against adversarial inputs (AI-extracted or generated netlists
/// can be arbitrarily malformed): oversized files, unbounded single
/// lines, or pathological continuation chains are rejected with
/// DiagCode::LimitExceeded instead of being chewed through. Zero
/// disables an individual limit.
struct ParseLimits {
  std::size_t max_input_bytes = 64u << 20;  ///< 64 MiB of netlist text
  std::size_t max_line_length = 1u << 16;   ///< one physical line, bytes
  std::size_t max_logical_line_length = 1u << 20;  ///< after continuations
  std::size_t max_lines = 4u << 20;         ///< physical line count
};

struct ParseOptions {
  /// Source name used in diagnostics ("<input>" when empty).
  std::string source;
  ParseLimits limits;
};

/// Reads a netlist file into one in-memory buffer with a single read,
/// checking `limits.max_input_bytes` against the file size up front (so
/// an oversized file is rejected before its bytes are pulled in).
/// Throws ParseError with DiagCode::IoError when the file cannot be
/// opened, DiagCode::LimitExceeded when it is too large. Every file
/// entry point reads through it.
std::string read_netlist_text(const std::string& path,
                              const ParseLimits& limits = {});

/// The read step of read_netlist_text, split out for testability: pulls
/// exactly `probed_size` bytes (the pre-read tellg probe) from `in` and
/// verifies the file still matches the probe -- a short read (file
/// shrank; the buffer would carry a NUL-padded torn prefix) or trailing
/// bytes (file grew; the buffer would carry a truncated prefix) throw
/// ParseError with DiagCode::IoError naming `path`.
std::string read_probed_text(std::istream& in, std::size_t probed_size,
                             const std::string& path);

/// Parses a complete netlist from text. Case-insensitive; the first line
/// is treated as a title only if it does not look like a card or
/// directive (so library snippets without titles also parse). Runs the
/// id-space parser (`parse_netlist_interned`, spice/interned.hpp) and
/// materializes its result.
Netlist parse_netlist(std::string_view text, const ParseOptions& options = {});

/// Parses a netlist from a file on disk; diagnostics cite the path.
Netlist parse_netlist_file(const std::string& path,
                           const ParseLimits& limits = {});

/// Non-throwing variants: malformed input (or an unreadable file) comes
/// back as a Diag instead of an exception.
[[nodiscard]] Result<Netlist> parse_netlist_result(
    std::string_view text, const ParseOptions& options = {});
[[nodiscard]] Result<Netlist> parse_netlist_file_result(
    const std::string& path, const ParseLimits& limits = {});

}  // namespace gana::spice
