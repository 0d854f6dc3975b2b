// Structured-diagnostic contract: every rejection between ingest and
// hierarchy extraction is a gana::Diag carrying a machine-readable code,
// the rejecting stage, and the netlist source location. These tests pin
// the rendered message format (it is part of the CLI's output contract)
// and walk every parser/validator rejection path asserting file + line.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "spice/flatten.hpp"
#include "spice/parser.hpp"
#include "util/diag.hpp"

namespace gana {
namespace {

using spice::NetlistError;
using spice::ParseError;
using spice::parse_netlist;
using spice::parse_netlist_result;

// --- Diag / SourceLoc / Result basics. ------------------------------

TEST(Diag, RenderIncludesLocationStageCodeAndMessage) {
  const Diag d = make_diag(DiagCode::SyntaxError, Stage::Parse,
                           "unexpected token", SourceLoc{"amp.sp", 12});
  EXPECT_EQ(d.render(), "amp.sp:12: [parse/syntax-error] unexpected token");
}

TEST(Diag, RenderWithoutLocationOmitsPrefix) {
  const Diag d = make_diag(DiagCode::NotFlat, Stage::Preprocess, "not flat");
  EXPECT_EQ(d.render(), "[preprocess/not-flat] not flat");
}

TEST(Diag, RenderAnonymousSourceUsesInputPlaceholder) {
  const Diag d = make_diag(DiagCode::BadValue, Stage::Parse, "bad value",
                           SourceLoc{"", 3});
  EXPECT_EQ(d.render(), "<input>:3: [parse/bad-value] bad value");
}

TEST(Diag, RenderAppendsNotes) {
  const Diag d =
      make_diag(DiagCode::RecursiveSubckt, Stage::Flatten, "cycle",
                SourceLoc{"c.sp", 9}, {"x0 instantiates subckt a"});
  EXPECT_EQ(d.render(),
            "c.sp:9: [flatten/recursive-subckt] cycle"
            "\n  note: x0 instantiates subckt a");
}

TEST(Diag, FileOnlyLocationRendersWithoutLine) {
  const Diag d = make_diag(DiagCode::IoError, Stage::Io, "cannot open",
                           SourceLoc{"missing.sp", 0});
  EXPECT_EQ(d.render(), "missing.sp: [io/io-error] cannot open");
}

TEST(Diag, EveryStageAndCodeHasAName) {
  for (int s = 0; s <= static_cast<int>(Stage::Batch); ++s) {
    EXPECT_STRNE(to_string(static_cast<Stage>(s)), "?");
  }
  for (int c = 0; c <= static_cast<int>(DiagCode::Internal); ++c) {
    EXPECT_STRNE(to_string(static_cast<DiagCode>(c)), "?");
  }
}

TEST(Result, HoldsValueOrDiag) {
  Result<int> ok = 7;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.take(), 7);

  Result<int> bad = make_diag(DiagCode::Internal, Stage::Batch, "boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.diag().code, DiagCode::Internal);
  EXPECT_EQ(bad.diag().stage, Stage::Batch);
}

// --- Parser rejection paths carry file + line. -----------------------

/// Parses `text` (named `source`), expecting rejection; returns the Diag.
Diag parse_diag(const std::string& text, const std::string& source = {}) {
  spice::ParseOptions options;
  options.source = source;
  auto r = parse_netlist_result(text, options);
  EXPECT_FALSE(r.ok()) << "expected a parse failure for: " << text;
  return r.ok() ? Diag{} : r.diag();
}

TEST(ParserDiag, MissingValueOnPassiveCard) {
  const Diag d = parse_diag("* t\nr1 a b\n.end\n", "amp.sp");
  EXPECT_EQ(d.code, DiagCode::SyntaxError);
  EXPECT_EQ(d.stage, Stage::Parse);
  EXPECT_EQ(d.loc.file, "amp.sp");
  EXPECT_EQ(d.loc.line, 2u);
  EXPECT_NE(d.render().find("amp.sp:2:"), std::string::npos);
}

TEST(ParserDiag, BadValueToken) {
  const Diag d = parse_diag("* t\nr1 a b twelve\n.end\n");
  EXPECT_EQ(d.code, DiagCode::BadValue);
  EXPECT_EQ(d.loc.line, 2u);
  EXPECT_NE(d.render().find("<input>:2:"), std::string::npos);
  EXPECT_NE(d.message.find("twelve"), std::string::npos);
}

TEST(ParserDiag, UnknownCard) {
  const Diag d = parse_diag("* t\nq1 a b c pnp pnp pnp\n.end\n");
  EXPECT_EQ(d.code, DiagCode::SyntaxError);
  EXPECT_EQ(d.loc.line, 2u);
}

TEST(ParserDiag, UnknownDirective) {
  const Diag d = parse_diag("* t\n.fourier v(out)\n.end\n");
  EXPECT_EQ(d.code, DiagCode::UnknownDirective);
  EXPECT_EQ(d.loc.line, 2u);
}

TEST(ParserDiag, MalformedParam) {
  const Diag d = parse_diag("* t\n.param justname\n.end\n");
  EXPECT_EQ(d.code, DiagCode::SyntaxError);
  EXPECT_EQ(d.loc.line, 2u);
}

TEST(ParserDiag, NonFiniteLiteralRejectedAtTheCard) {
  const Diag d = parse_diag("* t\nr1 a b 1e999\n.end\n");
  EXPECT_EQ(d.code, DiagCode::NonFinite);
  EXPECT_EQ(d.loc.line, 2u);
}

TEST(ParserDiag, DuplicateSubckt) {
  const Diag d = parse_diag(
      "* t\n.subckt s a\nr1 a 0 1\n.ends\n.subckt s a\nr1 a 0 1\n.ends\n");
  EXPECT_EQ(d.code, DiagCode::DuplicateName);
  EXPECT_EQ(d.loc.line, 5u);
}

TEST(ParserDiag, UnterminatedSubcktPointsAtItsHeader) {
  const Diag d = parse_diag("* t\n.subckt foo a\nr1 a b 1\n.end\n");
  EXPECT_EQ(d.code, DiagCode::SyntaxError);
  EXPECT_EQ(d.loc.line, 2u) << "should point at the .subckt line";
  EXPECT_NE(d.message.find("foo"), std::string::npos);
}

TEST(ParserDiag, ContinuationWithNoCard) {
  const Diag d = parse_diag("+ w=1u\nr1 a b 1\n.end\n");
  EXPECT_EQ(d.code, DiagCode::SyntaxError);
  EXPECT_EQ(d.loc.line, 1u);
}

TEST(ParserDiag, ContinuationLineNumbersAttributeToFirstPhysicalLine) {
  // The MOS card spans lines 2-3; its (bad model) error reports line 2.
  const Diag d = parse_diag("* t\nm1 d g s b\n+ zz w=1u\n.end\n");
  EXPECT_EQ(d.loc.line, 2u);
}

TEST(ParserDiag, MissingFileIsAnIoDiag) {
  auto r = spice::parse_netlist_file_result("/nonexistent/netlist.sp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::IoError);
  EXPECT_EQ(r.diag().stage, Stage::Io);
  EXPECT_EQ(r.diag().loc.file, "/nonexistent/netlist.sp");
}

TEST(ParserDiag, ThrowingApiCarriesSameDiag) {
  try {
    parse_netlist("* t\nr1 a b twelve\n.end\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::BadValue);
    EXPECT_EQ(e.diag().loc.line, 2u);
    EXPECT_EQ(std::string(e.what()), e.diag().render());
  }
}

// --- Parser input-size guards. ---------------------------------------

TEST(ParserLimits, InputBytesGuard) {
  spice::ParseOptions options;
  options.limits.max_input_bytes = 16;
  const Diag d =
      [&] {
        auto r = parse_netlist_result("* title\nr1 a b 1k\n.end\n", options);
        EXPECT_FALSE(r.ok());
        return r.diag();
      }();
  EXPECT_EQ(d.code, DiagCode::LimitExceeded);
}

TEST(ParserLimits, LineLengthGuard) {
  spice::ParseOptions options;
  options.limits.max_line_length = 32;
  const std::string long_line = "r1 a b 1k " + std::string(64, 'x');
  auto r = parse_netlist_result("* t\n" + long_line + "\n.end\n", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::LimitExceeded);
  EXPECT_EQ(r.diag().loc.line, 2u);
}

TEST(ParserLimits, LineCountGuard) {
  spice::ParseOptions options;
  options.limits.max_lines = 4;
  auto r = parse_netlist_result("* t\nr1 a b 1\nr2 a b 1\nr3 a b 1\nr4 a b 1\n",
                                options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::LimitExceeded);
}

TEST(ParserLimits, ContinuationChainGuard) {
  spice::ParseOptions options;
  options.limits.max_logical_line_length = 24;
  auto r = parse_netlist_result(
      "* t\nr1 a b 1k\n+ p1=1 p2=2 p3=3 p4=4 p5=5\n.end\n", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::LimitExceeded);
  EXPECT_EQ(r.diag().loc.line, 3u);
}

TEST(ParserLimits, ZeroDisablesGuards) {
  spice::ParseOptions options;
  options.limits = spice::ParseLimits{0, 0, 0, 0};
  auto r = parse_netlist_result("* t\nr1 a b 1k\n.end\n", options);
  EXPECT_TRUE(r.ok());
}

// --- Netlist::check / validate location diagnostics. ------------------

TEST(ValidateDiag, BadPinCountPointsAtTheCard) {
  spice::Netlist n;
  spice::Device d;
  d.name = "m1";
  d.type = spice::DeviceType::Nmos;
  d.pins = {"d", "g"};  // MOS needs 4
  d.src_line = 17;
  n.devices.push_back(d);
  auto diag = n.check("bad.sp");
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ(diag->code, DiagCode::BadPinCount);
  EXPECT_EQ(diag->stage, Stage::Validate);
  EXPECT_EQ(diag->loc.file, "bad.sp");
  EXPECT_EQ(diag->loc.line, 17u);
  EXPECT_NE(diag->render().find("bad.sp:17:"), std::string::npos);
}

TEST(ValidateDiag, DuplicateDeviceName) {
  spice::Netlist n;
  spice::Device d;
  d.name = "r1";
  d.type = spice::DeviceType::Resistor;
  d.pins = {"a", "b"};
  d.src_line = 2;
  n.devices.push_back(d);
  d.src_line = 5;
  n.devices.push_back(d);
  auto diag = n.check();
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ(diag->code, DiagCode::DuplicateName);
  EXPECT_EQ(diag->loc.line, 5u) << "should point at the second definition";
}

TEST(ValidateDiag, NonFiniteDeviceValue) {
  spice::Netlist n;
  spice::Device d;
  d.name = "r1";
  d.type = spice::DeviceType::Resistor;
  d.pins = {"a", "b"};
  d.value = std::numeric_limits<double>::infinity();
  n.devices.push_back(d);
  auto diag = n.check();
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ(diag->code, DiagCode::NonFinite);
}

TEST(ValidateDiag, UndefinedSubcktInstance) {
  spice::Netlist n;
  spice::Instance i;
  i.name = "x0";
  i.subckt = "missing";
  i.nets = {"a"};
  i.src_line = 4;
  n.instances.push_back(i);
  auto diag = n.check("top.sp");
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ(diag->code, DiagCode::UndefinedSubckt);
  EXPECT_EQ(diag->loc.line, 4u);
}

TEST(ValidateDiag, ValidateThrowsTheCheckDiag) {
  spice::Netlist n;
  spice::Device d;  // unnamed
  d.type = spice::DeviceType::Resistor;
  d.pins = {"a", "b"};
  n.devices.push_back(d);
  try {
    n.validate("v.sp");
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::EmptyName);
    EXPECT_EQ(e.diag().loc.file, "v.sp");
  }
}

TEST(ValidateDiag, SevenPinDeviceIsBadPinCount) {
  // More pins than any device type has: rejected at the card, never
  // written past the per-device pin storage.
  spice::Netlist n;
  spice::Device d;
  d.name = "rwide";
  d.type = spice::DeviceType::Resistor;
  d.pins = {"a", "b", "c", "d", "e", "f", "g"};
  d.src_line = 9;
  n.devices.push_back(d);
  auto diag = n.check("seven.sp");
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ(diag->code, DiagCode::BadPinCount);
  EXPECT_EQ(diag->stage, Stage::Validate);
  EXPECT_EQ(diag->message, "device rwide in top level has 7 pins, expected 2");
  EXPECT_EQ(diag->loc.file, "seven.sp");
  EXPECT_EQ(diag->loc.line, 9u);

  // The same inside a subckt definition names the subckt as the scope.
  spice::Netlist sub;
  spice::SubcktDef def;
  def.name = "cell";
  def.ports = {"a"};
  spice::Device m;
  m.name = "m1";
  m.type = spice::DeviceType::Nmos;
  m.pins = {"a", "b", "c", "d", "e"};
  m.src_line = 6;
  def.devices.push_back(m);
  sub.subckts.emplace(def.name, def);
  diag = sub.check("cell.sp");
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ(diag->code, DiagCode::BadPinCount);
  EXPECT_EQ(diag->message, "device m1 in subckt cell has 5 pins, expected 4");
  EXPECT_EQ(diag->loc.file, "cell.sp");
  EXPECT_EQ(diag->loc.line, 6u);
}

TEST(ValidateDiag, UnnamedFirstDeviceIsEmptyName) {
  spice::Netlist n;
  spice::Device d;  // unnamed, and the very first name the check sees
  d.type = spice::DeviceType::Resistor;
  d.pins = {"a", "b"};
  d.src_line = 3;
  n.devices.push_back(d);
  auto diag = n.check("anon.sp");
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ(diag->code, DiagCode::EmptyName);
  EXPECT_EQ(diag->stage, Stage::Validate);
  EXPECT_EQ(diag->message, "unnamed device in top level");
  EXPECT_EQ(diag->loc.file, "anon.sp");
  EXPECT_EQ(diag->loc.line, 3u);
}

// --- Pinned front-end rejections: every field of the Diag, per input. --

struct PinnedRejection {
  const char* text;
  spice::ParseLimits limits;
  DiagCode code;
  Stage stage;
  const char* message;
  const char* file;
  std::size_t line;
  std::vector<std::string> notes;
};

/// Parses `row.text` as "pin.sp" and, if that succeeds and `flatten_too`
/// is set, flattens it; the first rejection must match the row exactly.
void expect_pinned(const PinnedRejection& row, bool flatten_too) {
  SCOPED_TRACE(row.text);
  spice::ParseOptions options;
  options.source = "pin.sp";
  options.limits = row.limits;
  auto result = parse_netlist_result(row.text, options);
  if (flatten_too && result.ok()) {
    result = spice::flatten_result(result.value(), options.source);
  }
  ASSERT_FALSE(result.ok());
  const Diag& d = result.diag();
  EXPECT_EQ(d.code, row.code) << d.render();
  EXPECT_EQ(d.stage, row.stage) << d.render();
  EXPECT_EQ(d.message, row.message);
  EXPECT_EQ(d.loc.file, row.file);
  EXPECT_EQ(d.loc.line, row.line);
  EXPECT_EQ(d.notes, row.notes);
}

// The two FrontEndEquivalence tests keep the names they had when the
// parser had a second, string-space implementation to compare against:
// each row is that reference's answer for its input, pinned.
TEST(FrontEndEquivalence, ParseRejectionsMatchReference) {
  const PinnedRejection rows[] = {
      // A title line first: a short card on line 1 would otherwise be
      // taken as the netlist title (no Diag at all).
      {"* t\nm1 d g s\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       "MOS card needs name, 4 nets, and a model [m1 d g s]", "pin.sp", 2,
       {}},
      {"r1 a b 1.5kk\n.end\n", {}, DiagCode::BadValue, Stage::Parse,
       "bad value '1.5kk' [r1 a b 1.5kk]", "pin.sp", 1, {}},
      {"* t\nm1 d g s b\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       "MOS card needs name, 4 nets, and a model [m1 d g s b]", "pin.sp", 2,
       {}},
      {"* t\nr1 a b\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       "passive card needs name, 2 nets, value [r1 a b]", "pin.sp", 2, {}},
      {"* t\nx0 a\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       "instance card needs nets and a subckt [x0 a]", "pin.sp", 2, {}},
      {"* t\nv1 p\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       "source card needs name and 2 nets [v1 p]", "pin.sp", 2, {}},
      {".subckt\n.ends\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       ".subckt needs a name [.subckt]", "pin.sp", 1, {}},
      {".subckt a p\n.subckt b q\n", {}, DiagCode::SyntaxError, Stage::Parse,
       "nested .subckt definitions are not supported [.subckt b q]",
       "pin.sp", 2, {}},
      {".ends\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       ".ends without .subckt [.ends]", "pin.sp", 1, {}},
      {".subckt a p\nr1 p q 1k\n.end\n", {}, DiagCode::SyntaxError,
       Stage::Parse, "unterminated .subckt a", "pin.sp", 1, {}},
      {".bogus x y\n.end\n", {}, DiagCode::UnknownDirective, Stage::Parse,
       "unsupported directive '.bogus' [.bogus x y]", "pin.sp", 1, {}},
      {".param q\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       "malformed .param entry 'q' [.param q]", "pin.sp", 1, {}},
      {"r1 a b 1k\nr1 a b 2k\n.end\n", {}, DiagCode::DuplicateName,
       Stage::Validate, "duplicate device name r1 in top level", "pin.sp", 2,
       {}},
      {"x0 a b missing\n.end\n", {}, DiagCode::UndefinedSubckt,
       Stage::Validate,
       "instance x0 in top level references undefined subckt missing",
       "pin.sp", 1, {}},
      {"+ w=1\n.end\n", {}, DiagCode::SyntaxError, Stage::Parse,
       "continuation with no preceding card", "pin.sp", 1, {}},
  };
  for (const auto& row : rows) expect_pinned(row, /*flatten_too=*/false);
}

TEST(FrontEndEquivalence, LimitRejectionsMatchReference) {
  const PinnedRejection rows[] = {
      {"r1 a b 1k\nr2 b c 1k\nr3 c d 1k\n.end\n", {.max_lines = 2},
       DiagCode::LimitExceeded, Stage::Parse, "more than 2 lines of input",
       "pin.sp", 3, {}},
      {"r1 a b 1k\nrlonger a b 1k\n.end\n", {.max_line_length = 8},
       DiagCode::LimitExceeded, Stage::Parse, "line is 9 bytes, limit 8",
       "pin.sp", 1, {}},
      {"r1 a b 1k\nr2 b c 1k\n.end\n", {.max_input_bytes = 16},
       DiagCode::LimitExceeded, Stage::Parse, "input is 25 bytes, limit 16",
       "pin.sp", 0, {}},
  };
  for (const auto& row : rows) expect_pinned(row, /*flatten_too=*/false);
}

TEST(FlattenDiag, PinnedRejections) {
  const PinnedRejection rows[] = {
      {".subckt a p\nxb p b\n.ends\n.subckt b p\nxa p a\n.ends\nx0 t a\n"
       ".end\n",
       {}, DiagCode::RecursiveSubckt, Stage::Flatten,
       "recursive instantiation of subckt a", "pin.sp", 5,
       {"x0 instantiates subckt a", "x0/xb instantiates subckt b",
        "x0/xb/xa instantiates subckt a again -- cycle"}},
      // The port-count mismatch is caught by the parser's validation,
      // before flatten would see it.
      {".subckt cell p q\nr1 p q 1k\n.ends\nx0 a cell\n.end\n", {},
       DiagCode::PortMismatch, Stage::Validate,
       "instance x0 in top level binds 1 nets to subckt cell with 2 ports",
       "pin.sp", 4, {}},
  };
  for (const auto& row : rows) expect_pinned(row, /*flatten_too=*/true);
}

// --- Flatten cycle detection (satellite: recursive .subckt). ----------

TEST(FlattenDiag, DirectSelfInstantiation) {
  const auto n = parse_netlist(
      "* t\n"
      ".subckt a p\n"
      "r1 p 0 1k\n"
      "xa p a\n"
      ".ends\n"
      "x0 in a\n"
      ".end\n");
  auto r = spice::flatten_result(n, "self.sp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::RecursiveSubckt);
  EXPECT_EQ(r.diag().stage, Stage::Flatten);
  EXPECT_EQ(r.diag().loc.file, "self.sp");
  EXPECT_EQ(r.diag().loc.line, 4u) << "points at the recursive xa card";
  ASSERT_FALSE(r.diag().notes.empty());
  EXPECT_NE(r.diag().notes.back().find("cycle"), std::string::npos);
}

TEST(FlattenDiag, MutualRecursionReportsTheChain) {
  const auto n = parse_netlist(
      "* t\n"
      ".subckt a p\nxb p b\n.ends\n"
      ".subckt b p\nxa p a\n.ends\n"
      "x0 in a\n.end\n");
  auto r = spice::flatten_result(n, "mutual.sp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::RecursiveSubckt);
  // Chain: x0 -> a, x0/xb -> b, x0/xb/xa -> a again.
  ASSERT_EQ(r.diag().notes.size(), 3u);
  EXPECT_NE(r.diag().notes[0].find("x0 instantiates subckt a"),
            std::string::npos);
  EXPECT_NE(r.diag().notes[1].find("instantiates subckt b"),
            std::string::npos);
  EXPECT_NE(r.diag().notes[2].find("again -- cycle"), std::string::npos);
}

TEST(FlattenDiag, DiamondReconvergenceIsNotACycle) {
  // a instantiated twice along different paths must flatten fine: the
  // active-path check must pop subckts on the way back up.
  const auto n = parse_netlist(
      "* t\n"
      ".subckt leaf p\nr1 p 0 1k\n.ends\n"
      ".subckt mid1 p\nx1 p leaf\n.ends\n"
      ".subckt mid2 p\nx2 p leaf\n.ends\n"
      "xa in mid1\nxb in mid2\n.end\n");
  auto r = spice::flatten_result(n);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().devices.size(), 2u);
}

TEST(FlattenDiag, UndefinedSubcktAtFlattenTime) {
  spice::Netlist n;
  spice::Instance i;
  i.name = "x0";
  i.subckt = "ghost";
  i.nets = {"a"};
  i.src_line = 3;
  n.instances.push_back(i);
  // check() would also reject this; call flatten directly to cover its
  // own guard (callers may hand-build netlists and skip validate).
  auto r = spice::flatten_result(n, "g.sp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::UndefinedSubckt);
  EXPECT_EQ(r.diag().loc.line, 3u);
}

}  // namespace
}  // namespace gana
