// RF circuit generators (DESIGN.md substitution for the paper's "RF data"
// dataset: LNA, mixer, and oscillator sub-blocks composed into receivers,
// after Razavi's RF Microelectronics and the Bevilacqua/Niknejad and
// Abidi receiver architectures cited by the paper).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/sizing.hpp"

namespace gana::datagen {

/// Class ids of the RF dataset. Training uses the first three (paper
/// Table I: 3 labels); the phased-array testcase additionally contains
/// BPF / VCO-buffer / inverter-amplifier structures that Postprocessing I
/// must separate (paper §V-B).
enum RfClass : int {
  kRfLna = 0,
  kRfMixer = 1,
  kRfOsc = 2,
  kRfBpf = 3,
  kRfBuf = 4,
  kRfInvAmp = 5,
};

/// Names for all six RF ground-truth classes.
const std::vector<std::string>& rf_class_names();

/// Class names of an annotation domain: "ota" -> {"ota", "bias"}, "rf"
/// -> rf_class_names(), and nullopt for any other string. Every binary
/// and the shard worker decide the --domain vocabulary here.
std::optional<std::vector<std::string>> domain_class_names(
    std::string_view domain);

enum class LnaKind { InductiveDegen, CommonGate, ShuntFeedback, Differential };
enum class MixerKind { Gilbert, SingleBalanced, PassiveRing };
enum class OscKind { CrossCoupledLc, ComplementaryLc, Ring3, Ring5, Colpitts };

inline constexpr LnaKind kAllLnaKinds[] = {
    LnaKind::InductiveDegen, LnaKind::CommonGate, LnaKind::ShuntFeedback,
    LnaKind::Differential};
inline constexpr MixerKind kAllMixerKinds[] = {
    MixerKind::Gilbert, MixerKind::SingleBalanced, MixerKind::PassiveRing};
inline constexpr OscKind kAllOscKinds[] = {
    OscKind::CrossCoupledLc, OscKind::ComplementaryLc, OscKind::Ring3,
    OscKind::Ring5, OscKind::Colpitts};

[[nodiscard]] const char* to_string(LnaKind k);
[[nodiscard]] const char* to_string(MixerKind k);
[[nodiscard]] const char* to_string(OscKind k);

/// Net names a block exposes; unused entries are empty.
struct RfBlockPorts {
  std::string in1, in2;    ///< signal inputs (in2 for differential)
  std::string out1, out2;  ///< signal outputs
};

// Block emitters: append the block's devices to `b` (under `prefix`,
// labeled with the block's class) and return its port nets.
RfBlockPorts emit_lna(CircuitBuilder& b, LnaKind kind,
                      const std::string& prefix);
RfBlockPorts emit_mixer(CircuitBuilder& b, MixerKind kind,
                        const std::string& prefix);
RfBlockPorts emit_oscillator(CircuitBuilder& b, OscKind kind,
                             const std::string& prefix);
/// Band-pass filter: an LC-tank/cross-coupled core with two injection
/// transistors (paper: "the BPF is identified as a combination of an
/// oscillator with two input transistors").
RfBlockPorts emit_bpf(CircuitBuilder& b, const std::string& prefix);
/// VCO buffer: cascaded inverters.
RfBlockPorts emit_buffer(CircuitBuilder& b, const std::string& prefix);
/// Inverter-based amplifier: self-biased inverter with feedback resistor.
RfBlockPorts emit_inv_amp(CircuitBuilder& b, const std::string& prefix);

/// A stand-alone block circuit (single class).
struct RfBlockOptions {
  RfClass block = kRfLna;
  LnaKind lna = LnaKind::InductiveDegen;
  MixerKind mixer = MixerKind::Gilbert;
  OscKind osc = OscKind::CrossCoupledLc;
  bool port_labels = true;
};
LabeledCircuit generate_rf_block(const RfBlockOptions& options, Rng& rng,
                                 const std::string& name);

/// A receiver combining LNA -> mixer with an LO from an oscillator
/// (optionally I/Q with two mixers and an LO buffer).
struct ReceiverOptions {
  LnaKind lna = LnaKind::InductiveDegen;
  MixerKind mixer = MixerKind::Gilbert;
  OscKind osc = OscKind::CrossCoupledLc;
  int lna_stages = 1;        ///< cascaded LNA gain stages (AC-coupled)
  bool iq = false;           ///< two mixers fed in quadrature
  bool lo_buffer = false;    ///< buffer between oscillator and mixer LO
  bool port_labels = true;   ///< antenna/LO/output .portlabel annotations
};
LabeledCircuit generate_receiver(const ReceiverOptions& options, Rng& rng,
                                 const std::string& name);

}  // namespace gana::datagen
