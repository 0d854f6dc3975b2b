#include "datagen/rf_gen.hpp"

namespace gana::datagen {

const std::vector<std::string>& rf_class_names() {
  static const std::vector<std::string> names = {"lna", "mixer", "osc",
                                                 "bpf", "buf",   "invamp"};
  return names;
}

std::optional<std::vector<std::string>> domain_class_names(
    std::string_view domain) {
  if (domain == "ota") return std::vector<std::string>{"ota", "bias"};
  if (domain == "rf") return rf_class_names();
  return std::nullopt;
}

const char* to_string(LnaKind k) {
  switch (k) {
    case LnaKind::InductiveDegen: return "ind-degen";
    case LnaKind::CommonGate: return "common-gate";
    case LnaKind::ShuntFeedback: return "shunt-feedback";
    case LnaKind::Differential: return "differential";
  }
  return "?";
}

const char* to_string(MixerKind k) {
  switch (k) {
    case MixerKind::Gilbert: return "gilbert";
    case MixerKind::SingleBalanced: return "single-balanced";
    case MixerKind::PassiveRing: return "passive-ring";
  }
  return "?";
}

const char* to_string(OscKind k) {
  switch (k) {
    case OscKind::CrossCoupledLc: return "xc-lc";
    case OscKind::ComplementaryLc: return "comp-lc";
    case OscKind::Ring3: return "ring3";
    case OscKind::Ring5: return "ring5";
    case OscKind::Colpitts: return "colpitts";
  }
  return "?";
}

namespace {

/// Local bias branch for a block: current reference + diode -> bias net.
std::string emit_local_bias(CircuitBuilder& b) {
  Sizing& sz = b.sizing();
  const std::string vb = b.fresh_net("vb");
  b.isrc("vdd!", vb, sz.bias_current());
  b.nmos(vb, vb, "gnd!");
  return vb;
}

}  // namespace

RfBlockPorts emit_lna(CircuitBuilder& b, LnaKind kind,
                      const std::string& prefix) {
  b.set_prefix(prefix);
  b.set_label(kRfLna);
  Sizing& sz = b.sizing();
  RfBlockPorts ports;
  ports.in1 = b.fresh_net("rfin");
  ports.out1 = b.fresh_net("rfout");

  switch (kind) {
    case LnaKind::InductiveDegen: {
      // Inductively degenerated cascode LNA (Razavi / Bevilacqua style).
      const std::string vb = emit_local_bias(b);
      b.set_label(kRfLna);
      const std::string g = b.fresh_net("g");
      const std::string s = b.fresh_net("s");
      const std::string x = b.fresh_net("x");
      b.ind(ports.in1, g, sz.inductance());       // gate inductor
      b.res(vb, g, sz.resistance(5e3, 50e3));     // bias feed
      b.nmos(x, g, s);                            // input device
      b.ind(s, "gnd!", sz.inductance(0.2e-9, 2e-9));  // degeneration
      b.nmos(ports.out1, vb, x);                  // cascode
      b.ind("vdd!", ports.out1, sz.inductance()); // load inductor
      b.cap(ports.out1, "gnd!", sz.capacitance(50e-15, 500e-15));  // tank
      break;
    }
    case LnaKind::CommonGate: {
      const std::string vb = emit_local_bias(b);
      b.set_label(kRfLna);
      b.nmos(ports.out1, vb, ports.in1);
      b.ind(ports.in1, "gnd!", sz.inductance());
      b.ind("vdd!", ports.out1, sz.inductance());
      b.cap(ports.out1, "gnd!", sz.capacitance(50e-15, 500e-15));
      break;
    }
    case LnaKind::ShuntFeedback: {
      const std::string g = b.fresh_net("g");
      b.cap(ports.in1, g, sz.capacitance());
      b.nmos(ports.out1, g, "gnd!");
      b.res(ports.out1, g, sz.resistance(1e3, 20e3));   // feedback
      b.res("vdd!", ports.out1, sz.resistance(500, 5e3));  // load
      break;
    }
    case LnaKind::Differential: {
      const std::string vb = emit_local_bias(b);
      b.set_label(kRfLna);
      ports.in2 = b.fresh_net("rfin");
      ports.out2 = b.fresh_net("rfout");
      const std::string tail = b.fresh_net("tail");
      b.nmos(tail, vb, "gnd!");
      const std::string g1 = b.fresh_net("g"), g2 = b.fresh_net("g");
      const std::string x1 = b.fresh_net("x"), x2 = b.fresh_net("x");
      b.ind(ports.in1, g1, sz.inductance());
      b.ind(ports.in2, g2, sz.inductance());
      b.nmos(x1, g1, tail);
      b.nmos(x2, g2, tail);
      b.nmos(ports.out1, vb, x1);  // cascodes
      b.nmos(ports.out2, vb, x2);
      b.ind("vdd!", ports.out1, sz.inductance());
      b.ind("vdd!", ports.out2, sz.inductance());
      break;
    }
  }
  b.set_prefix("");
  return ports;
}

RfBlockPorts emit_mixer(CircuitBuilder& b, MixerKind kind,
                        const std::string& prefix) {
  b.set_prefix(prefix);
  b.set_label(kRfMixer);
  Sizing& sz = b.sizing();
  RfBlockPorts ports;
  ports.in1 = b.fresh_net("rf");
  ports.in2 = b.fresh_net("lo");
  ports.out1 = b.fresh_net("if");

  switch (kind) {
    case MixerKind::Gilbert: {
      const std::string vb = emit_local_bias(b);
      b.set_label(kRfMixer);
      ports.out2 = b.fresh_net("if");
      const std::string lob = b.fresh_net("lob");
      const std::string rfb = b.fresh_net("rfb");
      const std::string tail = b.fresh_net("tail");
      const std::string a = b.fresh_net("a"), c = b.fresh_net("c");
      b.nmos(tail, vb, "gnd!");
      // RF transconductance pair.
      b.nmos(a, ports.in1, tail);
      b.nmos(c, rfb, tail);
      b.res(vb, rfb, sz.resistance(10e3, 80e3));  // bias the dummy RF input
      // Switching quad.
      b.nmos(ports.out1, ports.in2, a);
      b.nmos(ports.out2, lob, a);
      b.nmos(ports.out1, lob, c);
      b.nmos(ports.out2, ports.in2, c);
      b.res(vb, lob, sz.resistance(10e3, 80e3));
      // Loads.
      b.res("vdd!", ports.out1, sz.resistance(500, 5e3));
      b.res("vdd!", ports.out2, sz.resistance(500, 5e3));
      break;
    }
    case MixerKind::SingleBalanced: {
      const std::string vb = emit_local_bias(b);
      b.set_label(kRfMixer);
      ports.out2 = b.fresh_net("if");
      const std::string lob = b.fresh_net("lob");
      const std::string a = b.fresh_net("a");
      b.nmos(a, ports.in1, "gnd!");  // RF transconductor
      b.nmos(ports.out1, ports.in2, a);
      b.nmos(ports.out2, lob, a);
      b.res(vb, lob, sz.resistance(10e3, 80e3));
      b.res("vdd!", ports.out1, sz.resistance(500, 5e3));
      b.res("vdd!", ports.out2, sz.resistance(500, 5e3));
      break;
    }
    case MixerKind::PassiveRing: {
      ports.out2 = b.fresh_net("if");
      const std::string rfb = b.fresh_net("rfb");
      const std::string lob = b.fresh_net("lob");
      b.nmos(ports.out1, ports.in2, ports.in1);
      b.nmos(ports.out2, lob, ports.in1);
      b.nmos(ports.out1, lob, rfb);
      b.nmos(ports.out2, ports.in2, rfb);
      b.cap(rfb, "gnd!", sz.capacitance());
      b.cap(ports.out1, "gnd!", sz.capacitance());
      b.cap(ports.out2, "gnd!", sz.capacitance());
      break;
    }
  }
  b.set_prefix("");
  return ports;
}

RfBlockPorts emit_oscillator(CircuitBuilder& b, OscKind kind,
                             const std::string& prefix) {
  b.set_prefix(prefix);
  b.set_label(kRfOsc);
  Sizing& sz = b.sizing();
  RfBlockPorts ports;
  ports.out1 = b.fresh_net("oscp");

  switch (kind) {
    case OscKind::CrossCoupledLc: {
      const std::string vb = emit_local_bias(b);
      b.set_label(kRfOsc);
      ports.out2 = b.fresh_net("oscn");
      const std::string tail = b.fresh_net("tail");
      b.nmos(tail, vb, "gnd!");
      b.nmos(ports.out1, ports.out2, tail);  // cross-coupled pair
      b.nmos(ports.out2, ports.out1, tail);
      b.ind("vdd!", ports.out1, sz.inductance());
      b.ind("vdd!", ports.out2, sz.inductance());
      b.cap(ports.out1, ports.out2, sz.capacitance(50e-15, 1e-12));
      break;
    }
    case OscKind::ComplementaryLc: {
      ports.out2 = b.fresh_net("oscn");
      b.nmos(ports.out1, ports.out2, "gnd!");
      b.nmos(ports.out2, ports.out1, "gnd!");
      b.pmos(ports.out1, ports.out2, "vdd!");
      b.pmos(ports.out2, ports.out1, "vdd!");
      b.ind(ports.out1, ports.out2, sz.inductance());
      b.cap(ports.out1, ports.out2, sz.capacitance(50e-15, 1e-12));
      break;
    }
    case OscKind::Ring3:
    case OscKind::Ring5: {
      const int stages = kind == OscKind::Ring3 ? 3 : 5;
      std::vector<std::string> nodes;
      nodes.push_back(ports.out1);
      for (int i = 1; i < stages; ++i) nodes.push_back(b.fresh_net("rg"));
      for (int i = 0; i < stages; ++i) {
        const std::string& in = nodes[static_cast<std::size_t>(i)];
        const std::string& out =
            nodes[static_cast<std::size_t>((i + 1) % stages)];
        b.nmos(out, in, "gnd!");
        b.pmos(out, in, "vdd!");
      }
      break;
    }
    case OscKind::Colpitts: {
      const std::string vb = emit_local_bias(b);
      b.set_label(kRfOsc);
      const std::string s = b.fresh_net("s");
      b.nmos(ports.out1, vb, s);
      b.ind("vdd!", ports.out1, sz.inductance());
      b.cap(ports.out1, s, sz.capacitance(100e-15, 1e-12));
      b.cap(s, "gnd!", sz.capacitance(100e-15, 1e-12));
      b.isrc(s, "gnd!", sz.bias_current());
      break;
    }
  }
  b.set_prefix("");
  return ports;
}

RfBlockPorts emit_bpf(CircuitBuilder& b, const std::string& prefix) {
  b.set_prefix(prefix);
  b.set_label(kRfBpf);
  Sizing& sz = b.sizing();
  RfBlockPorts ports;
  ports.in1 = b.fresh_net("bin");
  ports.in2 = b.fresh_net("bin");
  ports.out1 = b.fresh_net("bout");
  ports.out2 = b.fresh_net("bout");
  // Oscillator-like core...
  const std::string tail = b.fresh_net("tail");
  const std::string vb = emit_local_bias(b);
  b.set_label(kRfBpf);
  b.nmos(tail, vb, "gnd!");
  b.nmos(ports.out1, ports.out2, tail);
  b.nmos(ports.out2, ports.out1, tail);
  b.ind("vdd!", ports.out1, sz.inductance());
  b.ind("vdd!", ports.out2, sz.inductance());
  b.cap(ports.out1, ports.out2, sz.capacitance(50e-15, 1e-12));
  // ...plus the two injection (input) transistors that distinguish the
  // BPF from a free-running oscillator (paper §V-B).
  b.nmos(ports.out1, ports.in1, tail);
  b.nmos(ports.out2, ports.in2, tail);
  b.set_prefix("");
  return ports;
}

RfBlockPorts emit_buffer(CircuitBuilder& b, const std::string& prefix) {
  b.set_prefix(prefix);
  b.set_label(kRfBuf);
  RfBlockPorts ports;
  ports.in1 = b.fresh_net("bi");
  ports.out1 = b.fresh_net("bo");
  const std::string mid = b.fresh_net("bm");
  b.nmos(mid, ports.in1, "gnd!");
  b.pmos(mid, ports.in1, "vdd!");
  b.nmos(ports.out1, mid, "gnd!");
  b.pmos(ports.out1, mid, "vdd!");
  b.set_prefix("");
  return ports;
}

RfBlockPorts emit_inv_amp(CircuitBuilder& b, const std::string& prefix) {
  b.set_prefix(prefix);
  b.set_label(kRfInvAmp);
  Sizing& sz = b.sizing();
  RfBlockPorts ports;
  ports.in1 = b.fresh_net("ai");
  ports.out1 = b.fresh_net("ao");
  const std::string g = b.fresh_net("ag");
  b.cap(ports.in1, g, sz.capacitance());
  b.nmos(ports.out1, g, "gnd!");
  b.pmos(ports.out1, g, "vdd!");
  b.res(ports.out1, g, sz.resistance(50e3, 500e3));  // self-bias feedback
  b.set_prefix("");
  return ports;
}

LabeledCircuit generate_rf_block(const RfBlockOptions& opt, Rng& rng,
                                 const std::string& name) {
  CircuitBuilder b(name, rf_class_names(), rng);
  RfBlockPorts ports;
  switch (opt.block) {
    case kRfLna: ports = emit_lna(b, opt.lna, "lna/"); break;
    case kRfMixer: ports = emit_mixer(b, opt.mixer, "mix/"); break;
    case kRfOsc: ports = emit_oscillator(b, opt.osc, "osc/"); break;
    case kRfBpf: ports = emit_bpf(b, "bpf/"); break;
    case kRfBuf: ports = emit_buffer(b, "buf/"); break;
    case kRfInvAmp: ports = emit_inv_amp(b, "inv/"); break;
  }
  if (opt.port_labels) {
    if (opt.block == kRfLna) {
      b.port(ports.in1, spice::PortLabel::Antenna);
      if (!ports.in2.empty()) b.port(ports.in2, spice::PortLabel::Antenna);
    } else if (opt.block == kRfMixer) {
      b.port(ports.in2, spice::PortLabel::LocalOsc);
    }
    if (!ports.out1.empty()) b.port(ports.out1, spice::PortLabel::Output);
  }
  return b.finish();
}

LabeledCircuit generate_receiver(const ReceiverOptions& opt, Rng& rng,
                                 const std::string& name) {
  CircuitBuilder b(name, rf_class_names(), rng);
  Sizing& sz = b.sizing();

  RfBlockPorts lna = emit_lna(b, opt.lna, "lna0/");
  const std::string ant1 = lna.in1, ant2 = lna.in2;
  for (int s = 1; s < opt.lna_stages; ++s) {
    const RfBlockPorts next =
        emit_lna(b, opt.lna, "lna" + std::to_string(s) + "/");
    b.set_label(kRfLna);
    b.cap(lna.out1, next.in1, sz.capacitance(100e-15, 1e-12));
    if (!lna.out2.empty() && !next.in2.empty()) {
      b.cap(lna.out2, next.in2, sz.capacitance(100e-15, 1e-12));
    }
    lna.out1 = next.out1;
    lna.out2 = next.out2;
  }
  lna.in1 = ant1;
  lna.in2 = ant2;
  const RfBlockPorts osc = emit_oscillator(b, opt.osc, "osc/");

  // LO chain (optionally buffered).
  std::string lo = osc.out1;
  if (opt.lo_buffer) {
    const RfBlockPorts buf = emit_buffer(b, "lobuf/");
    b.set_label(kRfOsc);  // coupling cap hangs off the oscillator tank
    b.cap(osc.out1, buf.in1, sz.capacitance(100e-15, 1e-12));
    lo = buf.out1;
  }

  auto connect_mixer = [&](const std::string& prefix) {
    const RfBlockPorts mix = emit_mixer(b, opt.mixer, prefix);
    // AC-couple the LNA output into the mixer RF port and the LO into the
    // LO port. Coupling caps belong to the driving block's class.
    b.set_label(kRfLna);
    b.cap(lna.out1, mix.in1, sz.capacitance(100e-15, 1e-12));
    b.set_label(kRfOsc);
    b.cap(lo, mix.in2, sz.capacitance(100e-15, 1e-12));
    return mix;
  };

  const RfBlockPorts mix_i = connect_mixer("mixi/");
  RfBlockPorts mix_q;
  if (opt.iq) mix_q = connect_mixer("mixq/");

  if (opt.port_labels) {
    b.port(lna.in1, spice::PortLabel::Antenna);
    if (!lna.in2.empty()) b.port(lna.in2, spice::PortLabel::Antenna);
    b.port(osc.out1, spice::PortLabel::LocalOsc);
    if (!osc.out2.empty()) b.port(osc.out2, spice::PortLabel::LocalOsc);
    b.port(mix_i.out1, spice::PortLabel::Output);
    if (opt.iq) b.port(mix_q.out1, spice::PortLabel::Output);
  }
  return b.finish();
}

}  // namespace gana::datagen
