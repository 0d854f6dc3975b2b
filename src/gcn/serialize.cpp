#include "gcn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/artifact.hpp"

namespace gana::gcn {

namespace {

constexpr const char* kMagic = "gana-gcn-v1";

Diag checkpoint_diag(DiagCode code, const std::string& name,
                     std::string message) {
  Diag d = make_diag(code, Stage::Io, std::move(message));
  d.loc.file = name;
  return d;
}

/// The config's total scalar count, or a BadValue diag when the config
/// cannot build a model (out-of-range K, zero widths) or the count
/// overflows. Both loaders call this before constructing the model.
Result<std::size_t> checked_scalar_count(const ModelConfig& cfg) {
  const std::string error = config_error(cfg);
  if (!error.empty()) {
    return make_diag(DiagCode::BadValue, Stage::Io,
                     "model config: " + error);
  }
  const auto count = tensor_scalar_count(cfg);
  if (!count) {
    return make_diag(DiagCode::BadValue, Stage::Io,
                     "model config: parameter count overflows");
  }
  return *count;
}

/// All parameter and buffer tensors in declaration order -- the single
/// tensor ordering shared by the text format, the artifact "shapes" and
/// "weights" sections, and weights_fingerprint(). GcnModel::params() is
/// non-const by design (the optimizer mutates through it);
/// serialization only reads.
std::vector<Matrix*> all_tensors(const GcnModel& model) {
  auto& mutable_model = const_cast<GcnModel&>(model);
  auto tensors = mutable_model.params();
  auto buffers = mutable_model.buffers();
  tensors.insert(tensors.end(), buffers.begin(), buffers.end());
  return tensors;
}

}  // namespace

void save_model(const GcnModel& model, std::ostream& out) {
  const ModelConfig& cfg = model.config();
  out << kMagic << "\n";
  out << "in_features " << cfg.in_features << "\n";
  out << "num_classes " << cfg.num_classes << "\n";
  out << "conv_kind "
      << (cfg.conv_kind == ConvKind::SageMean ? "sage" : "cheb") << "\n";
  out << "conv_channels";
  for (std::size_t c : cfg.conv_channels) out << " " << c;
  out << "\n";
  out << "cheb_k " << cfg.cheb_k << "\n";
  out << "fc_hidden " << cfg.fc_hidden << "\n";
  out << "use_pooling " << (cfg.use_pooling ? 1 : 0) << "\n";
  out << "pool_mode "
      << (cfg.pool_mode == GraclusPool::Mode::Max ? "max" : "mean") << "\n";
  out << "dropout " << cfg.dropout << "\n";
  out << "batch_norm " << (cfg.batch_norm ? 1 : 0) << "\n";
  out << "seed " << cfg.seed << "\n";

  const auto tensors = all_tensors(model);
  out << "tensors " << tensors.size() << "\n";
  out << std::setprecision(17);
  for (const Matrix* p : tensors) {
    out << p->rows() << " " << p->cols() << "\n";
    for (double v : p->data()) out << v << " ";
    out << "\n";
  }
}

void save_model_file(const GcnModel& model, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  save_model(model, f);
}

Result<GcnModel> load_model_result(std::istream& in,
                                   const std::string& name) {
  const auto fail = [&](DiagCode code, std::string message) {
    return checkpoint_diag(code, name, std::move(message));
  };
  std::string magic;
  in >> magic;
  if (magic != kMagic) {
    return fail(DiagCode::FormatError,
                "not a gana-gcn checkpoint (bad magic)");
  }

  // Config keys in any order, each at most once: duplicates are
  // rejected instead of last-write-wins so a checkpoint has exactly one
  // meaning (text -> binary packing relies on this).
  ModelConfig cfg;
  std::map<std::string, bool> seen;
  const auto claim = [&](const std::string& key) {
    if (seen[key]) return false;
    seen[key] = true;
    return true;
  };
  std::string key;
  bool have_tensors_header = false;
  std::size_t tensor_count = 0;
  while (in >> key) {
    if (key == "tensors") {
      if (!(in >> tensor_count)) {
        return fail(DiagCode::BadValue, "checkpoint: bad tensor count");
      }
      have_tensors_header = true;
      break;
    }
    if (!claim(key)) {
      return fail(DiagCode::DuplicateName,
                  "checkpoint: duplicate key '" + key + "'");
    }
    bool value_ok = true;
    if (key == "in_features") {
      value_ok = static_cast<bool>(in >> cfg.in_features);
    } else if (key == "num_classes") {
      value_ok = static_cast<bool>(in >> cfg.num_classes);
    } else if (key == "conv_channels") {
      cfg.conv_channels.clear();
      // Channels run until the next (non-numeric) key.
      while (in >> std::ws && in.peek() >= '0' && in.peek() <= '9') {
        std::size_t c = 0;
        if (!(in >> c)) break;
        cfg.conv_channels.push_back(c);
      }
    } else if (key == "cheb_k") {
      value_ok = static_cast<bool>(in >> cfg.cheb_k);
    } else if (key == "fc_hidden") {
      value_ok = static_cast<bool>(in >> cfg.fc_hidden);
    } else if (key == "use_pooling" || key == "batch_norm") {
      int flag = 0;
      value_ok = static_cast<bool>(in >> flag);
      (key == "use_pooling" ? cfg.use_pooling : cfg.batch_norm) = flag != 0;
    } else if (key == "pool_mode") {
      std::string mode;
      value_ok = (in >> mode) && (mode == "max" || mode == "mean");
      cfg.pool_mode =
          mode == "max" ? GraclusPool::Mode::Max : GraclusPool::Mode::Mean;
    } else if (key == "conv_kind") {
      std::string kind;
      value_ok = (in >> kind) && (kind == "cheb" || kind == "sage");
      cfg.conv_kind =
          kind == "sage" ? ConvKind::SageMean : ConvKind::Chebyshev;
    } else if (key == "dropout") {
      value_ok = static_cast<bool>(in >> cfg.dropout);
    } else if (key == "seed") {
      value_ok = static_cast<bool>(in >> cfg.seed);
    } else {
      return fail(DiagCode::SyntaxError,
                  "checkpoint: unknown key '" + key + "'");
    }
    if (!value_ok) {
      return fail(DiagCode::BadValue,
                  "checkpoint: bad value for key '" + key + "'");
    }
  }
  if (!have_tensors_header) {
    return fail(DiagCode::FormatError,
                "checkpoint: missing 'tensors' section");
  }
  auto expected = checked_scalar_count(cfg);
  if (!expected.ok()) return fail(DiagCode::BadValue, expected.diag().message);

  // Stage the tensors before the model exists: its allocations follow
  // from the config, so the config must first agree with what the file
  // holds. Reading stops as soon as the file claims more scalars than
  // the config has, and staging grows only with data actually read.
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  std::vector<double> values;
  for (std::size_t t = 0; t < tensor_count; ++t) {
    std::size_t rows = 0, cols = 0, size = 0;
    if (!(in >> rows >> cols)) {
      return fail(DiagCode::FormatError, "checkpoint: truncated tensor header");
    }
    if (__builtin_mul_overflow(rows, cols, &size) ||
        size > expected.value() - values.size()) {
      return fail(DiagCode::BadValue,
                  "checkpoint: more parameters than the config's " +
                      std::to_string(expected.value()));
    }
    shapes.emplace_back(rows, cols);
    for (std::size_t i = 0; i < size; ++i) {
      double v = 0.0;
      if (!(in >> v)) {
        return fail(DiagCode::FormatError,
                    "checkpoint: truncated tensor data");
      }
      values.push_back(v);
    }
  }
  if (values.size() != expected.value()) {
    return fail(DiagCode::BadValue,
                "checkpoint: parameter count mismatch (file " +
                    std::to_string(values.size()) + ", config " +
                    std::to_string(expected.value()) + ")");
  }

  GcnModel model(cfg);
  const auto tensors = all_tensors(model);
  if (tensors.size() != shapes.size()) {
    return fail(DiagCode::FormatError,
                "checkpoint: tensor count mismatch (file " +
                    std::to_string(shapes.size()) + ", model " +
                    std::to_string(tensors.size()) + ")");
  }
  const double* cursor = values.data();
  for (std::size_t t = 0; t < tensors.size(); ++t) {
    Matrix* p = tensors[t];
    if (shapes[t].first != p->rows() || shapes[t].second != p->cols()) {
      return fail(DiagCode::FormatError,
                  "checkpoint: tensor shape mismatch");
    }
    for (double& v : p->data()) v = *cursor++;
  }
  return model;
}

Result<GcnModel> load_model_file_result(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    return checkpoint_diag(DiagCode::IoError, path, "cannot read " + path);
  }
  return load_model_result(f, path);
}

GcnModel load_model(std::istream& in) {
  auto loaded = load_model_result(in);
  if (!loaded.ok()) throw DiagError(loaded.diag());
  return loaded.take();
}

GcnModel load_model_file(const std::string& path) {
  auto loaded = load_model_file_result(path);
  if (!loaded.ok()) throw DiagError(loaded.diag());
  return loaded.take();
}

// ---------------------------------------------------------------------------
// Binary model artifact
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kConfigSection = "config";
constexpr const char* kShapesSection = "shapes";
constexpr const char* kWeightsSection = "weights";

std::vector<std::uint8_t> encode_config(const ModelConfig& cfg) {
  util::ByteWriter w;
  w.u64(cfg.in_features);
  w.u64(cfg.num_classes);
  w.u8(cfg.conv_kind == ConvKind::SageMean ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(cfg.cheb_k));
  w.u64(cfg.fc_hidden);
  w.u8(cfg.use_pooling ? 1 : 0);
  w.u8(cfg.pool_mode == GraclusPool::Mode::Max ? 0 : 1);
  w.f64(cfg.dropout);
  w.u8(cfg.batch_norm ? 1 : 0);
  w.u64(cfg.seed);
  w.u32(static_cast<std::uint32_t>(cfg.conv_channels.size()));
  for (std::size_t c : cfg.conv_channels) w.u64(c);
  return w.take();
}

Result<ModelConfig> decode_config(const util::ArtifactSection& section,
                                  const std::string& name) {
  util::ByteReader r(section);
  ModelConfig cfg;
  cfg.in_features = r.u64();
  cfg.num_classes = r.u64();
  const std::uint8_t conv_kind = r.u8();
  cfg.conv_kind = conv_kind == 1 ? ConvKind::SageMean : ConvKind::Chebyshev;
  const std::uint32_t cheb_k = r.u32();
  cfg.fc_hidden = r.u64();
  cfg.use_pooling = r.u8() != 0;
  const std::uint8_t pool_mode = r.u8();
  cfg.pool_mode =
      pool_mode == 0 ? GraclusPool::Mode::Max : GraclusPool::Mode::Mean;
  cfg.dropout = r.f64();
  cfg.batch_norm = r.u8() != 0;
  cfg.seed = r.u64();
  const std::uint32_t channels = r.u32();
  // Guard before resizing: a corrupt count must not drive allocation.
  if (!r.ok() || r.remaining() != std::size_t{channels} * 8) {
    return checkpoint_diag(DiagCode::FormatError, name,
                           "model artifact: malformed config section");
  }
  cfg.conv_channels.clear();
  for (std::uint32_t i = 0; i < channels; ++i) {
    cfg.conv_channels.push_back(r.u64());
  }
  if (conv_kind > 1 || pool_mode > 1) {
    return checkpoint_diag(DiagCode::BadValue, name,
                           "model config: unknown conv_kind " +
                               std::to_string(conv_kind) + " or pool_mode " +
                               std::to_string(pool_mode));
  }
  // Range-checked before narrowing: 0xFFFFFFFF must not become -1.
  if (cheb_k < 1 || cheb_k > static_cast<std::uint32_t>(kMaxChebK)) {
    return checkpoint_diag(DiagCode::BadValue, name,
                           "model config: cheb_k " + std::to_string(cheb_k) +
                               " outside [1, " + std::to_string(kMaxChebK) +
                               "]");
  }
  cfg.cheb_k = static_cast<int>(cheb_k);
  return cfg;
}

}  // namespace

Result<bool> save_model_artifact(const GcnModel& model,
                                 const std::string& path) {
  const auto tensors = all_tensors(model);

  util::ByteWriter shapes;
  shapes.u32(static_cast<std::uint32_t>(tensors.size()));
  for (const Matrix* p : tensors) {
    shapes.u64(p->rows());
    shapes.u64(p->cols());
  }

  util::ByteWriter weights;
  for (const Matrix* p : tensors) {
    for (double v : static_cast<const Matrix*>(p)->data()) weights.f64(v);
  }

  util::ArtifactWriter writer;
  writer.add_section(kConfigSection, encode_config(model.config()));
  writer.add_section(kShapesSection, shapes.take());
  writer.add_section(kWeightsSection, weights.take());
  return writer.write(path, util::ArtifactKind::Model,
                      model.weights_fingerprint());
}

Result<GcnModel> load_model_artifact(const std::string& path) {
  auto opened = util::ArtifactReader::open(path, util::ArtifactKind::Model);
  if (!opened.ok()) return opened.diag();
  const util::ArtifactReader reader = opened.take();

  auto config_section = reader.require(kConfigSection);
  if (!config_section.ok()) return config_section.diag();
  auto shapes_section = reader.require(kShapesSection);
  if (!shapes_section.ok()) return shapes_section.diag();
  auto weights_section = reader.require(kWeightsSection);
  if (!weights_section.ok()) return weights_section.diag();

  auto cfg = decode_config(config_section.value(), path);
  if (!cfg.ok()) return cfg.diag();
  auto expected = checked_scalar_count(cfg.value());
  if (!expected.ok()) {
    return checkpoint_diag(DiagCode::BadValue, path,
                           expected.diag().message);
  }

  // The shapes section must hold exactly the config's scalar count
  // before the model (whose allocations follow from the config) exists.
  util::ByteReader shapes(shapes_section.value());
  const std::uint32_t tensor_count = shapes.u32();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> file_shapes;
  std::uint64_t total_doubles = 0;
  bool overflow = false;
  for (std::uint32_t t = 0; shapes.ok() && t < tensor_count; ++t) {
    const std::uint64_t rows = shapes.u64();
    const std::uint64_t cols = shapes.u64();
    std::uint64_t size = 0;
    overflow = overflow || __builtin_mul_overflow(rows, cols, &size) ||
               __builtin_add_overflow(total_doubles, size, &total_doubles);
    if (overflow) break;
    file_shapes.emplace_back(rows, cols);
  }
  if (!shapes.ok()) {
    return checkpoint_diag(DiagCode::FormatError, path,
                           "model artifact: truncated shapes section");
  }
  if (overflow || total_doubles != expected.value()) {
    return checkpoint_diag(
        DiagCode::BadValue, path,
        "model artifact: parameter count mismatch (shapes section " +
            (overflow ? std::string("overflows") :
                        std::to_string(total_doubles)) +
            ", config " + std::to_string(expected.value()) + ")");
  }

  GcnModel model(cfg.value());
  const auto tensors = all_tensors(model);
  if (file_shapes.size() != tensors.size()) {
    return checkpoint_diag(
        DiagCode::FormatError, path,
        "model artifact: tensor count mismatch (file " +
            std::to_string(file_shapes.size()) + ", model " +
            std::to_string(tensors.size()) + ")");
  }
  for (std::size_t t = 0; t < tensors.size(); ++t) {
    if (file_shapes[t].first != tensors[t]->rows() ||
        file_shapes[t].second != tensors[t]->cols()) {
      return checkpoint_diag(DiagCode::FormatError, path,
                             "model artifact: tensor shape mismatch");
    }
  }
  const auto& weights = weights_section.value();
  if (weights.size != total_doubles * sizeof(double)) {
    return checkpoint_diag(DiagCode::FormatError, path,
                           "model artifact: weights section size mismatch");
  }

  // Zero-copy: every tensor borrows its slice of the mapped weights
  // section (64-byte aligned by the container format). The mapping is
  // retained by the model, so the borrows outlive every use.
  const double* cursor = reinterpret_cast<const double*>(weights.data);
  for (Matrix* p : tensors) {
    const std::size_t n = p->size();
    *p = Matrix::borrow(cursor, p->rows(), p->cols());
    cursor += n;
  }
  model.retain_storage(reader.mapping());

  if (model.weights_fingerprint() != reader.fingerprint()) {
    return checkpoint_diag(
        DiagCode::FormatError, path,
        "model artifact: weights fingerprint mismatch (header does not "
        "match tensor contents)");
  }
  return model;
}

Result<GcnModel> load_model_any(const std::string& path) {
  if (util::file_looks_like_artifact(path)) {
    return load_model_artifact(path);
  }
  return load_model_file_result(path);
}

}  // namespace gana::gcn
