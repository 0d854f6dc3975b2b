#include "gcn/serialize.hpp"

#include <utility>
#include <vector>

#include "util/artifact.hpp"

namespace gana::gcn {

namespace {

Diag checkpoint_diag(DiagCode code, const std::string& name,
                     std::string message) {
  Diag d = make_diag(code, Stage::Io, std::move(message));
  d.loc.file = name;
  return d;
}

/// The config's total scalar count, or a BadValue diag when the config
/// cannot build a model (out-of-range K, zero widths) or the count
/// overflows. Checked before the model is constructed.
Result<std::size_t> checked_scalar_count(const ModelConfig& cfg,
                                         const std::string& name) {
  const std::string error = config_error(cfg);
  if (!error.empty()) {
    return checkpoint_diag(DiagCode::BadValue, name, "model config: " + error);
  }
  const auto count = tensor_scalar_count(cfg);
  if (!count) {
    return checkpoint_diag(DiagCode::BadValue, name,
                           "model config: parameter count overflows");
  }
  return *count;
}

/// All parameter and buffer tensors in declaration order -- the single
/// tensor ordering shared by the artifact "shapes" and "weights"
/// sections and weights_fingerprint(). GcnModel::params() is
/// non-const by design (the optimizer mutates through it);
/// serialization only reads.
std::vector<Matrix*> all_tensors(const GcnModel& model) {
  auto& mutable_model = const_cast<GcnModel&>(model);
  auto tensors = mutable_model.params();
  auto buffers = mutable_model.buffers();
  tensors.insert(tensors.end(), buffers.begin(), buffers.end());
  return tensors;
}

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

Result<GcnModel> load_model_any(const std::string& path) {
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
  auto expected = checked_scalar_count(cfg.value(), path);
  if (!expected.ok()) return expected.diag();

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

}  // namespace gana::gcn
