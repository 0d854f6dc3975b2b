#include "graph/structural_hash.hpp"

namespace gana::graph {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv_word(std::uint64_t h, std::uint64_t word) {
  // FNV-1a one byte at a time over the little-endian word.
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t structural_hash(const CircuitGraph& g) {
  std::uint64_t h = kFnvOffset;
  h = fnv_word(h, g.vertex_count());
  h = fnv_word(h, g.element_count());
  for (const Vertex& v : g.vertices()) {
    std::uint64_t word = static_cast<std::uint64_t>(v.kind);
    if (v.kind == VertexKind::Element) {
      word |= static_cast<std::uint64_t>(v.dtype) << 8;
    } else {
      word |= static_cast<std::uint64_t>(v.role) << 8;
    }
    h = fnv_word(h, word);
  }
  h = fnv_word(h, g.edge_count());
  for (const Edge& e : g.edges()) {
    h = fnv_word(h, e.element);
    h = fnv_word(h, e.net);
    h = fnv_word(h, e.label);
  }
  return h;
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  // splitmix64 finalizer over the xor-shifted mix; cheap and well mixed.
  std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace gana::graph
