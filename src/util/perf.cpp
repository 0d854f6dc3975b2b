#include "util/perf.hpp"

namespace gana {

namespace perf::detail {
#define GANA_PERF_DEFINE(name) std::atomic<std::uint64_t> name{0};
GANA_PERF_COUNTERS(GANA_PERF_DEFINE)
#undef GANA_PERF_DEFINE
}  // namespace perf::detail

PerfSnapshot PerfSnapshot::operator-(const PerfSnapshot& since) const {
  PerfSnapshot d;
#define GANA_PERF_SUB(name) d.name = name - since.name;
  GANA_PERF_COUNTERS(GANA_PERF_SUB)
#undef GANA_PERF_SUB
  return d;
}

PerfSnapshot& PerfSnapshot::operator+=(const PerfSnapshot& o) {
#define GANA_PERF_ADD(name) name += o.name;
  GANA_PERF_COUNTERS(GANA_PERF_ADD)
#undef GANA_PERF_ADD
  return *this;
}

PerfSnapshot perf_snapshot() {
  PerfSnapshot s;
#define GANA_PERF_LOAD(name) \
  s.name = perf::detail::name.load(std::memory_order_relaxed);
  GANA_PERF_COUNTERS(GANA_PERF_LOAD)
#undef GANA_PERF_LOAD
  return s;
}

}  // namespace gana
