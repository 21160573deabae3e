// Seeded corpus of doubles for the CSV formatter and reader differential
// tests: the edge values every class of double has, then random 64-bit
// patterns (normals, subnormals, infinities and NaNs with any payload).
#pragma once

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace mpsim {

inline std::vector<double> csv_edge_values() {
  using L = std::numeric_limits<double>;
  return {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 0.30000000000000004,
          L::infinity(), -L::infinity(), L::quiet_NaN(), -L::quiet_NaN(),
          std::bit_cast<double>(0x7ff0000000000001ULL),  // signalling
          std::bit_cast<double>(0xfff8000000000001ULL),  // payload
          L::denorm_min(), -L::denorm_min(), 2.5e-308, DBL_MIN, -DBL_MIN,
          DBL_MAX, -DBL_MAX, DBL_EPSILON, 1e-5, 1e-4, 1e16, 1e17,
          123456789012345678.0, 9007199254740993.0};
}

/// `count` random bit patterns drawn from Rng(seed).
inline std::vector<double> csv_random_values(std::size_t count,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(count);
  for (double& v : out) v = std::bit_cast<double>(rng.next_u64());
  return out;
}

}  // namespace mpsim
