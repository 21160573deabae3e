// Shared Bitonic-sort and inclusive-scan primitives.
//
// The paper's sort_&_incl_scan kernel (§III-A) sorts the d per-dimension
// distances of each column ascending with an O(log^2 d) Bitonic network
// and then averages them progressively with an O(log d) fan-in inclusive
// scan — many thread groups cooperating, synchronised coarse-grained.
//
// Both the GPU-simulator kernel and the CPU reference use the functions in
// this header, so the floating-point *order of operations* is identical on
// both sides: FP64 results match bit-for-bit, exactly as the paper reports
// ("The FP64 mode on the GPU can generate identical results as the
// CPU-based implementation", §V-B).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace mpsim::mp {

/// Smallest power of two >= n (n >= 1).  Bit-twiddled (std::bit_ceil);
/// these helpers run inside per-group kernel bodies, so they must not
/// loop over the bit width.
inline std::size_t next_pow2(std::size_t n) { return std::bit_ceil(n); }

/// log2 of a power of two (ceil(log2(n)) for any n >= 1, matching the
/// historical loop-based behaviour for non-power inputs).
inline int log2_pow2(std::size_t p2) {
  return p2 <= 1 ? 0 : int(std::bit_width(p2 - 1));
}

/// Number of compare-exchange stages (== group barrier rounds) of a
/// Bitonic network over p2 elements: log(p2) * (log(p2)+1) / 2.
inline std::int64_t bitonic_stage_count(std::size_t p2) {
  const std::int64_t lg = log2_pow2(p2);
  return lg * (lg + 1) / 2;
}

/// One Bitonic stage (size, stride): every element i with partner i^stride
/// above it compare-exchanges toward a full ascending sort.  Elements of a
/// stage touch disjoint pairs, so any execution order within the stage is
/// equivalent — which is what lets the simulator run lanes sequentially.
template <typename T>
void bitonic_stage(T* buf, std::size_t p2, std::size_t size,
                   std::size_t stride) {
  for (std::size_t i = 0; i < p2; ++i) {
    const std::size_t partner = i ^ stride;
    if (partner <= i) continue;
    const bool ascending = (i & size) == 0;
    const bool out_of_order = ascending ? (buf[partner] < buf[i])
                                        : (buf[i] < buf[partner]);
    if (out_of_order) std::swap(buf[i], buf[partner]);
  }
}

/// Full ascending Bitonic sort of buf[0..p2); p2 must be a power of two.
/// On hardware every stage ends in a group barrier.
template <typename T>
void bitonic_sort(T* buf, std::size_t p2) {
  for (std::size_t size = 2; size <= p2; size <<= 1) {
    for (std::size_t stride = size >> 1; stride > 0; stride >>= 1) {
      bitonic_stage(buf, p2, size, stride);
    }
  }
}

/// Number of fan-in steps (== barrier rounds) of the inclusive scan.
inline std::int64_t scan_step_count(std::size_t d) {
  std::int64_t steps = 0;
  for (std::size_t offset = 1; offset < d; offset <<= 1) ++steps;
  return steps;
}

/// Hillis–Steele inclusive scan over x[0..d) followed by the progressive
/// average of Eq. (2): on return, x[l] = (sum of the original x[0..l]) /
/// (l+1).  `scratch` must hold d elements.  The log-step summation order is
/// part of the contract (it fixes the floating-point rounding sequence).
/// On hardware each step ends in two group barriers (read, then write).
template <typename T>
void inclusive_scan_average(T* x, T* scratch, std::size_t d) {
  for (std::size_t offset = 1; offset < d; offset <<= 1) {
    for (std::size_t l = 0; l < d; ++l) {
      scratch[l] = l >= offset ? T(x[l] + x[l - offset]) : x[l];
    }
    for (std::size_t l = 0; l < d; ++l) x[l] = scratch[l];
  }
  for (std::size_t l = 0; l < d; ++l) x[l] = x[l] / T(double(l + 1));
}

/// Scan-average of one already-sorted column, in place and scratch-free:
/// the Hillis–Steele steps update l from high to low, so x[l - offset]
/// is still the previous step's value when x[l] reads it.  Produces the
/// same value sequence (same adds, same divides, same order) as
/// inclusive_scan_average — only the scratch round-trip is gone.
template <typename T>
inline void scan_average_column(T* x, std::size_t d) {
  for (std::size_t offset = 1; offset < d; offset <<= 1) {
    for (std::size_t l = d; l-- > offset;) x[l] = T(x[l] + x[l - offset]);
  }
  for (std::size_t l = 0; l < d; ++l) x[l] = x[l] / T(double(l + 1));
}

/// Per-thread scratch of at least n elements of T, for the column gathers
/// and per-lane NaN fallbacks of the block scans (sized from d, so any
/// dimensionality fits).  Grows, never shrinks; one buffer per thread and
/// element type, so a caller must be done with it before calling a
/// function that uses it again.
template <typename T>
T* column_scratch(std::size_t n) {
  static thread_local std::vector<T> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Per-lane NaN fallback of the vector block scans.  Columns holding a NaN
/// distance need finish_binop's first-NaN-operand rule, which only the
/// scalar operators implement: each column jj + c with bit c set in `mask`
/// is gathered into column_scratch (d values at offset c * d) and scanned
/// with scan_average_column.  Call it BEFORE the vector scan mutates the
/// block, then restore_poisoned_columns to scatter the scalar results over
/// the vector ones.
template <typename T>
const T* scan_poisoned_columns(const T* blk, std::size_t bstride,
                               std::size_t d, std::size_t jj,
                               std::uint32_t mask) {
  T* const saved = column_scratch<T>(std::size_t(std::bit_width(mask)) * d);
  for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    const std::size_t c = std::size_t(std::countr_zero(rest));
    T* const vals = saved + c * d;
    for (std::size_t l = 0; l < d; ++l) vals[l] = blk[l * bstride + jj + c];
    scan_average_column(vals, d);
  }
  return saved;
}

template <typename T>
void restore_poisoned_columns(T* blk, std::size_t bstride, std::size_t d,
                              std::size_t jj, std::uint32_t mask,
                              const T* saved) {
  for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    const std::size_t c = std::size_t(std::countr_zero(rest));
    for (std::size_t l = 0; l < d; ++l) {
      blk[l * bstride + jj + c] = saved[c * d + l];
    }
  }
}

/// Compile-time-specialized ascending Bitonic sort of buf[0..P2).  The
/// loops are the exact loops of bitonic_sort with constexpr bounds, so
/// every column experiences the identical compare-exchange sequence; the
/// compiler fully unrolls the network for the small sizes the fused row
/// pipeline cares about.
template <std::size_t P2, typename T>
inline void bitonic_sort_fixed(T* buf) {
  static_assert(P2 >= 1 && (P2 & (P2 - 1)) == 0, "P2 must be a power of two");
  for (std::size_t size = 2; size <= P2; size <<= 1) {
    for (std::size_t stride = size >> 1; stride > 0; stride >>= 1) {
      for (std::size_t i = 0; i < P2; ++i) {
        const std::size_t partner = i ^ stride;
        if (partner <= i) continue;
        const bool ascending = (i & size) == 0;
        const bool out_of_order = ascending ? (buf[partner] < buf[i])
                                            : (buf[i] < buf[partner]);
        if (out_of_order) std::swap(buf[i], buf[partner]);
      }
    }
  }
}

/// Compile-time-specialized scan_average_column.
template <std::size_t D, typename T>
inline void inclusive_scan_average_fixed(T* x) {
  for (std::size_t offset = 1; offset < D; offset <<= 1) {
    for (std::size_t l = D; l-- > offset;) x[l] = T(x[l] + x[l - offset]);
  }
  for (std::size_t l = 0; l < D; ++l) x[l] = x[l] / T(double(l + 1));
}

/// Sort + progressive average of one column of d per-dimension distances,
/// dispatching to the fixed networks for the paper's small-d workloads
/// (d <= 8) and to the generic primitives beyond.  values[d..next_pow2(d))
/// must be pre-padded with +inf by the caller for non-power-of-two d.
/// Bit-identical to bitonic_sort + inclusive_scan_average for every d,
/// including the d == 1 divide-by-one (which canonicalises NaN payloads
/// for the emulated types and therefore must not be skipped here).
template <typename T>
inline void sort_scan_column(T* values, std::size_t d) {
  switch (d) {
    case 1:
      values[0] = values[0] / T(1.0);
      return;
    case 2:
      bitonic_sort_fixed<2>(values);
      inclusive_scan_average_fixed<2>(values);
      return;
    case 3:
      bitonic_sort_fixed<4>(values);
      inclusive_scan_average_fixed<3>(values);
      return;
    case 4:
      bitonic_sort_fixed<4>(values);
      inclusive_scan_average_fixed<4>(values);
      return;
    case 5:
      bitonic_sort_fixed<8>(values);
      inclusive_scan_average_fixed<5>(values);
      return;
    case 6:
      bitonic_sort_fixed<8>(values);
      inclusive_scan_average_fixed<6>(values);
      return;
    case 7:
      bitonic_sort_fixed<8>(values);
      inclusive_scan_average_fixed<7>(values);
      return;
    case 8:
      bitonic_sort_fixed<8>(values);
      inclusive_scan_average_fixed<8>(values);
      return;
    default:
      bitonic_sort(values, next_pow2(d));
      scan_average_column(values, d);
      return;
  }
}

}  // namespace mpsim::mp
