// Semiring abstraction for SpGEMM over algebras other than (+, *).
//
// The paper's motivating applications implicitly use different semirings:
// multi-source BFS is SpGEMM over (OR, AND), Markov clustering over
// (+, *), and shortest-path style analyses over (min, +).  The kernels in
// core/ are templated on one of these policies; the accumulation data
// structures are algebra-agnostic (they combine values with a caller-
// supplied functor), so every semiring exercises the identical hash/heap/
// SPA machinery the paper optimizes.
//
// A semiring here supplies:
//   mul(a, b)           the "multiply" combining A and B entries
//   fold(acc, v)        fold v into an accumulated value (the "add")
// Absent entries are implicit zeros of the algebra; kernels never need an
// explicit additive identity because the first contribution to an output
// entry is stored, not folded.
#pragma once

#include <algorithm>
#include <type_traits>

#include "common/types.hpp"

namespace spgemm {

/// Requirements for a semiring policy usable by the kernels.
template <typename SR, typename VT>
concept SemiringFor = requires(VT a, VT b, VT& acc) {
  { SR::mul(a, b) } -> std::convertible_to<VT>;
  SR::fold(acc, b);
};

/// The ordinary arithmetic semiring (+, *): standard SpGEMM.
struct PlusTimes {
  template <ValueType VT>
  static VT mul(VT a, VT b) {
    return a * b;
  }
  template <ValueType VT>
  static void fold(VT& acc, VT v) {
    acc += v;
  }
};

/// Tropical semiring (min, +): C(i,j) = min_k A(i,k) + B(k,j) — two-hop
/// shortest distances when A and B hold edge lengths.
struct MinPlus {
  template <ValueType VT>
  static VT mul(VT a, VT b) {
    return a + b;
  }
  template <ValueType VT>
  static void fold(VT& acc, VT v) {
    acc = std::min(acc, v);
  }
};

/// Boolean semiring (OR, AND) on numeric storage: any nonzero is "true".
/// C(i,j) = 1 iff some k has A(i,k) and B(k,j) nonzero — reachability /
/// BFS frontier expansion.
struct OrAnd {
  template <ValueType VT>
  static VT mul(VT a, VT b) {
    return (a != VT{0} && b != VT{0}) ? VT{1} : VT{0};
  }
  template <ValueType VT>
  static void fold(VT& acc, VT v) {
    if (v != VT{0}) acc = VT{1};
  }
};

/// (max, *) semiring: used e.g. for most-reliable-path products.
struct MaxTimes {
  template <ValueType VT>
  static VT mul(VT a, VT b) {
    return a * b;
  }
  template <ValueType VT>
  static void fold(VT& acc, VT v) {
    acc = std::max(acc, v);
  }
};

}  // namespace spgemm
