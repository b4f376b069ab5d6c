// Algebraic-multigrid Galerkin triple product — the paper's §1 numerical
// motivation (Ballard, Siefert & Hu [6]): the coarse-grid operator is
// A_c = R * A * P with R = P^T, computed as two SpGEMMs.
//
// Includes a small model-problem factory (1D/2D Poisson) and a piecewise-
// constant aggregation prolongator so examples and tests can build a full
// two-level hierarchy from scratch.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_rap.hpp"
#include "core/structure_hash.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/ops.hpp"

namespace spgemm::apps {

/// 1D Poisson (tridiagonal [-1, 2, -1]) on `n` points.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> poisson_1d(IT n) {
  CooMatrix<IT, VT> coo;
  coo.nrows = n;
  coo.ncols = n;
  for (IT i = 0; i < n; ++i) {
    coo.push_back(i, i, VT{2});
    if (i > 0) coo.push_back(i, i - 1, VT{-1});
    if (i + 1 < n) coo.push_back(i, i + 1, VT{-1});
  }
  return csr_from_coo(std::move(coo));
}

/// 2D Poisson 5-point stencil on an nx-by-ny grid.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> poisson_2d(IT nx, IT ny) {
  const IT n = nx * ny;
  CooMatrix<IT, VT> coo;
  coo.nrows = n;
  coo.ncols = n;
  for (IT y = 0; y < ny; ++y) {
    for (IT x = 0; x < nx; ++x) {
      const IT i = y * nx + x;
      coo.push_back(i, i, VT{4});
      if (x > 0) coo.push_back(i, i - 1, VT{-1});
      if (x + 1 < nx) coo.push_back(i, i + 1, VT{-1});
      if (y > 0) coo.push_back(i, i - nx, VT{-1});
      if (y + 1 < ny) coo.push_back(i, i + nx, VT{-1});
    }
  }
  return csr_from_coo(std::move(coo));
}

/// Piecewise-constant aggregation prolongator: fine point i belongs to
/// aggregate i / agg_size; P is n x ceil(n/agg_size) with a single 1 per
/// row.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> aggregation_prolongator(IT n_fine, IT agg_size) {
  if (agg_size <= 0) {
    throw std::invalid_argument("aggregation_prolongator: agg_size <= 0");
  }
  const IT n_coarse = (n_fine + agg_size - 1) / agg_size;
  CsrMatrix<IT, VT> p(n_fine, n_coarse);
  p.cols.resize(static_cast<std::size_t>(n_fine));
  p.vals.assign(static_cast<std::size_t>(n_fine), VT{1});
  for (IT i = 0; i < n_fine; ++i) {
    p.rpts[static_cast<std::size_t>(i) + 1] = i + 1;
    p.cols[static_cast<std::size_t>(i)] = i / agg_size;
  }
  return p;
}

template <IndexType IT, ValueType VT>
struct GalerkinResult {
  CsrMatrix<IT, VT> coarse;   ///< A_c = P^T A P
  SpGemmStats ap_stats;       ///< stats of the A*P multiply
  SpGemmStats rap_stats;      ///< stats of the P^T*(AP) multiply
};

/// Compute the Galerkin coarse operator with the chosen SpGEMM kernel.
template <IndexType IT, ValueType VT>
GalerkinResult<IT, VT> galerkin_product(const CsrMatrix<IT, VT>& a,
                                        const CsrMatrix<IT, VT>& p,
                                        SpGemmOptions opts = {}) {
  if (opts.algorithm == Algorithm::kAuto) opts.algorithm = Algorithm::kHash;
  GalerkinResult<IT, VT> out;
  const CsrMatrix<IT, VT> r = transpose(p);
  const CsrMatrix<IT, VT> ap = multiply(a, p, opts, &out.ap_stats);
  out.coarse = multiply(r, ap, opts, &out.rap_stats);
  return out;
}

/// Fused triple product: A_c = R * (A * P) through multiply_rap()
/// (core/spgemm_rap.hpp) — each A*P row is expanded on demand inside the
/// R* pass and folded straight into the coarse row, so the intermediate AP
/// CSR is never assembled.  With an aggregation prolongator every fine row
/// feeds exactly one coarse row, so nothing is recomputed either.
/// Bit-identical to galerkin_product() with sorted output for visit-order
/// kernels; ap_stats stays zero (there is no separate A*P pass).
template <IndexType IT, ValueType VT>
GalerkinResult<IT, VT> galerkin_product_fused(const CsrMatrix<IT, VT>& a,
                                              const CsrMatrix<IT, VT>& p,
                                              SpGemmOptions opts = {}) {
  GalerkinResult<IT, VT> out;
  const CsrMatrix<IT, VT> r = transpose(p);
  out.coarse = multiply_rap(r, a, p, opts, &out.rap_stats);
  return out;
}

/// Handle-based Galerkin re-assembly for time stepping: R = P^T and the
/// sparsity of A are fixed across steps while A's values change, so both
/// SpGEMMs (A*P and R*(AP)) are planned once and every later step runs
/// numeric-only replay — no symbolic phase, no allocation.
///
///   apps::GalerkinReassembler<int, double> rap(a, p);
///   for (step : steps) {
///     update_stiffness_values(a);          // structure unchanged
///     const auto& coarse = rap.reassemble(a);
///   }
///
/// The intermediate AP lives in the A*P handle's pooled output; because its
/// buffers never move after the first execute, the R*(AP) handle's O(1)
/// structure check stays on the pointer-identity fast path every step.
///
/// Engine mode: construct with an engine::SpGemmEngine instead and both
/// SpGEMMs are served through the engine's shared PlanCache — many
/// reassemblers (one per AMG level) then share ONE cache, so a hierarchy's
/// worth of plans competes under one byte budget instead of pinning two
/// private handles per level:
///
///   engine::SpGemmEngine<int, double> eng;
///   std::vector<apps::GalerkinReassembler<int, double>> levels;
///   levels.emplace_back(eng, a0, p0);   // level operators share eng's
///   levels.emplace_back(eng, a1, p1);   // plan cache and worker pool
///
/// Differences from handle mode: structure drift in `a` replans (a cache
/// miss) instead of throwing, and the returned matrix is an owned copy.
/// R, P and the intermediate AP keep their fingerprints cached, so a
/// steady-state step pays one O(nnz(A)) fingerprint and two numeric-only
/// replays.
template <IndexType IT, ValueType VT>
class GalerkinReassembler {
 public:
  GalerkinReassembler(const CsrMatrix<IT, VT>& a, CsrMatrix<IT, VT> p,
                      SpGemmOptions opts = {})
      : p_(std::move(p)), r_(transpose(p_)) {
    // kAuto flows through to plan()'s recipe resolution; only genuinely
    // non-plannable one-phase kernels are mapped to Hash.
    if (opts.algorithm != Algorithm::kAuto &&
        !is_two_phase(opts.algorithm)) {
      opts.algorithm = Algorithm::kHash;
    }
    ap_handle_.plan(a, p_, opts);
    const CsrMatrix<IT, VT>& ap = ap_handle_.execute(a, p_);
    rap_handle_.plan(r_, ap, opts);
  }

  GalerkinReassembler(engine::SpGemmEngine<IT, VT>& engine,
                      const CsrMatrix<IT, VT>& a, CsrMatrix<IT, VT> p)
      : p_(std::move(p)), r_(transpose(p_)), engine_(&engine),
        fp_p_(structure_fingerprint(p_)), fp_r_(structure_fingerprint(r_)) {
    // Warm the shared cache with both plans (and learn AP's fingerprint)
    // so the first real time step is already a pair of replays.
    reassemble(a);
  }

  /// Recompute A_c = R * (A * P) for new values of A (same structure as the
  /// A the reassembler was built from; drift throws std::invalid_argument
  /// in handle mode, replans in engine mode).  The returned reference stays
  /// valid until the next reassemble() call.
  const CsrMatrix<IT, VT>& reassemble(const CsrMatrix<IT, VT>& a,
                                      SpGemmStats* ap_stats = nullptr,
                                      SpGemmStats* rap_stats = nullptr) {
    if (engine_ != nullptr) {
      // A's values change per step but its structure is expected stable;
      // re-fingerprinting (O(nnz), far below symbolic cost) means a caller
      // that DOES drift gets a correct replan, never a stale plan.
      const std::uint64_t fp_a = structure_fingerprint(a);
      ap_product_ = engine_->multiply_hashed(a, p_, fp_a, fp_p_);
      if (ap_stats != nullptr) *ap_stats = ap_product_.stats;
      // AP's structure is a function of A's and P's structures, so its
      // cached fingerprint is valid exactly while A's fingerprint is the
      // one it was derived from.  Keying on fp_a (not on cache_hit) also
      // covers RETURN drift — A going S0 -> S1 -> S0 makes the A*P lookup
      // hit again while fp_ap_ still describes S1's intermediate.
      if (!fp_ap_known_ || fp_a != fp_a_of_ap_) {
        fp_ap_ = structure_fingerprint(ap_product_.c);
        fp_a_of_ap_ = fp_a;
        fp_ap_known_ = true;
      }
      coarse_product_ =
          engine_->multiply_hashed(r_, ap_product_.c, fp_r_, fp_ap_);
      if (rap_stats != nullptr) *rap_stats = coarse_product_.stats;
      ++engine_reassemblies_;
      return coarse_product_.c;
    }
    const CsrMatrix<IT, VT>& ap =
        ap_handle_.execute(a, p_, PlusTimes{}, ap_stats);
    return rap_handle_.execute(r_, ap, PlusTimes{}, rap_stats);
  }

  [[nodiscard]] const CsrMatrix<IT, VT>& prolongator() const { return p_; }
  [[nodiscard]] const CsrMatrix<IT, VT>& restriction() const { return r_; }
  /// Coarse-operator products served so far (excludes the plan-time one).
  [[nodiscard]] std::uint64_t reassemblies() const {
    if (engine_ != nullptr) {
      return engine_reassemblies_ > 0 ? engine_reassemblies_ - 1 : 0;
    }
    return rap_handle_.executions();
  }
  /// Whether the last reassemble()'s products both replayed cached plans.
  [[nodiscard]] bool last_step_cached() const {
    return engine_ != nullptr && ap_product_.cache_hit &&
           coarse_product_.cache_hit;
  }

 private:
  CsrMatrix<IT, VT> p_;
  CsrMatrix<IT, VT> r_;
  SpGemmHandle<IT, VT> ap_handle_;
  SpGemmHandle<IT, VT> rap_handle_;

  // Engine mode only.
  engine::SpGemmEngine<IT, VT>* engine_ = nullptr;
  typename engine::SpGemmEngine<IT, VT>::Product ap_product_;
  typename engine::SpGemmEngine<IT, VT>::Product coarse_product_;
  std::uint64_t fp_p_ = 0;
  std::uint64_t fp_r_ = 0;
  std::uint64_t fp_ap_ = 0;
  std::uint64_t fp_a_of_ap_ = 0;  ///< the A fingerprint fp_ap_ derives from
  bool fp_ap_known_ = false;
  std::uint64_t engine_reassemblies_ = 0;
};

}  // namespace spgemm::apps
