// Analytic accumulation-cost model (paper §4.2.4, Eqs. 1-2).
//
//   T_heap = sum_i flop(c_i*) * log2 nnz(a_i*)                      (Eq. 1)
//   T_hash = flop * c + sum_i nnz(c_i*) * log2 nnz(c_i*)  [if sorted] (Eq. 2)
//
// with c the hash collision factor (average probes per detect/insert).
// The model underlies the recipe: Hash wins when nnz(c_i*) or the per-row
// compression factor flop(c_i*)/nnz(c_i*) is large; Heap wins on very
// sparse, low-CR products.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "matrix/csr.hpp"
#include "matrix/stats.hpp"
#include "model/memory_model.hpp"

namespace spgemm::model {

/// A-priori hash collision factor (probes per scalar multiplication) used
/// wherever no measurement exists yet — the CostInputs default.
/// SpGemmHandle::collision_factor() supplies the measured value once a
/// symbolic pass has run.
inline constexpr double kDefaultCollisionFactor = 1.2;

/// Inputs the closed-form estimates need; obtainable from a symbolic pass
/// or an actual product.
struct CostInputs {
  Offset flop = 0;                ///< total scalar multiplications
  double sum_flop_log_nnz_a = 0;  ///< sum_i flop(c_i*) * log2 max(2,nnz(a_i*))
  double sum_nnz_log_nnz_c = 0;   ///< sum_i nnz(c_i*) * log2 max(2,nnz(c_i*))
  double collision_factor = kDefaultCollisionFactor;  ///< measured or assumed
};

/// Estimated abstract cost of Heap SpGEMM (Eq. 1).
double heap_cost(const CostInputs& in);

/// Estimated abstract cost of Hash SpGEMM (Eq. 2); `sorted` adds the
/// per-row sort term.
double hash_cost(const CostInputs& in, bool sorted);

/// log2 clamped below at 1 (log2 of anything < 2): heap/sort costs never
/// vanish entirely for singleton rows.
double log2_at_least2(double x);

// ---- Tiled-driver planning (core/spgemm_twophase.hpp) ---------------------

/// Default per-thread byte budget for captured slot streams (structure
/// reuse).  Sized so a whole tile's capture plus the accumulator stays well
/// inside a typical last-level-cache share.
inline constexpr std::size_t kDefaultReuseBudgetBytes = std::size_t{8} << 20;

/// Default per-thread capture budget for a PERSISTENT plan
/// (core/spgemm_handle.hpp).  A handle's slot streams live across many
/// execute() calls, so the budget trades memory for repeated numeric-phase
/// time rather than cache residency within one multiply — it is therefore
/// much larger than the one-shot reuse budget.  The actual allocation is
/// still bounded by 2x the planned flop, so small products never pay it.
inline constexpr std::size_t kDefaultPlanBudgetBytes = std::size_t{64} << 20;

/// Capture-stream bytes a tile targets: small enough to stay cache-resident
/// between the symbolic and numeric passes of the same tile.
inline constexpr std::size_t kTileCaptureTargetBytes = std::size_t{256} << 10;

/// Pick the rows-per-tile for the tiled two-phase driver: the expected
/// capture footprint of one tile (~2 * avg row flop * bytes_per_slot per
/// row) is held near kTileCaptureTargetBytes — or near half the explicit
/// reuse budget when that is smaller, so at least one full tile can always
/// be captured.  Clamped to [16, 65536] rows; never returns 0, no matter
/// how small the budget (a 0-row tile cannot make progress).
std::size_t choose_tile_rows(Offset total_flop, std::size_t nrows,
                             std::size_t reuse_budget_bytes,
                             std::size_t bytes_per_slot);

// ---- Serving-engine sizing (engine/plan_cache.hpp) ------------------------

/// Worker-lane width for one engine product under the work-conserving
/// scheduler (engine/spgemm_engine.hpp): the number of workers a large
/// product's ExecutionSchedule fans out across while the remaining workers
/// serve the small-product overlay.  One lane per `per-worker flop grain`,
/// where the grain is the flop whose capture stream (~2 slots of
/// `bytes_per_slot` per flop) fills one worker's equal share of the fast
/// tier — floored at kLaneMinFlopPerWorker so tiny products never fan out.
/// Deterministic and monotone non-decreasing in `flop`, clamped to
/// [1, pool_width].  Determinism matters beyond reproducibility: the engine
/// plans a large product with `threads = lane width`, and a cached plan
/// only replays when the requested thread count matches, so the same
/// structure must always map to the same width.
int choose_lane_width(Offset flop, const TierParams& fast_tier,
                      int pool_width, std::size_t bytes_per_slot = 8);

/// Flop floor per extra lane worker in choose_lane_width.  Also the
/// engine's small-product cutoff: products at or below it are packed whole
/// onto one worker, and one a grain over it gets a second worker, not the
/// whole pool.
inline constexpr Offset kLaneMinFlopPerWorker = Offset{1} << 15;

/// Byte budget for a fingerprint-keyed plan cache backed by the given
/// memory tier: retained plans (capture streams, skeletons, pooled outputs)
/// compete with the working sets of the products they serve, so the cache
/// claims 1/8 of the tier's capacity, floored at one persistent-plan
/// budget (a cache that cannot hold a single plan is useless) and capped at
/// 8 GB (beyond which eviction pressure, not capacity, is the interesting
/// regime).  Monotone in capacity_gb between the clamps.
std::size_t derive_cache_budget_bytes(const TierParams& tier);

/// Exact flop count (scalar multiplications) of A*B in O(nnz(A)) — the
/// admission-ordering estimate of the serving engine: cheap enough to pay
/// per request, exact enough to sort heterogeneous products by work.
template <IndexType IT, ValueType VT>
Offset estimate_flop(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b) {
  Offset flop = 0;
  for (const IT col : a.cols) {
    const auto k = static_cast<std::size_t>(col);
    flop += b.rpts[k + 1] - b.rpts[k];
  }
  return flop;
}

/// Gather CostInputs from concrete A, B and the (already computed) C.
template <IndexType IT, ValueType VT>
CostInputs gather_cost_inputs(const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b,
                              const CsrMatrix<IT, VT>& c,
                              double collision_factor = kDefaultCollisionFactor) {
  CostInputs in;
  in.collision_factor = collision_factor;
  for (IT i = 0; i < a.nrows; ++i) {
    Offset row_flop = 0;
    for (Offset j = a.row_begin(i); j < a.row_end(i); ++j) {
      const auto k = static_cast<std::size_t>(
          a.cols[static_cast<std::size_t>(j)]);
      row_flop += b.rpts[k + 1] - b.rpts[k];
    }
    in.flop += row_flop;
    const double nnz_a = static_cast<double>(a.row_nnz(i));
    const double nnz_c = static_cast<double>(c.row_nnz(i));
    if (row_flop > 0 && nnz_a >= 1.0) {
      in.sum_flop_log_nnz_a +=
          static_cast<double>(row_flop) * log2_at_least2(nnz_a);
    }
    if (nnz_c >= 1.0) {
      in.sum_nnz_log_nnz_c += nnz_c * log2_at_least2(nnz_c);
    }
  }
  return in;
}

}  // namespace spgemm::model
