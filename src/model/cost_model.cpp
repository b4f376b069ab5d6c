#include "model/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace spgemm::model {

double log2_at_least2(double x) {
  return std::log2(std::max(2.0, x));
}

double heap_cost(const CostInputs& in) {
  return in.sum_flop_log_nnz_a;
}

double hash_cost(const CostInputs& in, bool sorted) {
  double cost = static_cast<double>(in.flop) * in.collision_factor;
  if (sorted) cost += in.sum_nnz_log_nnz_c;
  return cost;
}

std::size_t choose_tile_rows(Offset total_flop, std::size_t nrows,
                             std::size_t reuse_budget_bytes,
                             std::size_t bytes_per_slot) {
  if (nrows == 0) return 1;
  if (bytes_per_slot == 0) bytes_per_slot = sizeof(std::int32_t);
  // A captured row needs ~(flop + nnz) slots <= 2*flop slots; target the
  // tile's capture footprint, never exceeding half the budget so at least
  // one full tile can always be captured.
  double target_bytes = static_cast<double>(kTileCaptureTargetBytes);
  if (reuse_budget_bytes > 0) {
    target_bytes =
        std::min(target_bytes, static_cast<double>(reuse_budget_bytes) / 2.0);
  }
  const double avg_row_flop =
      std::max(1.0, static_cast<double>(total_flop) /
                        static_cast<double>(nrows));
  const double rows =
      target_bytes / (2.0 * avg_row_flop * static_cast<double>(bytes_per_slot));
  // The clamp keeps any budget, however tiny, from producing a 0-row tile.
  return static_cast<std::size_t>(std::clamp(rows, 16.0, 65536.0));
}

int choose_lane_width(Offset flop, const TierParams& fast_tier,
                      int pool_width, std::size_t bytes_per_slot) {
  if (pool_width <= 1 || flop <= 0) return 1;
  // One worker's equal share of the fast tier, expressed as the flop whose
  // ~2-slots-per-flop capture stream fills it.
  const double share_bytes =
      fast_tier.capacity_gb * 1e9 / static_cast<double>(pool_width);
  const double slot_bytes = 2.0 * static_cast<double>(bytes_per_slot);
  const auto grain = static_cast<Offset>(
      std::max(static_cast<double>(kLaneMinFlopPerWorker),
               share_bytes / std::max(1.0, slot_bytes)));
  const Offset lanes = (flop + grain - 1) / grain;
  if (lanes >= static_cast<Offset>(pool_width)) return pool_width;
  return static_cast<int>(std::max<Offset>(1, lanes));
}

std::size_t derive_cache_budget_bytes(const TierParams& tier) {
  const double capacity_bytes = tier.capacity_gb * 1e9;
  const double share = capacity_bytes / 8.0;
  const auto floor_bytes = static_cast<double>(kDefaultPlanBudgetBytes);
  constexpr double kCapBytes = 8e9;
  return static_cast<std::size_t>(
      std::min(kCapBytes, std::max(floor_bytes, share)));
}

}  // namespace spgemm::model
