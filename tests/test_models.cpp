// Tests for the analytic models: accumulation cost (Eqs. 1-2) and the
// two-tier memory model that substitutes for MCDRAM hardware.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/multiply.hpp"
#include "matrix/generators.hpp"
#include "matrix/rmat.hpp"
#include "model/cost_model.hpp"
#include "model/memory_model.hpp"

namespace spgemm::model {
namespace {

using I = std::int32_t;

// --- Cost model (Eqs. 1-2) ----------------------------------------------------

TEST(CostModel, Log2Clamped) {
  EXPECT_DOUBLE_EQ(log2_at_least2(0.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_at_least2(1.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_at_least2(2.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_at_least2(8.0), 3.0);
}

TEST(CostModel, HashCheaperWithoutSortTerm) {
  CostInputs in;
  in.flop = 1000;
  in.sum_nnz_log_nnz_c = 5000.0;
  in.collision_factor = 1.0;
  EXPECT_LT(hash_cost(in, /*sorted=*/false), hash_cost(in, /*sorted=*/true));
}

TEST(CostModel, CollisionFactorScalesHashCost) {
  CostInputs in;
  in.flop = 1000;
  in.collision_factor = 1.0;
  const double base = hash_cost(in, false);
  in.collision_factor = 2.0;
  EXPECT_DOUBLE_EQ(hash_cost(in, false), 2.0 * base);
}

TEST(CostModel, GatherMatchesHandComputation) {
  // A = [[1,1],[0,1]] (values 1), so A^2 rows: row0 has flop 3 (2 from
  // row0 of B via a00, 1 from row1 via a01), row1 flop 1.
  const auto a = csr_from_triplets<I, double>(
      2, 2,
      std::vector<std::tuple<I, I, double>>{
          {0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  const auto c = spgemm_reference(a, a);
  const CostInputs in = gather_cost_inputs(a, a, c, 1.0);
  // row0: a00 pulls row0 of B (2 entries), a01 pulls row1 (1 entry) = 3;
  // row1: a11 pulls row1 (1 entry).  Total 4.
  EXPECT_EQ(in.flop, 4);
  // row0: flop 3 * log2(max(2, nnz_a=2)) = 3*1; row1: 1 * log2(2)=1.
  EXPECT_DOUBLE_EQ(in.sum_flop_log_nnz_a, 4.0);
  // row0 nnz(C)=2 -> 2*1; row1 nnz(C)=1 -> 1*log2(2)=1.
  EXPECT_DOUBLE_EQ(in.sum_nnz_log_nnz_c, 3.0);
}

TEST(CostModel, PredictsHashForDenseRegularInputs) {
  // The §4.2.4 claim: dense/regular inputs (high flop per output nonzero)
  // favor Hash; the model must reproduce that ordering.
  const auto banded = banded_matrix<I, double>(2048, 33, 7);
  const auto c = spgemm_reference(banded, banded);
  const CostInputs in = gather_cost_inputs(banded, banded, c, 1.2);
  EXPECT_LT(hash_cost(in, true), heap_cost(in));
}

TEST(CostModel, PredictsCompetitiveHeapForSparseInputs) {
  // Very sparse input: heap's log factor is tiny, hash's flop*c + sort term
  // no longer dominates; the gap must collapse by at least 2x relative to
  // the dense case.
  const auto sparse = rmat_matrix<I, double>(RmatParams::er(11, 2, 9));
  const auto cs = spgemm_reference(sparse, sparse);
  const CostInputs in_sparse = gather_cost_inputs(sparse, sparse, cs, 1.2);
  const double sparse_ratio =
      heap_cost(in_sparse) / hash_cost(in_sparse, true);

  const auto dense = banded_matrix<I, double>(2048, 33, 7);
  const auto cd = spgemm_reference(dense, dense);
  const CostInputs in_dense = gather_cost_inputs(dense, dense, cd, 1.2);
  const double dense_ratio = heap_cost(in_dense) / hash_cost(in_dense, true);

  EXPECT_LT(sparse_ratio, dense_ratio / 2.0);
}

// --- Memory model --------------------------------------------------------------

TEST(MemoryModel, PeakRatioIs3Point4) {
  const TierParams ddr = knl_ddr();
  const TierParams mc = knl_mcdram_cache();
  EXPECT_NEAR(mc.peak_bw_gbps / ddr.peak_bw_gbps, 3.4, 0.01);
}

TEST(MemoryModel, BandwidthIsMonotoneInStanza) {
  const TierParams ddr = knl_ddr();
  double prev = 0.0;
  for (double s = 8; s <= 1 << 20; s *= 2) {
    const double bw = stanza_bandwidth_gbps(ddr, s, 64);
    EXPECT_GE(bw, prev);
    prev = bw;
  }
}

TEST(MemoryModel, SaturatesAtPeak) {
  const TierParams ddr = knl_ddr();
  EXPECT_DOUBLE_EQ(stanza_bandwidth_gbps(ddr, 1 << 24, 64),
                   ddr.peak_bw_gbps);
}

TEST(MemoryModel, SmallStanzaSeesNoMcdramBenefit) {
  // The paper's Fig. 5 observation: at 8-byte random access the two tiers
  // are within ~10% (MCDRAM even slightly worse on latency).
  const double ddr8 = stanza_bandwidth_gbps(knl_ddr(), 8, 64);
  const double mc8 = stanza_bandwidth_gbps(knl_mcdram_cache(), 8, 64);
  EXPECT_LT(mc8 / ddr8, 1.1);
}

TEST(MemoryModel, LargeStanzaReaches3Point4x) {
  const double ddr = stanza_bandwidth_gbps(knl_ddr(), 1 << 22, 64);
  const double mc = stanza_bandwidth_gbps(knl_mcdram_cache(), 1 << 22, 64);
  EXPECT_NEAR(mc / ddr, 3.4, 0.05);
}

TEST(MemoryModel, RatioCrossesOverWithStanzaLength) {
  // Ratio must increase monotonically from ~1 to ~3.4 as stanzas grow
  // (the crossover structure of Fig. 5).
  double prev_ratio = 0.0;
  for (double s = 8; s <= 1 << 22; s *= 4) {
    const double ratio = stanza_bandwidth_gbps(knl_mcdram_cache(), s, 64) /
                         stanza_bandwidth_gbps(knl_ddr(), s, 64);
    EXPECT_GE(ratio, prev_ratio - 1e-9);
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 3.0);
}

TEST(MemoryModel, CapacityOverflowChargesFallback) {
  const TierParams mc = knl_mcdram_cache();
  const TierParams ddr = knl_ddr();
  const std::vector<AccessComponent> mix{{1e9, 4096.0}};
  const double fits = modeled_time_s(mc, ddr, mix, 64, 1.0);
  const double overflows = modeled_time_s(mc, ddr, mix, 64, 64.0);
  EXPECT_GT(overflows, fits);
}

TEST(MemoryModel, HashSpeedupGrowsWithEdgeFactor) {
  // Fig. 10: Hash gains more from MCDRAM as matrices densify.
  const double sparse = mcdram_speedup(AccessPattern::kHash, 1e8, 3e7, 4.0,
                                       true, 2.0);
  const double dense = mcdram_speedup(AccessPattern::kHash, 1e9, 1e8, 64.0,
                                      true, 8.0);
  EXPECT_GT(dense, sparse);
  EXPECT_GE(sparse, 0.85);
  EXPECT_LT(dense, 3.4);
}

TEST(MemoryModel, HeapSeesLessBenefitThanHash) {
  const double heap = mcdram_speedup(AccessPattern::kHeap, 1e9, 1e8, 16.0,
                                     true, 4.0);
  const double hash = mcdram_speedup(AccessPattern::kHash, 1e9, 1e8, 16.0,
                                     true, 4.0);
  EXPECT_LT(heap, hash);
}

TEST(MemoryModel, HeapDegradesWhenWorkingSetExceedsCapacity) {
  // Fig. 10 at edge factor 64: Heap's temporaries blow past 16 GB and the
  // speedup dips (to ~<1).
  const double fits = mcdram_speedup(AccessPattern::kHeap, 1e9, 1e8, 64.0,
                                     true, 8.0);
  const double exceeds = mcdram_speedup(AccessPattern::kHeap, 1e9, 1e8, 64.0,
                                        true, 48.0);
  EXPECT_LT(exceeds, fits);
}

// --- Engine scheduler heuristics (lane widths, pool counts) ------------------

TEST(EngineSizing, LaneWidthMonotoneInFlopAndClamped) {
  const TierParams tier = host_fast_tier();
  const int pool = 8;
  EXPECT_EQ(choose_lane_width(0, tier, pool), 1);
  EXPECT_EQ(choose_lane_width(kLaneMinFlopPerWorker, tier, pool), 1);
  int prev = 1;
  for (Offset flop = Offset{1} << 10; flop <= Offset{1} << 34; flop <<= 2) {
    const int w = choose_lane_width(flop, tier, pool);
    EXPECT_GE(w, prev) << "lane width must be monotone in flop";
    EXPECT_GE(w, 1);
    EXPECT_LE(w, pool);
    prev = w;
  }
  // Saturates at the pool width for huge products.
  EXPECT_EQ(choose_lane_width(Offset{1} << 40, tier, pool), pool);
  // Degenerate pools always yield one worker.
  EXPECT_EQ(choose_lane_width(Offset{1} << 40, tier, 1), 1);
  EXPECT_EQ(choose_lane_width(Offset{1} << 40, tier, 0), 1);
}

TEST(EngineSizing, LaneWidthDependsOnlyOnInputs) {
  // The serving engine caches plans keyed by structure and replays them at
  // the planned thread count: the width decision must be a pure function
  // of (flop, tier, pool width) — same inputs, same answer, every call.
  const TierParams tier = host_fast_tier();
  for (const Offset flop : {Offset{1} << 12, Offset{1} << 22, Offset{1} << 30}) {
    const int first = choose_lane_width(flop, tier, 8);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(choose_lane_width(flop, tier, 8), first);
    }
  }
}

TEST(MemoryModel, SpgemmMixHasThreeComponents) {
  const auto mix =
      spgemm_access_mix(AccessPattern::kHash, 1e6, 1e5, 16.0, true);
  ASSERT_EQ(mix.size(), 3u);
  for (const auto& c : mix) {
    EXPECT_GT(c.bytes, 0.0);
    EXPECT_GE(c.stanza_bytes, 4.0);
  }
}

}  // namespace
}  // namespace spgemm::model
