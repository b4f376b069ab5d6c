// Parametric two-tier memory model: the MCDRAM hardware substitution.
//
// This machine has no Knights Landing MCDRAM, so the paper's Fig. 5
// (stanza bandwidth, DDR vs MCDRAM-as-cache) and Fig. 10 (MCDRAM speedup of
// SpGEMM vs edge factor) are reproduced analytically.  The model is
// Little's-law style: a thread issuing stanza transfers of s bytes pays a
// fixed latency per stanza plus s over its per-thread streaming bandwidth;
// aggregate bandwidth across T threads saturates at the tier's peak:
//
//   BW(s) = min( peak_bw,  T * s / (latency + s / thread_bw) )
//
// Defaults are calibrated to the paper's observations: MCDRAM peak 3.4x the
// DDR peak, slightly higher latency, little benefit below ~256-byte
// stanzas, and a capacity cliff at 16 GB (Fig. 10, Heap at edge factor 64).
// The *measured* stanza microbenchmark (src/microbench/stanza.*) exercises
// the same access pattern on the host's real memory.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace spgemm::model {

struct TierParams {
  double latency_ns = 200.0;     ///< per-stanza fixed cost
  double thread_bw_gbps = 8.0;   ///< single-thread streaming bandwidth
  double peak_bw_gbps = 90.0;    ///< socket-level saturation bandwidth
  double capacity_gb = 1e9;      ///< tier capacity (cache-mode cliff)

  bool operator==(const TierParams&) const = default;
};

/// KNL DDR4 (6 channels, ~90 GB/s STREAM).
TierParams knl_ddr();
/// KNL MCDRAM in cache mode: 3.4x DDR peak, higher latency, 16 GB.
TierParams knl_mcdram_cache();
/// The fast tier of a generic multicore host: a shared last-level cache
/// (~32 MB, low latency, high bandwidth).  The serving engine sizes its
/// lanes against it (choose_lane_width); on KNL one would model
/// knl_mcdram_cache() instead.
TierParams host_fast_tier();

/// Aggregate bandwidth for stanza transfers of `stanza_bytes`.
double stanza_bandwidth_gbps(const TierParams& tier, double stanza_bytes,
                             int threads);

/// One class of accesses an algorithm performs: `bytes` moved in stanzas of
/// `stanza_bytes`.
struct AccessComponent {
  double bytes = 0.0;
  double stanza_bytes = 8.0;
};

/// Modeled transfer time (seconds) of a component mix on one tier.  When
/// the working set exceeds the tier's capacity, the overflow fraction is
/// charged at `fallback` (the paper's cache-mode behaviour: misses go to
/// DDR).
double modeled_time_s(const TierParams& tier, const TierParams& fallback,
                      const std::vector<AccessComponent>& mix, int threads,
                      double working_set_gb);

/// Which accumulator's access profile to model (Fig. 10 series).
enum class AccessPattern {
  kHeap,
  kHash,
  kHashVector,
};

/// Build the access-component mix of one SpGEMM run (paper §3.3's three
/// access types: streaming row pointers / output, stanza reads of B rows,
/// accumulator traffic).
std::vector<AccessComponent> spgemm_access_mix(AccessPattern pattern,
                                               double flop, double nnz_out,
                                               double edge_factor,
                                               bool sorted_output);

/// Modeled MCDRAM-cache speedup over DDR-only for one SpGEMM configuration
/// (the y-axis of Fig. 10).
double mcdram_speedup(AccessPattern pattern, double flop, double nnz_out,
                      double edge_factor, bool sorted_output,
                      double working_set_gb, int threads = 64);

// ---- Block-sharded execution sizing (shard/) ------------------------------

/// A 2D blocking decision for the sharded driver (shard/sharded_spgemm.hpp):
/// C is computed as a grid_rows x grid_cols grid of blocks, A is stored as
/// grid_rows x grid_inner block-CSR shards and B as grid_inner x grid_cols.
struct BlockGrid {
  std::size_t grid_rows = 1;
  std::size_t grid_cols = 1;
  /// Storage splitting of the inner (k) dimension — the spill granularity
  /// of the operand shards; the C grid itself is grid_rows x grid_cols.
  std::size_t grid_inner = 1;
};

/// Rough DRAM footprint of one CSR body: nnz entries (index + value) plus
/// the row-pointer array.  The common currency of every blocking estimate.
std::size_t csr_bytes_estimate(std::size_t nnz, std::size_t nrows,
                               std::size_t bytes_per_entry);

/// Conservative extra-DRAM estimate of a monolithic A*B: the output's upper
/// bound (nnz(C) <= flop) plus one entry of accumulator scratch per flop
/// share.  This is what the budget gate of shard::multiply_in_core tests a
/// caller-set memory budget against — inputs are caller-owned and excluded.
std::size_t monolithic_bytes_estimate(Offset flop, std::size_t nrows,
                                      std::size_t bytes_per_entry);

/// Conservative floor on the peak-RSS a fused epilogue pipeline
/// (core/spgemm_twophase.hpp epilogues, core/spgemm_rap.hpp) saves over
/// unfused multiply-then-postprocess: the intermediate CSR's VALUES array
/// plus its row pointers.  The intermediate's 4-byte column indices are
/// deliberately left out as headroom — the fused path stages its kept
/// entries (and a copy of the kept output) at peak, which cancels part of
/// the full intermediate, so asserting the full csr_bytes_estimate would
/// overclaim.  The epilogue ablation bench and the CI peak-RSS gate use
/// this as the minimum saving fusion must demonstrate.
std::size_t fused_epilogue_savings_estimate(Offset nnz_intermediate,
                                            std::size_t nrows,
                                            std::size_t bytes_per_entry = 8);

/// Choose the block grid for one sharded product under a memory budget:
/// the per-C-block working set (one A row panel + one B column panel + the
/// C block's flop-bound output estimate) must fit inside half the budget
/// (the other half stays with the shard store's resident set), and the
/// inner dimension is split so one operand shard stays at or below 1/8 of
/// the budget — the spill/load granule.  `memory_budget_bytes` == 0 derives
/// the budget from half the tier's capacity.  Monotone: a smaller budget
/// never yields a coarser grid.  Grid counts never exceed the matrix
/// dimensions and are best-effort: at the dimension clamp the working set
/// may still exceed a pathologically small budget.
BlockGrid choose_block_grid(Offset nnz_a, Offset nnz_b, Offset flop,
                            std::size_t nrows, std::size_t ncols,
                            std::size_t inner_dim,
                            std::size_t memory_budget_bytes,
                            const TierParams& tier,
                            std::size_t bytes_per_entry = 12);

}  // namespace spgemm::model
