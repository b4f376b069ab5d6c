#include "model/memory_model.hpp"

#include <algorithm>
#include <cmath>

namespace spgemm::model {

TierParams knl_ddr() {
  TierParams t;
  t.latency_ns = 200.0;
  t.thread_bw_gbps = 8.0;
  t.peak_bw_gbps = 90.0;
  t.capacity_gb = 96.0;
  return t;
}

TierParams knl_mcdram_cache() {
  TierParams t;
  // Cache mode adds a tag-check to every access: slightly worse latency
  // than DDR (the paper: "its memory latency is larger than that of DDR4").
  t.latency_ns = 212.0;
  t.thread_bw_gbps = 9.0;
  t.peak_bw_gbps = 306.0;  // 3.4x the DDR peak (paper Fig. 5)
  t.capacity_gb = 16.0;
  return t;
}

TierParams host_fast_tier() {
  TierParams t;
  // A shared LLC: ~20 ns load-to-use, per-core fills far faster than DRAM
  // streams, aggregate bandwidth well above any DRAM tier, tens of MB.
  t.latency_ns = 20.0;
  t.thread_bw_gbps = 32.0;
  t.peak_bw_gbps = 400.0;
  t.capacity_gb = 0.032;
  return t;
}

double stanza_bandwidth_gbps(const TierParams& tier, double stanza_bytes,
                             int threads) {
  const double s = std::max(1.0, stanza_bytes);
  const double per_thread_time_ns =
      tier.latency_ns + s / tier.thread_bw_gbps;  // GB/s == bytes/ns
  const double aggregate = static_cast<double>(threads) * s /
                           per_thread_time_ns;
  return std::min(tier.peak_bw_gbps, aggregate);
}

double modeled_time_s(const TierParams& tier, const TierParams& fallback,
                      const std::vector<AccessComponent>& mix, int threads,
                      double working_set_gb) {
  // Fraction of accesses resident in this tier; the rest spill to fallback.
  const double resident =
      working_set_gb <= tier.capacity_gb
          ? 1.0
          : tier.capacity_gb / working_set_gb;
  // A capacity miss in cache mode is dearer than fallback-only access: the
  // tag check in this tier is paid first, then the fallback transfer (the
  // mechanism behind the paper's Heap degradation at edge factor 64).
  TierParams penalized = fallback;
  penalized.latency_ns += tier.latency_ns;
  double seconds = 0.0;
  for (const AccessComponent& c : mix) {
    const double bw_hit = stanza_bandwidth_gbps(tier, c.stanza_bytes, threads);
    const double bw_miss =
        stanza_bandwidth_gbps(penalized, c.stanza_bytes, threads);
    const double gb = c.bytes / 1e9;
    seconds += resident * gb / bw_hit + (1.0 - resident) * gb / bw_miss;
  }
  return seconds;
}

std::vector<AccessComponent> spgemm_access_mix(AccessPattern pattern,
                                               double flop, double nnz_out,
                                               double edge_factor,
                                               bool sorted_output) {
  // Bytes per nonzero: 4-byte column index + 8-byte value.
  constexpr double kEntry = 12.0;
  std::vector<AccessComponent> mix;

  // (1) Reads of rows of B: every scalar multiplication touches one entry.
  // The hash family consumes each row of B contiguously — a stanza of
  // edge_factor entries — which is what lets denser matrices exploit
  // MCDRAM (§3.3).  Heap SpGEMM interleaves its nnz(a_i*) merge streams,
  // so its effective DRAM granularity stays one entry regardless of
  // density — the "fine-grained accesses" the paper blames for Heap's
  // missing MCDRAM benefit.
  const double b_stanza = pattern == AccessPattern::kHeap
                              ? 16.0
                              : std::max(8.0, edge_factor * kEntry);
  mix.push_back({flop * kEntry, b_stanza});

  // (2) Accumulator traffic that actually reaches DRAM.  Per-thread hash
  // tables and heaps are sized to one row's flop and stay mostly cache-
  // resident; the spill fraction that misses fetches whole cache lines
  // (64 B) for the hash family, while heap sift chains touch scattered
  // 16-byte entries.
  const double spill_fraction = pattern == AccessPattern::kHeap
                                    ? 0.40
                                    : pattern == AccessPattern::kHash
                                          ? 0.10
                                          : 0.06;
  const double granule = pattern == AccessPattern::kHeap ? 16.0 : 64.0;
  mix.push_back({flop * spill_fraction * kEntry, granule});

  // (3) Streaming output write (plus a sort pass when sorted).
  mix.push_back({nnz_out * kEntry * (sorted_output ? 2.0 : 1.0), 4096.0});
  return mix;
}

std::size_t csr_bytes_estimate(std::size_t nnz, std::size_t nrows,
                               std::size_t bytes_per_entry) {
  return nnz * bytes_per_entry + (nrows + 1) * sizeof(Offset);
}

std::size_t monolithic_bytes_estimate(Offset flop, std::size_t nrows,
                                      std::size_t bytes_per_entry) {
  const auto f = static_cast<std::size_t>(std::max<Offset>(flop, 0));
  // Output upper bound (nnz(C) <= flop) plus ~1/8 of it again for the
  // accumulator tables and capture scratch the plan claims alongside.
  const std::size_t out = csr_bytes_estimate(f, nrows, bytes_per_entry);
  return out + out / 8;
}

std::size_t fused_epilogue_savings_estimate(Offset nnz_intermediate,
                                            std::size_t nrows,
                                            std::size_t bytes_per_entry) {
  const auto nnz =
      static_cast<std::size_t>(std::max<Offset>(nnz_intermediate, 0));
  return csr_bytes_estimate(nnz, nrows, bytes_per_entry);
}

BlockGrid choose_block_grid(Offset nnz_a, Offset nnz_b, Offset flop,
                            std::size_t nrows, std::size_t ncols,
                            std::size_t inner_dim,
                            std::size_t memory_budget_bytes,
                            const TierParams& tier,
                            std::size_t bytes_per_entry) {
  BlockGrid grid;
  if (nrows == 0 || ncols == 0 || inner_dim == 0) return grid;
  std::size_t budget = memory_budget_bytes;
  if (budget == 0) {
    budget = static_cast<std::size_t>(tier.capacity_gb * 0.5 * 1e9);
  }
  budget = std::max<std::size_t>(budget, std::size_t{64} << 10);

  const auto a_nnz = static_cast<std::size_t>(std::max<Offset>(nnz_a, 0));
  const auto b_nnz = static_cast<std::size_t>(std::max<Offset>(nnz_b, 0));
  const auto f = static_cast<std::size_t>(std::max<Offset>(flop, 0));

  // Working set of one C-block request at grid (gr, gc): the A row panel
  // (1/gr of A), the B column panel (1/gc of B) and the C block's
  // flop-bound output estimate.  Half the budget is reserved for the shard
  // store's resident set, so the request targets the other half.
  const std::size_t target = budget / 2;
  auto working_set = [&](std::size_t gr, std::size_t gc) {
    const std::size_t a_panel =
        csr_bytes_estimate(a_nnz / gr + 1, nrows / gr + 1, bytes_per_entry);
    const std::size_t b_panel =
        csr_bytes_estimate(b_nnz / gc + 1, inner_dim, bytes_per_entry);
    const std::size_t c_block = csr_bytes_estimate(
        f / (gr * gc) + 1, nrows / gr + 1, bytes_per_entry);
    return a_panel + b_panel + c_block + c_block / 8;
  };

  // Refine the grid square-ish: double whichever axis buys the larger
  // working-set reduction until the request fits or both axes hit their
  // dimension clamp (best effort past that).
  std::size_t gr = 1;
  std::size_t gc = 1;
  while (working_set(gr, gc) > target) {
    const bool can_r = gr * 2 <= nrows;
    const bool can_c = gc * 2 <= ncols;
    if (!can_r && !can_c) break;
    if (can_r && (!can_c || working_set(gr * 2, gc) <= working_set(gr, gc * 2))) {
      gr *= 2;
    } else {
      gc *= 2;
    }
  }
  grid.grid_rows = gr;
  grid.grid_cols = gc;

  // Inner splitting: one operand shard is the spill/load granule; keep it
  // at or below 1/8 of the budget so the store can always make eviction
  // progress without spilling the block it is about to use.
  const std::size_t shard_target = std::max<std::size_t>(budget / 8, 1);
  const std::size_t a_stripe =
      csr_bytes_estimate(a_nnz / gr + 1, nrows / gr + 1, bytes_per_entry);
  const std::size_t b_stripe =
      csr_bytes_estimate(b_nnz / gc + 1, inner_dim, bytes_per_entry);
  const std::size_t widest = std::max(a_stripe, b_stripe);
  std::size_t gi = (widest + shard_target - 1) / shard_target;
  gi = std::max<std::size_t>(gi, 1);
  gi = std::min(gi, inner_dim);
  grid.grid_inner = gi;
  return grid;
}

double mcdram_speedup(AccessPattern pattern, double flop, double nnz_out,
                      double edge_factor, bool sorted_output,
                      double working_set_gb, int threads) {
  const std::vector<AccessComponent> mix =
      spgemm_access_mix(pattern, flop, nnz_out, edge_factor, sorted_output);
  const TierParams ddr = knl_ddr();
  const TierParams mc = knl_mcdram_cache();
  const double t_ddr = modeled_time_s(ddr, ddr, mix, threads,
                                      working_set_gb);
  const double t_mc = modeled_time_s(mc, ddr, mix, threads, working_set_gb);
  return t_ddr / t_mc;
}

}  // namespace spgemm::model
