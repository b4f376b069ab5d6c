// ShardedSpGemm — out-of-core SpGEMM over the serving engine.
//
// The capstone of the sharding layer: products whose working state exceeds
// DRAM (or a caller-set budget) execute as a walk over a 2D grid of C
// blocks, streaming block products through a SpGemmEngine while a
// ShardStore keeps the resident set of operand and output shards under the
// byte budget, spilling the cold remainder to disk.  The blocking comes
// from model::choose_block_grid — the same memory model that sizes the
// engine's plan cache and schedules — so one budget number drives the whole
// stack.
//
// Each C block (i, j) is ONE engine request over assembled panels: the A
// row panel (horizontal concatenation of the A(i, k) shards — exactly rows
// [i] of A) times the B column panel (vertical concatenation of the B(k, j)
// shards — exactly the column stripe j of B, with local columns).
// Restricting B to a column subset removes terms from each output element's
// sum without REORDERING the survivors: every surviving fold happens in the
// same order as the monolithic run for kernels that accumulate in VISIT
// order (the hash family and the SPA stand-ins), so with sorted inputs, the
// engine's default sorted output and a fixed such kernel, the assembled C
// is BIT-IDENTICAL to engine.multiply(a, b) — the contract the out-of-core
// path is tested against.  Under Algorithm::kAuto the recipe may pick
// different kernels for different block shapes, so the product is bit-exact
// only under exact arithmetic there.  One-phase kernels (kHeap, kMerge, ...)
// cannot be planned by the engine at all — the driver surfaces the engine's
// typed kBadInput unchanged.  grid_inner only sets the spill granularity of
// the stored shards; panels are transient.
//
// multiply_in_core() is the monolithic comparator: it estimates the
// monolithic working state (model::monolithic_bytes_estimate) against the
// same budget and fails fast with a *typed* SpGemmError(kOutOfMemory)
// instead of touching the allocator — the "this would not have fit" signal
// the sharded path exists to answer.
//
// Inputs are caller-owned and excluded from the budget (as are the
// returned C's bytes — the budget governs the driver's working state).
// Unsorted inputs are canonicalised to sorted copies first; the
// bit-identity contract is stated against the monolithic product of those
// sorted inputs.
//
// Threading: multiply() is single-caller (it owns the ShardStore walk);
// the engine underneath parallelises each block product across its workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "core/structure_hash.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/csr.hpp"
#include "model/cost_model.hpp"
#include "model/memory_model.hpp"
#include "shard/block_csr.hpp"
#include "shard/shard_store.hpp"

namespace spgemm::shard {

struct ShardedOptions {
  /// Working-state budget in bytes.  0 falls back to $SPGEMM_SHARD_BUDGET,
  /// then to half the KNL DDR model's capacity.
  std::size_t memory_budget_bytes = 0;
  /// ShardStore spill directory (see shard_store.hpp).
  std::string spill_dir;
};

/// One multiply()'s observability record.
struct ShardedStats {
  model::BlockGrid grid;               ///< the blocking that ran
  std::size_t budget_bytes = 0;        ///< the resolved budget
  std::uint64_t block_products = 0;    ///< engine requests issued
  std::uint64_t shard_accesses = 0;    ///< ShardStore pins
  std::uint64_t shard_loads = 0;       ///< pins that had to read disk
  std::uint64_t spills = 0;            ///< shard write-outs
  std::size_t peak_resident_bytes = 0; ///< store DRAM high-water mark
  std::uint64_t engine_cache_hits = 0; ///< plan-cache hits of this multiply
  bool spilled = false;                ///< any shard left DRAM

  /// Fraction of shard accesses served from DRAM (no disk read).
  [[nodiscard]] double in_core_rate() const {
    return shard_accesses == 0
               ? 1.0
               : 1.0 - static_cast<double>(shard_loads) /
                           static_cast<double>(shard_accesses);
  }
  /// Plan-cache hit share of this multiply's engine requests.
  [[nodiscard]] double cache_hit_share() const {
    return block_products == 0
               ? 0.0
               : static_cast<double>(engine_cache_hits) /
                     static_cast<double>(block_products);
  }
};

template <IndexType IT, ValueType VT>
class ShardedSpGemm {
 public:
  using Matrix = CsrMatrix<IT, VT>;
  using Engine = engine::SpGemmEngine<IT, VT>;

  explicit ShardedSpGemm(Engine& eng, ShardedOptions opts = {})
      : engine_(eng), opts_(std::move(opts)) {}

  /// The budget every decision in this driver tests against.
  [[nodiscard]] std::size_t resolved_budget() const {
    if (opts_.memory_budget_bytes > 0) return opts_.memory_budget_bytes;
    const auto env_budget = env::get_int("SPGEMM_SHARD_BUDGET", 0);
    if (env_budget > 0) return static_cast<std::size_t>(env_budget);
    return std::max<std::size_t>(
        static_cast<std::size_t>(model::knl_ddr().capacity_gb * 0.5 * 1e9),
        std::size_t{64} << 10);
  }

  /// Monolithic comparator under the same cap: fails fast with a typed
  /// SpGemmError(kOutOfMemory) when the estimated monolithic working state
  /// exceeds the budget, otherwise serves engine.multiply(a, b) directly.
  Matrix multiply_in_core(const Matrix& a, const Matrix& b) {
    validate(a, b);
    const Offset flop = model::estimate_flop(a, b);
    const std::size_t budget = resolved_budget();
    const std::size_t need = model::monolithic_bytes_estimate(
        flop, static_cast<std::size_t>(a.nrows), sizeof(IT) + sizeof(VT));
    if (need > budget) {
      throw SpGemmError(
          ErrorCode::kOutOfMemory,
          "multiply_in_core: monolithic working state (~" +
              std::to_string(need) + " bytes) exceeds the memory budget (" +
              std::to_string(budget) + " bytes); use ShardedSpGemm::multiply");
    }
    return engine_.multiply(a, b).c;
  }

  /// The out-of-core product.  Sorted inputs (unsorted ones are sorted
  /// first) and the engine's default sorted output make the result
  /// bit-identical to engine.multiply on the same inputs.
  Matrix multiply(const Matrix& a, const Matrix& b) {
    validate(a, b);
    try {
      return multiply_impl(a, b);
    } catch (const SpGemmError&) {
      throw;
    } catch (const fault::InjectedFault& f) {
      throw SpGemmError(ErrorCode::kInternal, f.what());
    } catch (const std::bad_alloc&) {
      throw SpGemmError(ErrorCode::kOutOfMemory,
                        "ShardedSpGemm: allocation failed");
    } catch (const std::exception& e) {
      throw SpGemmError(ErrorCode::kInternal, e.what());
    }
  }

  /// Stats of the last multiply().
  [[nodiscard]] const ShardedStats& stats() const { return stats_; }

 private:
  using Store = ShardStore<IT, VT>;
  using Pin = typename Store::Pin;

  static void validate(const Matrix& a, const Matrix& b) {
    if (a.ncols != b.nrows) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "ShardedSpGemm: inner dimensions disagree");
    }
  }

  /// Shard keys: matrix id (0=A, 1=B, 2=C) in the top bits, then the grid
  /// coordinates.
  static std::uint64_t key(std::uint64_t which, std::uint64_t bi,
                           std::uint64_t bj) {
    return (which << 60) | (bi << 30) | bj;
  }

  Matrix multiply_impl(const Matrix& a_in, const Matrix& b_in) {
    // Canonicalise: the fold-order argument (and the cut/assemble
    // round-trip exactness) needs ascending rows.
    Matrix a_sorted;
    Matrix b_sorted;
    const Matrix* a = &a_in;
    const Matrix* b = &b_in;
    if (!a_in.claims_sorted()) {
      a_sorted = a_in;
      a_sorted.sort_rows();
      a = &a_sorted;
    }
    if (!b_in.claims_sorted()) {
      b_sorted = b_in;
      b_sorted.sort_rows();
      b = &b_sorted;
    }

    const std::size_t budget = resolved_budget();
    const Offset flop = model::estimate_flop(*a, *b);
    const model::BlockGrid grid = model::choose_block_grid(
        a->nnz(), b->nnz(), flop, static_cast<std::size_t>(a->nrows),
        static_cast<std::size_t>(b->ncols),
        static_cast<std::size_t>(a->ncols), budget, model::knl_ddr(),
        sizeof(IT) + sizeof(VT));

    stats_ = ShardedStats{};
    stats_.grid = grid;
    stats_.budget_bytes = budget;
    const auto hits_before = engine_.cache_stats().hits;

    ShardStoreOptions store_opts;
    store_opts.memory_budget_bytes = budget;
    store_opts.spill_dir = opts_.spill_dir;
    // Shard I/O instants land on the engine's synchronous-caller trace
    // track, beside the block products this walk submits.
    store_opts.trace = engine_.sync_trace_ring();
    store_opts.trace_pid = static_cast<int>(Engine::kSyncTracePid);
    Store store(store_opts);

    // Cut the operands into the store.  A: grid_rows x grid_inner,
    // B: grid_inner x grid_cols.  The blocked copies replace the caller's
    // matrices as the driver's working state; the originals are not
    // touched again until return.
    const Blocking<IT> a_cut = Blocking<IT>::grid(
        a->nrows, a->ncols, grid.grid_rows, grid.grid_inner);
    const Blocking<IT> b_cut = Blocking<IT>::grid(
        b->nrows, b->ncols, grid.grid_inner, grid.grid_cols);
    BlockCsrMatrix<IT, VT> a_blocks = cut_blocks(*a, a_cut);
    BlockCsrMatrix<IT, VT> b_blocks = cut_blocks(*b, b_cut);
    const auto gr = a_blocks.grid_rows();
    const auto gk = a_blocks.grid_cols();
    const auto gc = b_blocks.grid_cols();
    for (std::size_t i = 0; i < gr; ++i) {
      for (std::size_t k = 0; k < gk; ++k) {
        store.put(key(0, i, k), std::move(a_blocks.block(i, k)));
      }
    }
    for (std::size_t k = 0; k < gk; ++k) {
      for (std::size_t j = 0; j < gc; ++j) {
        store.put(key(1, k, j), std::move(b_blocks.block(k, j)));
      }
    }
    a_blocks.blocks.clear();
    const Blocking<IT> b_grid_shape = b_blocks.blocking;
    b_blocks.blocks.clear();

    // The C grid mirrors (A row stripes) x (B column stripes).
    BlockCsrMatrix<IT, VT> c_blocks;
    c_blocks.nrows = a->nrows;
    c_blocks.ncols = b->ncols;
    c_blocks.blocking = Blocking<IT>::of(a->nrows, b->ncols, a_cut.row_block,
                                         b_grid_shape.col_block);
    c_blocks.blocks.resize(gr * gc);

    run_panel(store, a->ncols, gr, gk, gc, a_cut);

    // Assemble C from the stored blocks, draining the store as we go.
    for (std::size_t i = 0; i < gr; ++i) {
      for (std::size_t j = 0; j < gc; ++j) {
        {
          Pin p = pin(store, key(2, i, j));
          c_blocks.block(i, j) = *p;
        }
        store.erase(key(2, i, j));
      }
    }
    Matrix c = assemble_blocks(c_blocks);

    stats_.spills = store.stats().spills;
    stats_.peak_resident_bytes = store.stats().peak_resident_bytes;
    stats_.spilled = store.stats().spills > 0;
    stats_.engine_cache_hits = engine_.cache_stats().hits - hits_before;
    // Mirror this walk's deltas into the process-wide registry (spills and
    // loads were already mirrored at the store's I/O sites).
    if (telemetry::enabled()) {
      auto& reg = telemetry::registry();
      static telemetry::Counter& c_products = reg.counter(
          "spgemm_sharded_block_products_total",
          "Engine requests issued by the out-of-core sharded driver.");
      static telemetry::Counter& c_accesses =
          reg.counter("spgemm_sharded_shard_accesses_total",
                      "Shard pins taken by the sharded driver.");
      c_products.add(stats_.block_products);
      c_accesses.add(stats_.shard_accesses);
    }
    return c;
  }

  /// Counted pin: every shard access flows through here so the in-core
  /// rate is exact.
  Pin pin(Store& store, std::uint64_t k) {
    const auto loads_before = store.stats().loads;
    Pin p = store.pin(k);
    ++stats_.shard_accesses;
    stats_.shard_loads += store.stats().loads - loads_before;
    return p;
  }

  /// Horizontal concatenation of one A row stripe: exactly rows
  /// [r0, r1) of A.  Short-circuits to the single shard when gk == 1.
  static Matrix concat_row_panel(const std::vector<Pin>& pins, IT col_block,
                                 IT ncols) {
    const Matrix& first = *pins.front();
    Matrix panel(first.nrows, ncols);
    Offset nnz = 0;
    bool sorted = true;
    for (const Pin& p : pins) {
      nnz += p->nnz();
      sorted = sorted && p->claims_sorted();
    }
    panel.cols.resize(static_cast<std::size_t>(nnz));
    panel.vals.resize(static_cast<std::size_t>(nnz));
    std::size_t out = 0;
    for (IT r = 0; r < first.nrows; ++r) {
      for (std::size_t k = 0; k < pins.size(); ++k) {
        const Matrix& blk = *pins[k];
        const IT offset = static_cast<IT>(k) * col_block;
        for (Offset j = blk.row_begin(r); j < blk.row_end(r); ++j, ++out) {
          panel.cols[out] = blk.cols[static_cast<std::size_t>(j)] + offset;
          panel.vals[out] = blk.vals[static_cast<std::size_t>(j)];
        }
      }
      panel.rpts[static_cast<std::size_t>(r) + 1] =
          static_cast<Offset>(out);
    }
    panel.sortedness = sorted ? Sortedness::kSorted : Sortedness::kUnsorted;
    return panel;
  }

  /// Vertical concatenation of one B column stripe: the column stripe j of
  /// B with local columns — row k-stripes stacked in ascending k.
  static Matrix concat_col_panel(const std::vector<Pin>& pins) {
    IT nrows = 0;
    Offset nnz = 0;
    bool sorted = true;
    for (const Pin& p : pins) {
      nrows += p->nrows;
      nnz += p->nnz();
      sorted = sorted && p->claims_sorted();
    }
    Matrix panel(nrows, pins.front()->ncols);
    panel.cols.resize(static_cast<std::size_t>(nnz));
    panel.vals.resize(static_cast<std::size_t>(nnz));
    std::size_t row = 0;
    std::size_t out = 0;
    for (const Pin& p : pins) {
      const Matrix& blk = *p;
      for (IT r = 0; r < blk.nrows; ++r, ++row) {
        for (Offset j = blk.row_begin(r); j < blk.row_end(r); ++j, ++out) {
          panel.cols[out] = blk.cols[static_cast<std::size_t>(j)];
          panel.vals[out] = blk.vals[static_cast<std::size_t>(j)];
        }
        panel.rpts[row + 1] = static_cast<Offset>(out);
      }
    }
    panel.sortedness = sorted ? Sortedness::kSorted : Sortedness::kUnsorted;
    return panel;
  }

  /// One engine request per C block, submitted through the
  /// engine's stream so block products batch under its admission policy.
  /// The A row panel is assembled once per block row and reused across the
  /// row's requests.
  void run_panel(Store& store, IT a_ncols, std::size_t gr, std::size_t gk,
                 std::size_t gc, const Blocking<IT>& a_cut) {
    // B panel fingerprints are stable across block rows: computing them
    // once lets repeated requests carry identical pair hashes (plan-cache
    // keys) without re-hashing.
    std::vector<std::uint64_t> b_panel_fp(gc, 0);
    std::vector<bool> b_panel_fp_known(gc, false);

    for (std::size_t i = 0; i < gr; ++i) {
      // Pin the row's A shards and build the row panel (or borrow the
      // single shard outright when the inner dimension is not split).
      std::vector<Pin> a_pins;
      a_pins.reserve(gk);
      for (std::size_t k = 0; k < gk; ++k) {
        a_pins.push_back(pin(store, key(0, i, k)));
      }
      Matrix a_panel_storage;
      const Matrix* a_panel = nullptr;
      if (gk == 1) {
        a_panel = a_pins.front().get();
      } else {
        a_panel_storage = concat_row_panel(a_pins, a_cut.col_block, a_ncols);
        a_panel = &a_panel_storage;
        a_pins.clear();
      }
      const std::uint64_t fp_a = structure_fingerprint(*a_panel);

      // One in-flight request at a time keeps the transient panel
      // footprint at a single working set (the budget's sizing unit); the
      // engine still parallelises inside each product.
      for (std::size_t j = 0; j < gc; ++j) {
        std::vector<Pin> b_pins;
        b_pins.reserve(gk);
        for (std::size_t k = 0; k < gk; ++k) {
          b_pins.push_back(pin(store, key(1, k, j)));
        }
        Matrix b_panel_storage;
        const Matrix* b_panel = nullptr;
        if (gk == 1) {
          b_panel = b_pins.front().get();
        } else {
          b_panel_storage = concat_col_panel(b_pins);
          b_panel = &b_panel_storage;
          b_pins.clear();
        }
        if (!b_panel_fp_known[j]) {
          b_panel_fp[j] = structure_fingerprint(*b_panel);
          b_panel_fp_known[j] = true;
        }

        typename Engine::Request req;
        req.a = a_panel;
        req.b = b_panel;
        req.fp_a = fp_a;
        req.fp_b = b_panel_fp[j];
        req.has_fingerprints = true;
        auto fut = engine_.submit(req);
        typename Engine::Product product = fut.get();
        ++stats_.block_products;
        store.put(key(2, i, j), std::move(product.c));
      }
    }
  }

  Engine& engine_;
  ShardedOptions opts_;
  ShardedStats stats_;
};

}  // namespace spgemm::shard
