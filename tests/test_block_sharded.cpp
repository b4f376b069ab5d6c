// Tests for the block-sharded out-of-core layer (PR 7): the 2D block-CSR
// cut/assemble round trip, the ShardStore spill/reload contract, and the
// ShardedSpGemm driver's headline guarantee — out-of-core products
// bit-identical to the monolithic engine path, under budgets the
// monolithic gate rejects with a typed kOutOfMemory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/rmat.hpp"
#include "model/cost_model.hpp"
#include "model/memory_model.hpp"
#include "shard/block_csr.hpp"
#include "shard/shard_store.hpp"
#include "shard/sharded_spgemm.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Engine = engine::SpGemmEngine<I, double>;
using Sharded = shard::ShardedSpGemm<I, double>;
using Store = shard::ShardStore<I, double>;
using Triplets = std::vector<std::tuple<I, I, double>>;

void expect_bitwise_equal(const Matrix& x, const Matrix& y,
                          const std::string& label) {
  ASSERT_EQ(x.nrows, y.nrows) << label;
  ASSERT_EQ(x.ncols, y.ncols) << label;
  ASSERT_EQ(x.rpts, y.rpts) << label;
  ASSERT_EQ(x.cols, y.cols) << label;
  ASSERT_EQ(x.vals.size(), y.vals.size()) << label;
  for (std::size_t i = 0; i < x.vals.size(); ++i) {
    ASSERT_EQ(x.vals[i], y.vals[i]) << label << " at vals[" << i << "]";
  }
}

Matrix random_rmat(int scale, int edge_factor, std::uint64_t seed) {
  return rmat_matrix<I, double>(RmatParams::g500(scale, edge_factor, seed));
}

// ---------------------------------------------------------------------------
// BlockCsr: cut / assemble round trips.
// ---------------------------------------------------------------------------

TEST(BlockCsr, RoundTripUnevenGrid) {
  // 10 x 7 with 3 x 2 blocks: trailing stripes are short on both axes.
  const auto a = csr_from_triplets<I, double>(
      10, 7,
      Triplets{{0, 0, 1.0}, {0, 6, 2.0}, {2, 3, 3.0}, {4, 1, 4.0},
               {4, 2, 4.5}, {5, 5, 5.0}, {9, 0, 6.0}, {9, 6, 7.0}});
  const auto blocking = shard::Blocking<I>::of(10, 7, 3, 2);
  EXPECT_EQ(blocking.grid_rows, 4);
  EXPECT_EQ(blocking.grid_cols, 4);
  const auto blocks = shard::cut_blocks(a, blocking);
  EXPECT_EQ(blocks.nnz(), a.nnz());
  const Matrix back = shard::assemble_blocks(blocks);
  expect_bitwise_equal(back, a, "uneven grid");
  EXPECT_TRUE(back.claims_sorted());
}

TEST(BlockCsr, RoundTripRandomMatrixManyBlockings) {
  const Matrix a = random_rmat(8, 6, 21);
  for (const auto [rb, cb] : {std::pair<I, I>{1, 1}, {7, 13}, {64, 31},
                              {256, 256}, {1000, 3}}) {
    const auto blocking = shard::Blocking<I>::of(a.nrows, a.ncols, rb, cb);
    const Matrix back =
        shard::assemble_blocks(shard::cut_blocks(a, blocking));
    expect_bitwise_equal(back, a,
                         "blocking " + std::to_string(rb) + "x" +
                             std::to_string(cb));
  }
}

TEST(BlockCsr, EmptyBlocksAndEmptyMatrix) {
  // All mass in one corner: most blocks are structurally empty.
  const auto corner = csr_from_triplets<I, double>(
      9, 9, Triplets{{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}});
  const auto blocking = shard::Blocking<I>::of(9, 9, 2, 2);
  const auto blocks = shard::cut_blocks(corner, blocking);
  EXPECT_EQ(blocks.block(4, 4).nnz(), 0);  // trailing 1x1 block, empty
  expect_bitwise_equal(shard::assemble_blocks(blocks), corner, "corner");

  // A fully empty matrix round-trips too.
  const Matrix empty(6, 5);
  const auto eblocks =
      shard::cut_blocks(empty, shard::Blocking<I>::of(6, 5, 4, 4));
  EXPECT_EQ(eblocks.nnz(), 0);
  expect_bitwise_equal(shard::assemble_blocks(eblocks), empty, "empty");
}

TEST(BlockCsr, OneByOneGridIsIdentity) {
  const Matrix a = random_rmat(6, 4, 22);
  const auto blocking =
      shard::Blocking<I>::grid(a.nrows, a.ncols, 1, 1);
  const auto blocks = shard::cut_blocks(a, blocking);
  ASSERT_EQ(blocks.blocks.size(), 1u);
  expect_bitwise_equal(blocks.block(0, 0), a, "single block");
  expect_bitwise_equal(shard::assemble_blocks(blocks), a, "1x1 grid");
}

TEST(BlockCsr, GridFactoryClampsToDimensions) {
  const auto blocking = shard::Blocking<I>::grid(3, 2, 100, 100);
  EXPECT_LE(blocking.grid_rows, 3);
  EXPECT_LE(blocking.grid_cols, 2);
  EXPECT_GE(blocking.grid_rows, 1);
}

// ---------------------------------------------------------------------------
// ShardStore: spill, reload, budget, typed errors.
// ---------------------------------------------------------------------------

TEST(ShardStore, SpillsUnderBudgetAndReloadsBitIdentical) {
  const Matrix a = random_rmat(7, 6, 23);
  const auto blocking = shard::Blocking<I>::grid(a.nrows, a.ncols, 4, 1);
  auto blocks = shard::cut_blocks(a, blocking);
  std::vector<Matrix> originals;
  for (const auto& b : blocks.blocks) originals.push_back(b);

  shard::ShardStoreOptions opts;
  opts.memory_budget_bytes = Store::matrix_bytes(originals[0]) * 3 / 2;
  Store store(opts);
  for (std::size_t i = 0; i < originals.size(); ++i) {
    store.put(i, std::move(blocks.blocks[i]));
  }
  EXPECT_GT(store.stats().spills, 0u) << "budget should have forced a spill";
  EXPECT_LE(store.stats().resident_bytes, opts.memory_budget_bytes);

  // Every shard reads back byte-for-byte.
  for (std::size_t i = 0; i < originals.size(); ++i) {
    auto pin = store.pin(i);
    expect_bitwise_equal(*pin, originals[i],
                         "shard " + std::to_string(i));
  }
  EXPECT_GT(store.stats().loads, 0u);
}

TEST(ShardStore, TruncatedSpillFailsTyped) {
  // A spill file shorter than its header declares must fail the read-back
  // with kInternal, before anything is sized from the header: first a file
  // cut in half, then a header that claims 2^40 entries (sizing from it
  // would throw bad_alloc, a kOutOfMemory).
  const Matrix a = random_rmat(6, 5, 24);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("spgemm-truncated-spill-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    shard::ShardStoreOptions opts;
    opts.memory_budget_bytes = 1;  // evict everything unpinned
    opts.spill_dir = dir.string();
    Store store(opts);
    store.put(1, a);
    store.put(2, a);
    store.put(3, a);  // every shard is spilled now
    std::vector<std::filesystem::path> spills;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) spills.push_back(e.path());
    }
    ASSERT_EQ(spills.size(), 3u);
    const auto expect_internal = [&](std::uint64_t key, const char* what) {
      try {
        auto pin = store.pin(key);
        ADD_FAILURE() << what << ": read back a corrupt spill file";
      } catch (const SpGemmError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInternal) << what << ": " << e.what();
      }
    };
    for (const auto& f : spills) {
      std::filesystem::resize_file(f, std::filesystem::file_size(f) / 2);
    }
    expect_internal(1, "half file");
    // The header is four uint64 fields: nrows, ncols, nnz, sorted.
    const std::uint64_t huge_nnz = std::uint64_t{1} << 40;
    for (const auto& f : spills) {
      std::fstream io(f, std::ios::in | std::ios::out | std::ios::binary);
      io.seekp(2 * sizeof(std::uint64_t));
      io.write(reinterpret_cast<const char*>(&huge_nnz), sizeof(huge_nnz));
    }
    expect_internal(2, "oversized header");
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardStore, PinnedShardsAreNotEvicted) {
  const Matrix a = random_rmat(5, 4, 25);
  shard::ShardStoreOptions opts;
  // Room for one shard, not two: the pinned one must stay put.
  opts.memory_budget_bytes = Store::matrix_bytes(a) * 3 / 2;
  Store store(opts);
  store.put(1, a);
  auto pin = store.pin(1);
  store.put(2, a);  // over budget, but shard 1 is pinned: shard 2 spills
  expect_bitwise_equal(*pin, a, "pinned survivor");
  EXPECT_EQ(store.stats().loads, 0u) << "pinned shard must not round-trip";
  EXPECT_GT(store.stats().spills, 0u) << "the unpinned shard should spill";
  auto pin2 = store.pin(2);  // and still reads back intact
  expect_bitwise_equal(*pin2, a, "evicted neighbour");
}

TEST(ShardStore, UnknownKeyAndFaultsSurfaceTyped) {
  const Matrix a = random_rmat(5, 4, 26);
  shard::ShardStoreOptions opts;
  opts.memory_budget_bytes = 1;
  Store store(opts);
  try {
    store.pin(42);
    FAIL() << "unknown key should throw";
  } catch (const SpGemmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadInput);
  }

  {
    fault::ScopedFault f("shard.spill.write", 1);
    try {
      store.put(1, a);  // eviction under budget 1 hits the spill point
      FAIL() << "armed spill should throw";
    } catch (const SpGemmError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal) << e.what();
    }
  }
  fault::disarm_all();

  Store store2(opts);
  store2.put(1, a);
  store2.put(2, a);  // spills shard 1
  {
    fault::ScopedFault f("shard.load.map", 1);
    try {
      store2.pin(1);
      FAIL() << "armed load should throw";
    } catch (const SpGemmError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal) << e.what();
    }
  }
  fault::disarm_all();
  // The fault was transient: the shard is still loadable afterwards.
  auto pin = store2.pin(1);
  expect_bitwise_equal(*pin, a, "after disarm");
}

// ---------------------------------------------------------------------------
// ShardedSpGemm: bit-identity, budget gate, spill, faults, shedding.
// ---------------------------------------------------------------------------

Engine::Product monolithic(Engine& eng, const Matrix& a, const Matrix& b) {
  return eng.multiply(a, b);
}

TEST(ShardedSpGemm, BitIdenticalToMonolithicAcrossKernelsAndThreads) {
  const Matrix a = random_rmat(7, 6, 27);
  const Matrix b = random_rmat(7, 6, 28);
  // Visit-order kernels carry the bit-identity contract for arbitrary FP
  // values (see sharded_spgemm.hpp on Heap's tie order).
  for (const Algorithm algo :
       {Algorithm::kHash, Algorithm::kHashVector, Algorithm::kSpa}) {
    for (const int threads : {1, 2, 3, 8}) {
      SCOPED_TRACE("algo " + std::to_string(static_cast<int>(algo)) +
                   " threads " + std::to_string(threads));
      engine::EngineOptions eopts;
      eopts.plan.algorithm = algo;
      eopts.threads = threads;
      Engine eng(eopts);
      const Matrix reference = monolithic(eng, a, b).c;

      shard::ShardedOptions sopts;
      sopts.memory_budget_bytes = std::size_t{96} << 10;  // forces a grid
      Sharded driver(eng, sopts);
      const Matrix c = driver.multiply(a, b);
      expect_bitwise_equal(c, reference, "sharded vs monolithic");
      EXPECT_GT(driver.stats().block_products, 1u)
          << "budget did not force a real grid — test is vacuous";
    }
  }
}

// One-phase kernels have no symbolic phase for the engine to plan; the
// driver must surface the engine's typed refusal, not mangle or swallow it.
TEST(ShardedSpGemm, OnePhaseKernelRejectedTyped) {
  const Matrix a = random_rmat(6, 5, 29);
  engine::EngineOptions eopts;
  eopts.plan.algorithm = Algorithm::kHeap;
  Engine eng(eopts);
  Sharded driver(eng, {.memory_budget_bytes = std::size_t{96} << 10});
  try {
    driver.multiply(a, a);
    FAIL() << "kHeap has no plannable symbolic phase";
  } catch (const SpGemmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadInput) << e.what();
  }
}

TEST(ShardedSpGemm, ForcedSpillStaysBitIdentical) {
  const Matrix a = random_rmat(8, 6, 30);
  engine::EngineOptions eopts;
  eopts.plan.algorithm = Algorithm::kHash;
  Engine eng(eopts);
  const Matrix reference = monolithic(eng, a, a).c;

  shard::ShardedOptions sopts;
  sopts.memory_budget_bytes = std::size_t{48} << 10;  // far below the product
  Sharded driver(eng, sopts);
  const Matrix c = driver.multiply(a, a);
  expect_bitwise_equal(c, reference, "forced spill");
  const shard::ShardedStats& s = driver.stats();
  EXPECT_TRUE(s.spilled) << "budget did not force a spill — test is vacuous";
  EXPECT_GT(s.spills, 0u);
  EXPECT_LT(s.in_core_rate(), 1.0);
  EXPECT_GT(s.shard_accesses, 0u);
}

TEST(ShardedSpGemm, InCoreGateThrowsTypedUnderTheSameCap) {
  const Matrix a = random_rmat(8, 6, 31);
  engine::EngineOptions eopts;
  eopts.plan.algorithm = Algorithm::kHash;
  Engine eng(eopts);
  const Matrix reference = monolithic(eng, a, a).c;

  shard::ShardedOptions sopts;
  sopts.memory_budget_bytes = std::size_t{48} << 10;
  Sharded driver(eng, sopts);
  // Monolithic under the cap: typed refusal, not an allocator crash.
  try {
    driver.multiply_in_core(a, a);
    FAIL() << "gate should have refused";
  } catch (const SpGemmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfMemory) << e.what();
  }
  // The same driver, same cap, sharded: completes bit-identically.
  expect_bitwise_equal(driver.multiply(a, a), reference,
                       "sharded after gate refusal");

  // With an ample budget the gate serves the product directly.
  Sharded roomy(eng, {.memory_budget_bytes = std::size_t{1} << 40});
  expect_bitwise_equal(roomy.multiply_in_core(a, a), reference,
                       "roomy gate");
}

TEST(ShardedSpGemm, FaultSweepOverShardPoints) {
  const Matrix a = random_rmat(7, 6, 33);
  engine::EngineOptions eopts;
  eopts.plan.algorithm = Algorithm::kHash;
  Engine eng(eopts);
  const Matrix reference = monolithic(eng, a, a).c;
  shard::ShardedOptions sopts;
  sopts.memory_budget_bytes = std::size_t{48} << 10;

  for (const char* point : {"shard.spill.write", "shard.load.map"}) {
    SCOPED_TRACE(point);
    fault::disarm_all();
    Sharded driver(eng, sopts);
    {
      fault::ScopedFault f(point, 1);
      try {
        driver.multiply(a, a);
        FAIL() << point << " never triggered under a forcing budget";
      } catch (const SpGemmError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInternal) << e.what();
      }
    }
    // Fault gone: the same driver serves the product perfectly.
    expect_bitwise_equal(driver.multiply(a, a), reference,
                         std::string(point) + " after disarm");
  }
  fault::disarm_all();
}

TEST(ShardedSpGemm, UnsortedInputsAreCanonicalised) {
  Matrix a = random_rmat(6, 5, 34);
  engine::EngineOptions eopts;
  eopts.plan.algorithm = Algorithm::kHash;
  Engine eng(eopts);
  Matrix sorted = a;
  sorted.sort_rows();
  const Matrix reference = monolithic(eng, sorted, sorted).c;

  // Scramble each row's order and drop the sortedness claim.
  Matrix scrambled = a;
  for (I i = 0; i < scrambled.nrows; ++i) {
    const auto b0 = static_cast<std::size_t>(scrambled.row_begin(i));
    const auto e0 = static_cast<std::size_t>(scrambled.row_end(i));
    if (e0 - b0 >= 2) {
      std::swap(scrambled.cols[b0], scrambled.cols[e0 - 1]);
      std::swap(scrambled.vals[b0], scrambled.vals[e0 - 1]);
    }
  }
  scrambled.sortedness = Sortedness::kUnsorted;

  Sharded driver(eng, {.memory_budget_bytes = std::size_t{96} << 10});
  expect_bitwise_equal(driver.multiply(scrambled, scrambled), reference,
                       "canonicalised");
}

// A default-constructed driver resolves its budget from
// $SPGEMM_SHARD_BUDGET (the knob CI's forced-budget leg pins low) and then
// the tier default.  The result contract holds either way; when the
// resolved budget is below the monolithic working state the run must have
// gone out of core.
TEST(ShardedSpGemm, EnvBudgetDrivesDefaultConstructedDriver) {
  const Matrix a = random_rmat(8, 8, 38);
  engine::EngineOptions eopts;
  eopts.plan.algorithm = Algorithm::kHash;
  Engine eng(eopts);
  const Matrix reference = monolithic(eng, a, a).c;

  Sharded driver(eng);  // budget 0: env var, then tier default
  const Matrix c = driver.multiply(a, a);
  expect_bitwise_equal(c, reference, "env/default budget");

  const std::size_t budget = driver.resolved_budget();
  const std::size_t need = model::monolithic_bytes_estimate(
      model::estimate_flop(a, a), static_cast<std::size_t>(a.nrows),
      sizeof(I) + sizeof(double));
  if (need > budget) {
    EXPECT_TRUE(driver.stats().spilled)
        << "budget " << budget << " below working state " << need
        << " must force the spill path";
  }
}

TEST(ShardedSpGemm, MismatchedInnerDimensionsThrowTyped) {
  const Matrix a = random_rmat(5, 4, 35);
  const auto b = csr_identity<I, double>(a.ncols + 1);
  Engine eng;
  Sharded driver(eng);
  try {
    driver.multiply(a, b);
    FAIL() << "dimension mismatch should throw";
  } catch (const SpGemmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadInput);
  }
}

// Engine-level shed accounting without the driver: the shed arrival is
// counted, the kept request delivers.
TEST(ShardedSpGemm, TenantShedAccounting) {
  const Matrix a = random_rmat(5, 4, 37);
  engine::EngineOptions opts;
  opts.max_queue = 1;
  Engine eng(opts);
  eng.pause();

  Engine::Request keeper;
  keeper.a = &a;
  keeper.b = &a;
  keeper.priority = 5;
  auto kept = eng.submit(keeper);

  Engine::Request loser = keeper;
  loser.priority = 0;
  auto shed_fut = eng.submit(loser);  // queue full, lower priority: shed
  eng.resume();

  try {
    shed_fut.get();
    FAIL() << "low-priority arrival should have been shed";
  } catch (const SpGemmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kShed);
  }
  EXPECT_GT(kept.get().c.nnz(), 0);
  const engine::EngineStats stats = eng.engine_stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.deadline_misses, 0u);
}

// choose_block_grid: monotone under budget, clamped to dimensions.
TEST(ShardedSpGemm, BlockGridChooserIsMonotoneAndClamped) {
  const model::TierParams tier = model::knl_ddr();
  const auto wide = model::choose_block_grid(
      1 << 20, 1 << 20, Offset{1} << 28, 1 << 16, 1 << 16, 1 << 16,
      std::size_t{1} << 30, tier);
  const auto tight = model::choose_block_grid(
      1 << 20, 1 << 20, Offset{1} << 28, 1 << 16, 1 << 16, 1 << 16,
      std::size_t{1} << 22, tier);
  EXPECT_GE(tight.grid_rows * tight.grid_cols,
            wide.grid_rows * wide.grid_cols);
  EXPECT_GE(tight.grid_inner, wide.grid_inner);

  const auto tiny_matrix = model::choose_block_grid(
      16, 16, 64, 4, 4, 4, std::size_t{1} << 10, tier);
  EXPECT_LE(tiny_matrix.grid_rows, 4u);
  EXPECT_LE(tiny_matrix.grid_cols, 4u);
  EXPECT_LE(tiny_matrix.grid_inner, 4u);
}

}  // namespace
}  // namespace spgemm
