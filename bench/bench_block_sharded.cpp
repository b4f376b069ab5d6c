// Out-of-core block-sharded SpGEMM vs the monolithic engine path
// (shard/sharded_spgemm.hpp).
//
// One Graph500 RMAT squared, four ways:
//   monolithic       engine.multiply, no budget — the reference result and
//                    reference rate;
//   monolithic-capped  multiply_in_core under a budget smaller than the
//                    product's working state — MUST fail with the typed
//                    kOutOfMemory gate (the "this would not have fit"
//                    signal);
//   sharded-incore   the sharded driver under a generous budget: the grid
//                    stays coarse, nothing spills; its time is printed as a
//                    ratio to monolithic's (not checked);
//   sharded-spill    the same product under the capped budget the
//                    monolithic gate rejected: blocks spill to disk, the
//                    result is verified BIT-IDENTICAL to the monolithic C,
//                    and the in-core rate / spill count are reported;
//   sharded-repeat   the spill run again on the warm engine — the
//                    fingerprint-keyed plan cache serves the block
//                    structures, reported as cache_hit_share.
//
// Emits BENCH_block_sharded.json; exits non-zero when the capped gate does
// not throw or a sharded result is not bit-identical to the monolithic one.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/rmat.hpp"
#include "model/cost_model.hpp"
#include "model/memory_model.hpp"
#include "parallel/omp_utils.hpp"
#include "shard/sharded_spgemm.hpp"

namespace {

using namespace spgemm;
using namespace spgemm::bench;

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Engine = engine::SpGemmEngine<I, double>;
using Sharded = shard::ShardedSpGemm<I, double>;

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.nrows == y.nrows && x.ncols == y.ncols &&
         x.rpts.size() == y.rpts.size() && x.cols.size() == y.cols.size() &&
         x.vals.size() == y.vals.size() &&
         std::memcmp(x.rpts.data(), y.rpts.data(),
                     x.rpts.size() * sizeof(Offset)) == 0 &&
         std::memcmp(x.cols.data(), y.cols.data(),
                     x.cols.size() * sizeof(I)) == 0 &&
         std::memcmp(x.vals.data(), y.vals.data(),
                     x.vals.size() * sizeof(double)) == 0;
}

double mflops(Offset flop, double ms) {
  return ms > 0.0 ? 2.0 * static_cast<double>(flop) / (ms * 1e3) : 0.0;
}

}  // namespace

int main() {
  print_banner("bench_block_sharded",
               "out-of-core 2D block-sharded SpGEMM vs monolithic");

  const int scale = bench_scale(14);
  const int edge_factor = 8;
  const Matrix a =
      rmat_matrix<I, double>(RmatParams::g500(scale, edge_factor, 7));
  const Offset flop = model::estimate_flop(a, a);
  const std::string matrix_name =
      "rmat-g500 s" + std::to_string(scale) + " ef" +
      std::to_string(edge_factor);
  std::printf("input: %s  (nnz %lld, flop %lld)\n", matrix_name.c_str(),
              static_cast<long long>(a.nnz()), static_cast<long long>(flop));

  // The capped budget: well under the monolithic working state, so the
  // in-core gate must refuse and the sharded walk must spill.
  const std::size_t monolithic_need = model::monolithic_bytes_estimate(
      flop, static_cast<std::size_t>(a.nrows), sizeof(I) + sizeof(double));
  const std::size_t capped = std::max<std::size_t>(
      monolithic_need / 3, std::size_t{256} << 10);
  std::printf("monolithic working state ~%zu bytes, capped budget %zu\n",
              monolithic_need, capped);

  JsonReporter reporter("block_sharded");
  const int threads = parallel::resolve_threads(bench_threads());
  bool ok = true;

  // A fixed visit-order kernel is what makes the sharded result
  // bit-comparable to the monolithic one (see sharded_spgemm.hpp).
  engine::EngineOptions eng_opts;
  eng_opts.plan.algorithm = Algorithm::kHash;
  Engine eng(eng_opts);

  // monolithic: the reference result and rate.  Timed COLD (first product
  // on a fresh engine) because sharded-incore below also runs cold on a
  // fresh engine — the in-core ratio compares first-product to
  // first-product; sharded-repeat shows the warm (plan-cache) rate.
  Matrix reference;
  double mono_ms = 0.0;
  {
    Timer timer;
    auto product = eng.multiply(a, a);
    mono_ms = timer.millis();
    reference = std::move(product.c);
    BenchRecord rec;
    rec.kernel = "monolithic";
    rec.matrix = matrix_name;
    rec.threads = threads;
    rec.total_ms = mono_ms;
    rec.mflops = mflops(flop, mono_ms);
    rec.flop = flop;
    rec.nnz_out = reference.nnz();
    rec.in_core_rate = 1.0;
    reporter.add(std::move(rec));
  }

  // monolithic-capped: the typed gate.
  {
    Sharded capped_driver(eng, {.memory_budget_bytes = capped});
    bool threw_typed = false;
    try {
      capped_driver.multiply_in_core(a, a);
    } catch (const SpGemmError& e) {
      threw_typed = e.code() == ErrorCode::kOutOfMemory;
    }
    std::printf("monolithic-capped: %s\n",
                threw_typed ? "kOutOfMemory (expected)"
                            : "DID NOT throw kOutOfMemory — FAIL");
    ok = ok && threw_typed;
    BenchRecord rec;
    rec.kernel = "monolithic-capped";
    rec.matrix = matrix_name;
    rec.threads = threads;
    rec.flop = flop;
    rec.shed = threw_typed ? 1 : 0;  // 1 = the gate refused as required
    reporter.add(std::move(rec));
  }

  auto run_sharded = [&](const char* label, Sharded& driver,
                         double* out_ms) {
    Timer timer;
    Matrix c = driver.multiply(a, a);
    const double ms = timer.millis();
    if (out_ms != nullptr) *out_ms = ms;
    const shard::ShardedStats& s = driver.stats();
    const bool identical = bitwise_equal(c, reference);
    ok = ok && identical;
    std::printf(
        "%s: %.1f ms, grid %zux%zux%zu, %llu block products, "
        "in-core %.3f, spills %llu, cache-hit share %.3f, bitwise %s\n",
        label, ms, s.grid.grid_rows, s.grid.grid_cols, s.grid.grid_inner,
        static_cast<unsigned long long>(s.block_products), s.in_core_rate(),
        static_cast<unsigned long long>(s.spills), s.cache_hit_share(),
        identical ? "OK" : "MISMATCH");
    BenchRecord rec;
    rec.kernel = label;
    rec.matrix = matrix_name;
    rec.threads = threads;
    rec.total_ms = ms;
    rec.mflops = mflops(flop, ms);
    rec.flop = flop;
    rec.nnz_out = c.nnz();
    rec.executions = static_cast<long long>(s.block_products);
    rec.spills = static_cast<long long>(s.spills);
    rec.in_core_rate = s.in_core_rate();
    rec.cache_hit_share = s.cache_hit_share();
    reporter.add(std::move(rec));
  };

  // sharded-incore: generous budget, fresh engine so no cache help.
  {
    Engine fresh(eng_opts);
    Sharded driver(fresh,
                   {.memory_budget_bytes = std::size_t{1} << 40});
    double ms = 0.0;
    run_sharded("sharded-incore", driver, &ms);
    const double ratio = mono_ms > 0.0 ? ms / mono_ms : 0.0;
    std::printf("sharded-incore vs monolithic: %.2fx\n", ratio);
  }

  // sharded-spill and sharded-repeat share one warm engine: the repeat's
  // block structures hit the plan cache.
  {
    Engine warm(eng_opts);
    Sharded driver(warm, {.memory_budget_bytes = capped});
    run_sharded("sharded-spill", driver, nullptr);
    run_sharded("sharded-repeat", driver, nullptr);
  }

  reporter.flush();
  if (!ok) {
    std::printf("FAIL: capped gate or bit-identity contract violated\n");
    return 1;
  }
  std::printf("all contracts held\n");
  return 0;
}
