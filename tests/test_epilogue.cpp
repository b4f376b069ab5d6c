// Fused epilogue pipelines (core/spgemm_options.hpp EpilogueSpec,
// core/spgemm_twophase.hpp fused driver, core/spgemm_handle.hpp fused
// replay, core/spgemm_rap.hpp, engine wiring).
//
// The contract under test is bit-identity: a fused epilogue must produce
// EXACTLY the bytes of the unfused multiply followed by the equivalent
// postprocess, across kernels, thread counts, and the one-shot /
// planned-replay / engine-served paths — fusion changes where the work
// runs, never what it computes.  Inputs are unit-valued so every product
// entry is an exact integer at any fold order.
//
// Plus the cache-poisoning hazard: fused and unfused plans over the same
// structure must occupy distinct PlanCache entries — a fused plan served
// to an unfused caller would silently return pruned rows.  And the plain
// entry points (multiply, multiply_over, multiply_rap) refuse a spec on
// every kernel instead of honouring it on some.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/amg_galerkin.hpp"
#include "apps/markov_cluster.hpp"
#include "apps/triangle_count.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_rap.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Engine = engine::SpGemmEngine<I, double>;

constexpr Algorithm kKernels[] = {Algorithm::kHash, Algorithm::kHashVector,
                                  Algorithm::kSpa};
constexpr int kThreadCounts[] = {1, 2, 4, 8};

Matrix unit_valued_rmat(int scale, int edge_factor, std::uint64_t seed) {
  Matrix m = rmat_matrix<I, double>(
      RmatParams::g500(scale, edge_factor, seed));
  for (auto& v : m.vals) v = 1.0;
  return m;
}

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

SpGemmOptions base_opts(Algorithm algo, int threads) {
  SpGemmOptions opts;
  opts.algorithm = algo;
  opts.threads = threads;
  opts.sort_output = SortOutput::kYes;
  return opts;
}

// ---------------------------------------------------------------------------
// kPruneScale: fused == unfused-then-inflate_and_prune, kernels x threads,
// one-shot and planned-replay paths.
// ---------------------------------------------------------------------------

TEST(EpiloguePruneScale, BitIdenticalAcrossKernelsAndThreads) {
  const Matrix a = unit_valued_rmat(7, 8, 23);
  const double inflation = 2.0;
  const double prune_below = 2.5;  // drops every count of 1, keeps >= 2
  for (const Algorithm algo : kKernels) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          std::string(algorithm_name(algo)) + " t" + std::to_string(threads);
      SpGemmOptions plain = base_opts(algo, threads);
      const Matrix c = multiply(a, a, plain);
      const Matrix expected =
          apps::detail::inflate_and_prune(c, inflation, prune_below);
      ASSERT_LT(expected.nnz(), c.nnz()) << label << ": prune is a no-op";

      SpGemmOptions fused = plain;
      fused.epilogue.kind = EpilogueKind::kPruneScale;
      fused.epilogue.inflation = inflation;
      fused.epilogue.prune_below = prune_below;

      SpGemmStats stats;
      const Matrix got = multiply_with_epilogue(a, a, fused, &stats);
      expect_bitwise_equal(got, expected, label + " one-shot");
      EXPECT_EQ(stats.epilogue_rows, static_cast<std::uint64_t>(a.nrows))
          << label;
      EXPECT_EQ(stats.nnz_out, static_cast<Offset>(expected.nnz())) << label;
    }
  }
}

TEST(EpiloguePruneScale, HandleReplayBitIdentical) {
  Matrix a = unit_valued_rmat(7, 8, 29);
  for (const Algorithm algo : kKernels) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          std::string(algorithm_name(algo)) + " t" + std::to_string(threads);
      SpGemmOptions fused = base_opts(algo, threads);
      fused.epilogue.kind = EpilogueKind::kPruneScale;
      fused.epilogue.inflation = 2.0;
      fused.epilogue.prune_below = 2.5;

      SpGemmHandle<I, double> handle(a, a, fused);
      const Matrix first = handle.execute(a, a);
      const Matrix oracle = multiply_with_epilogue(a, a, fused);
      expect_bitwise_equal(first, oracle, label + " plan+execute");

      // Numeric-only replay over the same values, then over updated ones.
      expect_bitwise_equal(handle.execute(a, a), oracle, label + " replay");
      for (auto& v : a.vals) v = 2.0;
      const Matrix updated = handle.execute(a, a);
      const Matrix updated_oracle = multiply_with_epilogue(a, a, fused);
      expect_bitwise_equal(updated, updated_oracle,
                           label + " values-update replay");
      for (auto& v : a.vals) v = 1.0;
    }
  }
}

TEST(EpiloguePruneScale, PlainEntryPointsRejectTheSpec) {
  // The plain entry points run no epilogue, so each refuses a spec on
  // one-phase and two-phase kernels alike (kAuto resolves to SPA-1p here)
  // and names the fused entry point, which gives one pruned product under
  // every kernel it runs.
  const Matrix a = unit_valued_rmat(9, 8, 33);
  SpGemmOptions fused = base_opts(Algorithm::kHash, 2);
  fused.epilogue.kind = EpilogueKind::kPruneScale;
  fused.epilogue.inflation = 2.0;
  fused.epilogue.prune_below = 9.0;  // keeps the entries >= 3
  const Matrix expected = multiply_with_epilogue(a, a, fused);
  ASSERT_LT(expected.nnz(), multiply(a, a, base_opts(Algorithm::kHash, 2))
                                .nnz());
  const auto expect_refused = [](const auto& call, const std::string& label) {
    try {
      call();
      ADD_FAILURE() << label << " ran with an epilogue set";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("multiply_with_epilogue"),
                std::string::npos)
          << label << ": " << e.what();
    }
  };
  for (const Algorithm algo :
       {Algorithm::kAuto, Algorithm::kHash, Algorithm::kHashVector,
        Algorithm::kSpa, Algorithm::kSpa1p, Algorithm::kHeap}) {
    const std::string label = algorithm_name(algo);
    fused.algorithm = algo;
    expect_refused([&] { multiply(a, a, fused); }, label + " multiply");
    expect_refused([&] { multiply_over<PlusTimes>(a, a, fused); },
                   label + " multiply_over");
    expect_refused([&] { multiply_rap(a, a, a, fused); },
                   label + " multiply_rap");
    if (algo != Algorithm::kHeap) {
      expect_bitwise_equal(multiply_with_epilogue(a, a, fused), expected,
                           label + " multiply_with_epilogue");
    }
  }
}

// ---------------------------------------------------------------------------
// kPruneScale's keep rule at its edges: entries that skip pow() must be
// exactly those a pow() of every entry would drop, and every path
// thresholds the double before narrowing to the value type.
// ---------------------------------------------------------------------------

/// n x n identity: A * I reproduces A's values, so the epilogue sees values
/// chosen directly.
template <typename VT>
CsrMatrix<I, VT> identity(I n) {
  CsrMatrix<I, VT> m(n, n);
  for (I i = 0; i < n; ++i) {
    m.cols.push_back(i);
    m.vals.push_back(VT{1});
    m.rpts[static_cast<std::size_t>(i) + 1] = i + 1;
  }
  return m;
}

/// The prune done the long way: std::pow on every entry, threshold the
/// double, narrow the kept ones.
template <typename VT>
CsrMatrix<I, VT> pow_every_entry(const CsrMatrix<I, VT>& c, double inflation,
                                 double prune_below) {
  CsrMatrix<I, VT> out(c.nrows, c.ncols);
  for (I i = 0; i < c.nrows; ++i) {
    for (Offset j = c.row_begin(i); j < c.row_end(i); ++j) {
      const double v = std::pow(
          static_cast<double>(c.vals[static_cast<std::size_t>(j)]),
          inflation);
      if (v >= prune_below) {
        out.cols.push_back(c.cols[static_cast<std::size_t>(j)]);
        out.vals.push_back(static_cast<VT>(v));
      }
    }
    out.rpts[static_cast<std::size_t>(i) + 1] =
        static_cast<Offset>(out.cols.size());
  }
  return out;
}

/// Bitwise equality that also tells NaN payloads and -0.0 from +0.0.
template <typename VT>
void expect_same_bits(const CsrMatrix<I, VT>& x, const CsrMatrix<I, VT>& y,
                      const std::string& label) {
  ASSERT_EQ(x.nrows, y.nrows) << label;
  ASSERT_EQ(x.ncols, y.ncols) << label;
  ASSERT_EQ(x.rpts, y.rpts) << label;
  ASSERT_EQ(x.cols, y.cols) << label;
  ASSERT_EQ(x.vals.size(), y.vals.size()) << label;
  for (std::size_t k = 0; k < x.vals.size(); ++k) {
    ASSERT_EQ(std::memcmp(&x.vals[k], &y.vals[k], sizeof(VT)), 0)
        << label << " at vals[" << k << "]: " << x.vals[k] << " vs "
        << y.vals[k];
  }
}

/// Values around prune_below^(1/inflation) (and the 2^-30 margin below it),
/// plus signed zeros, negatives, subnormals, infinities and NaN.
std::vector<double> prune_edge_values(double inflation, double prune_below) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v = {0.0, -0.0, -1.0, -0.5,  -kTiny, kTiny, kMin / 4,
                           kMin, 0.5, 1.0,  kInf, -kInf, kNaN};
  const double root = std::pow(prune_below, 1.0 / inflation);
  for (int k = 28; k <= 33; ++k) {
    v.push_back(root * (1.0 - std::ldexp(1.0, -k)));
  }
  for (const double centre : {root, root * (1.0 - 0x1p-30)}) {
    double lo = centre;
    double hi = centre;
    v.push_back(centre);
    for (int step = 0; step < 3; ++step) {
      lo = std::nextafter(lo, -kInf);
      hi = std::nextafter(hi, kInf);
      v.push_back(lo);
      v.push_back(hi);
    }
  }
  return v;
}

TEST(EpiloguePruneScale, CutIsExactAtItsEdge) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Inflation 2^-30 at prune_below 1 + 2^-30 is where a cut below
  // inflation 1 would drop survivors: its margin shrinks to
  // (1 - 2^-30)^inflation, under one ulp of prune_below.
  const double inflations[] = {0.5, 1.0, 1.5, 2.0, 3.0, 0x1p-30};
  const double thresholds[] = {2.5,  1e-4, 0.0, -1.0, kInf,
                               std::numeric_limits<double>::denorm_min(),
                               1.0 + 0x1p-30};
  Engine eng;
  for (const double inflation : inflations) {
    for (const double prune_below : thresholds) {
      std::ostringstream name;
      name << std::setprecision(17) << "inflation " << inflation
           << " prune_below " << prune_below;
      const std::string spec = name.str();
      // Four entries a row, each in its own column.
      const std::vector<double> values =
          prune_edge_values(inflation, prune_below);
      const auto n = static_cast<I>(values.size());
      Matrix a((n + 3) / 4, n);
      for (I t = 0; t < n; ++t) {
        a.cols.push_back(t);
        a.vals.push_back(values[static_cast<std::size_t>(t)]);
        a.rpts[static_cast<std::size_t>(t / 4) + 1] = t + 1;
      }
      const Matrix id = identity<double>(n);

      const Matrix c = multiply(a, id, base_opts(Algorithm::kHash, 1));
      const Matrix expected = pow_every_entry(c, inflation, prune_below);
      ASSERT_GT(expected.nnz(), Offset{0}) << spec;
      ASSERT_LT(expected.nnz(), c.nnz()) << spec;
      expect_same_bits(apps::detail::inflate_and_prune(c, inflation,
                                                       prune_below),
                       expected, spec + " inflate_and_prune");

      for (const Algorithm algo : kKernels) {
        for (const int threads : {1, 2}) {
          const std::string label = spec + " " + algorithm_name(algo) + " t" +
                                    std::to_string(threads);
          SpGemmOptions fused = base_opts(algo, threads);
          fused.epilogue.kind = EpilogueKind::kPruneScale;
          fused.epilogue.inflation = inflation;
          fused.epilogue.prune_below = prune_below;
          expect_same_bits(multiply_with_epilogue(a, id, fused), expected,
                           label + " one-shot");
          SpGemmHandle<I, double> handle(a, id, fused);
          expect_same_bits(handle.execute(a, id), expected,
                           label + " plan+execute");
          expect_same_bits(handle.execute(a, id), expected, label + " replay");
        }
      }

      Engine::Request req;
      req.a = &a;
      req.b = &id;
      req.epilogue.kind = EpilogueKind::kPruneScale;
      req.epilogue.inflation = inflation;
      req.epilogue.prune_below = prune_below;
      expect_same_bits(eng.submit(req).get().c, expected, spec + " engine");
    }
  }
}

TEST(EpiloguePruneScale, FloatThresholdsBeforeNarrowing) {
  // v^2 = 0.30000008779794385 as a double but 0.30000010132789612 as a
  // float: a threshold one ulp above the double square drops the entry,
  // though its narrowed value would pass.  Every path must drop it.
  using FMatrix = CsrMatrix<I, float>;
  const float v = 0.547722638f;
  FMatrix a(1, 1);
  a.cols.push_back(0);
  a.vals.push_back(v);
  a.rpts[1] = 1;
  const FMatrix id = identity<float>(1);
  const double square = static_cast<double>(v) * static_cast<double>(v);
  const double prune_below =
      std::nextafter(square, std::numeric_limits<double>::infinity());
  ASSERT_GE(static_cast<double>(static_cast<float>(square)), prune_below);

  const FMatrix unfused = apps::detail::inflate_and_prune(
      multiply(a, id, base_opts(Algorithm::kHash, 1)), 2.0, prune_below);
  EXPECT_EQ(unfused.nnz(), Offset{0});
  expect_same_bits(unfused, pow_every_entry(multiply(a, id), 2.0, prune_below),
                   "inflate_and_prune");
  for (const Algorithm algo : kKernels) {
    const std::string label = algorithm_name(algo);
    SpGemmOptions fused = base_opts(algo, 1);
    fused.epilogue.kind = EpilogueKind::kPruneScale;
    fused.epilogue.inflation = 2.0;
    fused.epilogue.prune_below = prune_below;
    expect_same_bits(multiply_with_epilogue(a, id, fused), unfused,
                     label + " one-shot");
    SpGemmHandle<I, float> handle(a, id, fused);
    expect_same_bits(handle.execute(a, id), unfused, label + " plan+execute");
    expect_same_bits(handle.execute(a, id), unfused, label + " replay");
  }
}

// ---------------------------------------------------------------------------
// multiply_rap == R * (A * P) with a sorted intermediate.
// ---------------------------------------------------------------------------

TEST(EpilogueRap, BitIdenticalToTwoStepAcrossKernelsAndThreads) {
  const Matrix a = apps::poisson_2d<I, double>(24, 24);
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 3);
  const Matrix r = transpose(p);
  for (const Algorithm algo : kKernels) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          std::string(algorithm_name(algo)) + " t" + std::to_string(threads);
      SpGemmOptions opts = base_opts(algo, threads);
      const Matrix two_step = multiply(r, multiply(a, p, opts), opts);
      SpGemmStats stats;
      const Matrix fused = multiply_rap(r, a, p, opts, &stats);
      expect_bitwise_equal(fused, two_step, label);
      EXPECT_EQ(stats.epilogue_rows, static_cast<std::uint64_t>(r.nrows))
          << label;
    }
  }
}

TEST(EpilogueRap, RmatOperatorMatchesTwoStep) {
  Matrix a = unit_valued_rmat(7, 8, 43);
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 4);
  const Matrix r = transpose(p);
  SpGemmOptions opts = base_opts(Algorithm::kHash, 4);
  expect_bitwise_equal(multiply_rap(r, a, p, opts),
                       multiply(r, multiply(a, p, opts), opts), "rmat rap");
}

// ---------------------------------------------------------------------------
// App-level parity: the ported pipelines agree with their unfused selves.
// ---------------------------------------------------------------------------

TEST(EpilogueApps, MclFusedMatchesUnfused) {
  const Matrix graph = unit_valued_rmat(7, 4, 47);
  apps::MclParams fused_params;
  fused_params.max_iterations = 8;
  apps::MclParams plain_params = fused_params;
  plain_params.fuse_epilogue = false;
  const auto fused = apps::markov_cluster(graph, fused_params);
  const auto plain = apps::markov_cluster(graph, plain_params);
  EXPECT_EQ(fused.cluster_of, plain.cluster_of);
  EXPECT_EQ(fused.clusters, plain.clusters);
  EXPECT_EQ(fused.iterations, plain.iterations);
  EXPECT_EQ(fused.converged, plain.converged);
}

TEST(EpilogueApps, TriangleCountFusedMatchesUnfused) {
  const Matrix a = unit_valued_rmat(7, 8, 53);
  const auto plain = apps::count_triangles(a);
  const auto fused = apps::count_triangles_fused(a);
  EXPECT_EQ(fused.triangles, plain.triangles);
  EXPECT_EQ(fused.wedges.nnz(), std::size_t{0});
}

TEST(EpilogueApps, GalerkinFusedMatchesTwoStep) {
  const Matrix a = apps::poisson_2d<I, double>(20, 20);
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 4);
  SpGemmOptions opts = base_opts(Algorithm::kHash, 4);
  const auto plain = apps::galerkin_product(a, p, opts);
  const auto fused = apps::galerkin_product_fused(a, p, opts);
  expect_bitwise_equal(fused.coarse, plain.coarse, "galerkin");
}

// ---------------------------------------------------------------------------
// PlanCache separation: fused and unfused plans over the same structure
// never share an entry — and epilogue specs fingerprint distinctly.
// ---------------------------------------------------------------------------

TEST(EpiloguePlanCache, SpecFingerprintsDistinguishEpilogues) {
  EpilogueSpec none;
  EXPECT_EQ(none.fingerprint(), std::uint64_t{0});
  EpilogueSpec prune;
  prune.kind = EpilogueKind::kPruneScale;
  prune.inflation = 2.0;
  prune.prune_below = 1e-4;
  EXPECT_NE(prune.fingerprint(), std::uint64_t{0});
  EpilogueSpec prune_other = prune;
  prune_other.prune_below = 1e-3;
  EXPECT_NE(prune.fingerprint(), prune_other.fingerprint());
  EpilogueSpec inflate_other = prune;
  inflate_other.inflation = 3.0;
  EXPECT_NE(prune.fingerprint(), inflate_other.fingerprint());
}

TEST(EpiloguePlanCache, FusedAndUnfusedOccupyDistinctEntries) {
  const Matrix a = unit_valued_rmat(6, 8, 59);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  Engine eng(eo);

  Engine::Request fused_req;
  fused_req.a = &a;
  fused_req.b = &a;
  fused_req.epilogue.kind = EpilogueKind::kPruneScale;
  fused_req.epilogue.inflation = 2.0;
  fused_req.epilogue.prune_below = 2.5;

  const Engine::Product fused_first = eng.submit(fused_req).get();
  EXPECT_FALSE(fused_first.cache_hit);
  const Engine::Product fused_again = eng.submit(fused_req).get();
  EXPECT_TRUE(fused_again.cache_hit);
  expect_bitwise_equal(fused_again.c, fused_first.c, "fused hit");

  // Same structure, no epilogue: a poisoned shared entry would serve the
  // PRUNED plan here — the unfused product must be a miss and must carry
  // the full intermediate.
  const Engine::Product plain = eng.submit(Engine::Request{&a, &a}).get();
  EXPECT_FALSE(plain.cache_hit);
  SpGemmOptions opts = eo.plan;
  opts.threads = plain.threads_used;
  expect_bitwise_equal(plain.c, multiply(a, a, opts), "unfused after fused");
  ASSERT_GT(plain.c.nnz(), fused_first.c.nnz());

  SpGemmOptions fused_opts = opts;
  fused_opts.threads = fused_first.threads_used;
  fused_opts.epilogue = fused_req.epilogue;
  expect_bitwise_equal(fused_first.c, multiply_with_epilogue(a, a, fused_opts),
                       "fused product");
}

TEST(EpilogueEngine, PruneScaleServedThroughEngine) {
  const Matrix a = unit_valued_rmat(6, 8, 61);

  Engine::Request req;
  req.a = &a;
  req.b = &a;
  req.epilogue.kind = EpilogueKind::kPruneScale;
  req.epilogue.inflation = 2.0;
  req.epilogue.prune_below = 2.5;

  // With the plan cache off every request plans a fused product on a fresh
  // handle, so the repeat is not a hit but must give the same bytes.
  for (const bool cache : {true, false}) {
    engine::EngineOptions eo;
    eo.cache_enabled = cache;
    Engine eng(eo);
    const std::string label = cache ? "cache on" : "cache off";
    const Engine::Product first = eng.submit(req).get();
    SpGemmOptions opts = eo.plan;
    opts.threads = first.threads_used;
    opts.epilogue = req.epilogue;
    const Matrix expected = multiply_with_epilogue(a, a, opts);
    expect_bitwise_equal(first.c, expected, label);
    EXPECT_EQ(first.stats.epilogue_rows, static_cast<std::uint64_t>(a.nrows))
        << label;
    const Engine::Product again = eng.submit(req).get();
    EXPECT_EQ(again.cache_hit, cache) << label;
    expect_bitwise_equal(again.c, expected, label + " repeat");
  }
}

}  // namespace
}  // namespace spgemm
