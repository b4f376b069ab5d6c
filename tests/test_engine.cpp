// SpGemmEngine / PlanCache contracts (engine/spgemm_engine.hpp,
// engine/plan_cache.hpp).
//
// The engine is the serving layer over the inspector-executor handle, so
// its contracts are about what the layering must NOT change and what the
// cache must guarantee:
//   * a cache-hit execute is bit-identical to a fresh plan+execute for
//     every two-phase kernel, including after values-only updates;
//   * the LRU respects its byte budget monotonically — never more retained
//     than the budget while idle, smaller budgets never retain more — and
//     evicts least-recently-used first;
//   * run_batch over a mixed-size request set (power-law rmat + dense-row
//     adversarial + tiny products) matches the serial oracle at 1-8
//     threads, with results aligned to request order;
//   * concurrent submit() from multiple producer threads is race-free and
//     every delivered product is correct (the ASan CI job runs this);
//   * a request stream loaded from a MatrixMarket file round-trips through
//     the engine (the io_matrix_market satellite's end-to-end leg).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/amg_galerkin.hpp"
#include "common/fault_injection.hpp"
#include "apps/markov_cluster.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_ref.hpp"
#include "engine/plan_cache.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/io_matrix_market.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Engine = engine::SpGemmEngine<I, double>;
using Cache = engine::PlanCache<I, double>;

Matrix unit_valued_rmat(int scale, int edge_factor, std::uint64_t seed) {
  Matrix m = rmat_matrix<I, double>(
      RmatParams::g500(scale, edge_factor, seed));
  for (auto& v : m.vals) v = 1.0;
  return m;
}

/// One fully dense row in a sea of empties — the adversarial skew input of
/// the schedule tests, reused here as the batch's worst citizen.
Matrix dense_row_among_empties(I n) {
  std::vector<std::tuple<I, I, double>> trips;
  for (I j = 0; j < n; ++j) trips.emplace_back(0, j, 1.0);
  for (I i = 1; i < n; i += 2) trips.emplace_back(i, (i * 31 + 7) % n, 1.0);
  return csr_from_triplets<I, double>(n, n, trips);
}

void expect_bitwise_equal(const Matrix& x, const Matrix& y,
                          const std::string& label) {
  ASSERT_EQ(x.nrows, y.nrows) << label;
  ASSERT_EQ(x.rpts, y.rpts) << label;
  ASSERT_EQ(x.cols, y.cols) << label;
  ASSERT_EQ(x.vals.size(), y.vals.size()) << label;
  for (std::size_t i = 0; i < x.vals.size(); ++i) {
    ASSERT_EQ(x.vals[i], y.vals[i]) << label << " at vals[" << i << "]";
  }
}

// ---------------------------------------------------------------------------
// Cache-hit executes are bit-identical to fresh plans, across kernels.
// ---------------------------------------------------------------------------

TEST(EngineCacheHit, BitIdenticalToFreshPlanAcrossKernels) {
  Matrix a = unit_valued_rmat(7, 8, 19);
  for (const Algorithm algo :
       {Algorithm::kHash, Algorithm::kHashVector, Algorithm::kSpa,
        Algorithm::kKkHash, Algorithm::kAdaptive}) {
    const std::string label = algorithm_name(algo);
    engine::EngineOptions eo;
    eo.plan.algorithm = algo;
    Engine eng(eo);

    const Engine::Product first = eng.multiply(a, a);
    EXPECT_FALSE(first.cache_hit) << label;

    // Values-only update: the hit must replay the plan over the NEW values.
    for (auto& v : a.vals) v = 2.0;
    const Engine::Product hit = eng.multiply(a, a);
    EXPECT_TRUE(hit.cache_hit) << label;

    // Fresh plan+execute with the exact options the engine resolved to
    // (Product::threads_used is the engine's size-class/lane decision).
    SpGemmOptions opts = eo.plan;
    opts.threads = first.threads_used;
    SpGemmHandle<I, double> fresh(a, a, opts);
    Matrix oracle;
    fresh.execute_into(a, a, oracle);
    expect_bitwise_equal(hit.c, oracle, label);

    const auto stats = eng.cache_stats();
    EXPECT_EQ(stats.hits, 1u) << label;
    EXPECT_EQ(stats.misses, 1u) << label;
    for (auto& v : a.vals) v = 1.0;
  }
}

TEST(EngineCacheHit, StatsReportReplayWorkOnly) {
  // A hit replays the retained plan: it reports the numeric work it did and
  // none of the symbolic work the planning request already reported.
  const Matrix a = unit_valued_rmat(8, 8, 23);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  Engine eng(eo);
  const Engine::Product miss = eng.multiply(a, a);
  const Engine::Product hit = eng.multiply(a, a);
  ASSERT_FALSE(miss.cache_hit);
  ASSERT_TRUE(hit.cache_hit);

  EXPECT_GT(miss.stats.symbolic_probes, 0u);
  EXPECT_GT(miss.stats.symbolic_keys, 0u);
  EXPECT_GT(miss.stats.plan_ms, 0.0);
  EXPECT_EQ(miss.stats.probes,
            miss.stats.symbolic_probes + miss.stats.numeric_probes);

  EXPECT_EQ(hit.stats.setup_ms, 0.0);
  EXPECT_EQ(hit.stats.symbolic_ms, 0.0);
  EXPECT_EQ(hit.stats.symbolic_probes, 0u);
  EXPECT_EQ(hit.stats.symbolic_keys, 0u);
  EXPECT_EQ(hit.stats.plan_ms, 0.0);
  EXPECT_EQ(hit.stats.probes, hit.stats.numeric_probes);
  // The replayed numeric pass does the same work as the planning request's.
  EXPECT_EQ(hit.stats.numeric_probes, miss.stats.numeric_probes);
  EXPECT_EQ(hit.stats.numeric_keys, miss.stats.numeric_keys);
  EXPECT_EQ(hit.stats.flop, miss.stats.flop);
  EXPECT_EQ(hit.stats.nnz_out, miss.stats.nnz_out);
}

// ---------------------------------------------------------------------------
// LRU eviction under the byte budget.
// ---------------------------------------------------------------------------

/// A planned handle for structure seed `s`, plus its cache key.
std::pair<std::uint64_t, SpGemmHandle<I, double>> planned_handle(
    const Matrix& m) {
  SpGemmHandle<I, double> h;
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  h.plan(m, m, opts);
  h.execute(m, m);  // populate the pooled output: the full retained weight
  return {pair_fingerprint(m, m), std::move(h)};
}

TEST(PlanCacheLru, ByteBudgetRespectedMonotonically) {
  std::vector<Matrix> inputs;
  for (int s = 0; s < 4; ++s) {
    inputs.push_back(unit_valued_rmat(6, 6, 100 + s));
  }
  std::vector<std::size_t> weights;
  for (const Matrix& m : inputs) {
    auto [key, h] = planned_handle(m);
    weights.push_back(h.retained_bytes());
    ASSERT_GT(weights.back(), 0u);
  }

  // Budget fits roughly two plans: after every adopt the retained total
  // must still be under budget (entries are never pinned here).
  const std::size_t budget = weights[0] + weights[1] + weights[2] / 2;
  Cache cache(budget);
  for (const Matrix& m : inputs) {
    auto [key, h] = planned_handle(m);
    cache.adopt(key, std::move(h));
    EXPECT_LE(cache.stats().retained_bytes, budget);
  }
  EXPECT_GT(cache.stats().evictions, 0u);

  // Monotone in the budget: a smaller budget never retains more.
  std::size_t prev_retained = SIZE_MAX;
  for (const std::size_t b :
       {budget * 2, budget, budget / 2, weights[0] / 2}) {
    Cache shrunk(b);
    for (const Matrix& m : inputs) {
      auto [key, h] = planned_handle(m);
      shrunk.adopt(key, std::move(h));
    }
    const auto st = shrunk.stats();
    EXPECT_LE(st.retained_bytes, b);
    EXPECT_LE(st.retained_bytes, prev_retained);
    prev_retained = st.retained_bytes;
  }
  // The smallest budget cannot hold even one plan: nothing may be retained.
  Cache tiny(weights[0] / 2 < weights[1] / 2 ? weights[0] / 2
                                             : weights[1] / 2);
  for (const Matrix& m : inputs) {
    auto [key, h] = planned_handle(m);
    tiny.adopt(key, std::move(h));
  }
  EXPECT_EQ(tiny.stats().retained_bytes, 0u);
  EXPECT_EQ(tiny.stats().entries, 0u);
}

TEST(PlanCacheLru, EvictsLeastRecentlyUsedFirst) {
  const Matrix ma = unit_valued_rmat(6, 6, 201);
  const Matrix mb = unit_valued_rmat(6, 6, 202);
  const Matrix mc = unit_valued_rmat(6, 6, 203);
  auto [key_a, ha] = planned_handle(ma);
  auto [key_b, hb] = planned_handle(mb);
  auto [key_c, hc] = planned_handle(mc);
  const std::size_t budget = ha.retained_bytes() + hb.retained_bytes() +
                             hc.retained_bytes() / 2;
  Cache cache(budget);
  cache.adopt(key_a, std::move(ha));
  cache.adopt(key_b, std::move(hb));

  // Touch A so B becomes the least recently used...
  {
    auto lease = cache.acquire(key_a);
    std::size_t bytes = 0;
    {
      std::lock_guard<std::mutex> lk(lease.exec_mutex());
      bytes = lease.handle().retained_bytes();
    }
    cache.release(std::move(lease), /*was_hit=*/true, bytes);
  }
  // ...then force an eviction with C.
  cache.adopt(key_c, std::move(hc));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.release_handle(key_a).has_value());
  EXPECT_FALSE(cache.release_handle(key_b).has_value());
  EXPECT_TRUE(cache.release_handle(key_c).has_value());
}

TEST(PlanCacheLru, OversizedPlanDoesNotFlushOtherTenants) {
  // An entry too large for the WHOLE budget must be evicted directly —
  // never by first draining every other tenant's plan from the LRU tail.
  const Matrix ma = unit_valued_rmat(5, 4, 501);
  const Matrix mb = unit_valued_rmat(5, 4, 502);
  const Matrix big = unit_valued_rmat(8, 8, 503);
  auto [key_a, ha] = planned_handle(ma);
  auto [key_b, hb] = planned_handle(mb);
  auto [key_big, hbig] = planned_handle(big);
  const std::size_t budget =
      ha.retained_bytes() + hb.retained_bytes() + 1024;
  ASSERT_GT(hbig.retained_bytes(), budget);

  Cache cache(budget);
  cache.adopt(key_a, std::move(ha));
  cache.adopt(key_b, std::move(hb));
  cache.adopt(key_big, std::move(hbig));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().retained_bytes, budget);
  EXPECT_TRUE(cache.release_handle(key_a).has_value());
  EXPECT_TRUE(cache.release_handle(key_b).has_value());
  EXPECT_FALSE(cache.release_handle(key_big).has_value());
}

TEST(PlanCacheLru, AdoptedHandleStillExecutes) {
  const Matrix m = unit_valued_rmat(6, 6, 77);
  auto [key, h] = planned_handle(m);
  Matrix oracle;
  h.execute_into(m, m, oracle);

  Cache cache(std::size_t{1} << 30);
  cache.adopt(key, std::move(h));
  auto taken = cache.release_handle(key);
  ASSERT_TRUE(taken.has_value());
  Matrix again;
  taken->execute_into(m, m, again);
  expect_bitwise_equal(again, oracle, "adopt/release_handle round trip");
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().retained_bytes, 0u);
}

TEST(EngineCache, EvictionUnderPressureStaysCorrect) {
  // A budget that holds roughly one plan: round-robin over three
  // structures must keep missing (each request evicts the previous plan)
  // yet every product stays correct and the idle cache respects its budget.
  std::vector<Matrix> inputs;
  for (int s = 0; s < 3; ++s) {
    inputs.push_back(unit_valued_rmat(6, 6, 300 + s));
  }
  std::vector<Matrix> oracles;
  for (const Matrix& m : inputs) oracles.push_back(spgemm_reference(m, m));

  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  eo.cache_budget_bytes = planned_handle(inputs[0]).second.retained_bytes() +
                          1024;
  Engine eng(eo);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Engine::Product p = eng.multiply(inputs[i], inputs[i]);
      expect_bitwise_equal(p.c, oracles[i], "eviction pressure");
    }
  }
  const auto stats = eng.cache_stats();
  EXPECT_LE(stats.retained_bytes, eng.cache().budget_bytes());
  EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------------------------
// run_batch: >= 64 mixed-size products vs the serial oracle, 1-8 threads.
// ---------------------------------------------------------------------------

TEST(EngineBatch, MixedSizesMatchSerialOracleAcrossThreads) {
  // 8 distinct structures: power-law rmats of growing size, a dense-row
  // adversarial matrix, and tiny products that exercise the packed path.
  std::vector<Matrix> inputs;
  inputs.push_back(unit_valued_rmat(9, 8, 1));   // large: fans out
  inputs.push_back(unit_valued_rmat(8, 8, 2));
  inputs.push_back(dense_row_among_empties(512));  // skewed
  inputs.push_back(unit_valued_rmat(6, 6, 3));
  inputs.push_back(unit_valued_rmat(5, 4, 4));   // small: packed
  inputs.push_back(unit_valued_rmat(4, 4, 5));
  inputs.push_back(dense_row_among_empties(64));
  inputs.push_back(csr_identity<I, double>(32));

  std::vector<Matrix> oracles;
  for (const Matrix& m : inputs) oracles.push_back(spgemm_reference(m, m));

  constexpr std::size_t kRequests = 64;
  for (const int threads : {1, 2, 4, 8}) {
    engine::EngineOptions eo;
    eo.plan.algorithm = Algorithm::kHash;
    eo.threads = threads;
    Engine eng(eo);

    std::vector<Engine::Request> reqs(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Matrix& m = inputs[i % inputs.size()];
      reqs[i] = {&m, &m};
    }
    const std::vector<Engine::Product> products = eng.run_batch(reqs);
    ASSERT_EQ(products.size(), kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      expect_bitwise_equal(
          products[i].c, oracles[i % oracles.size()],
          "t" + std::to_string(threads) + " req" + std::to_string(i));
      EXPECT_GT(products[i].flop, 0) << i;
    }
    // Every structure past its first appearance must have hit the cache.
    const auto stats = eng.cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, kRequests);
    EXPECT_EQ(stats.misses, inputs.size());
  }
}

TEST(EngineBatch, RejectsDimensionMismatch) {
  const Matrix a = unit_valued_rmat(5, 4, 9);
  const Matrix b = csr_identity<I, double>(a.nrows + 3);
  Engine eng;
  try {
    eng.multiply(a, b);
    FAIL() << "engine accepted mismatched inner dimensions";
  } catch (const SpGemmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadInput);
  }
  auto fut = eng.submit(a, b);
  try {
    fut.get();
    FAIL() << "future delivered a mismatched product";
  } catch (const SpGemmError& e) {
    // The ErrorCode crosses the promise/future boundary losslessly.
    EXPECT_EQ(e.code(), ErrorCode::kBadInput);
  }
}

// ---------------------------------------------------------------------------
// Concurrent submit from multiple producers.
// ---------------------------------------------------------------------------

TEST(EngineSubmit, ConcurrentProducersRaceFree) {
  std::vector<Matrix> inputs;
  for (int s = 0; s < 4; ++s) {
    inputs.push_back(unit_valued_rmat(6, 6, 400 + s));
  }
  std::vector<Matrix> oracles;
  for (const Matrix& m : inputs) oracles.push_back(spgemm_reference(m, m));

  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  eo.threads = 4;
  Engine eng(eo);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 16;
  std::vector<std::vector<std::future<Engine::Product>>> futures(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[p].reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        const Matrix& m = inputs[(p + i) % inputs.size()];
        futures[p].push_back(eng.submit(m, m));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      const Engine::Product prod = futures[p][i].get();
      expect_bitwise_equal(prod.c, oracles[(p + i) % oracles.size()],
                           "producer " + std::to_string(p) + " req " +
                               std::to_string(i));
      EXPECT_GE(prod.latency_ms, 0.0);
    }
  }
  const auto stats = eng.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  // Every structure plans at most once per concurrent first-sight window;
  // with 4 structures and 64 requests the overwhelming majority must hit.
  EXPECT_GE(stats.hits, static_cast<std::uint64_t>(
                            kProducers * kPerProducer - 2 * 4));
}

// ---------------------------------------------------------------------------
// Work-conserving lanes + shard-affine pools: concurrent mixed streams must
// be bit-identical to the serial oracle in EVERY lane/pool configuration,
// and the QoS machinery must behave exactly as it does drain-ordered.
// ---------------------------------------------------------------------------

TEST(EngineLanes, MixedStreamsBitIdenticalAcrossLaneAndPoolConfigs) {
  // Two large structures (they fan out on a bounded lane) and three small
  // ones (they run on the overlay while a lane is busy).  Results must be
  // bitwise the serial reference no matter which lane width, overlay slot
  // or pool served them — the whole point of deterministic lane sizing.
  std::vector<Matrix> inputs;
  inputs.push_back(unit_valued_rmat(9, 8, 600));  // large
  inputs.push_back(dense_row_among_empties(600)); // large, skewed
  inputs.push_back(unit_valued_rmat(6, 6, 601));
  inputs.push_back(unit_valued_rmat(5, 4, 602));
  inputs.push_back(csr_identity<I, double>(48));
  std::vector<Matrix> oracles;
  for (const Matrix& m : inputs) oracles.push_back(spgemm_reference(m, m));

  for (const int threads : {1, 2, 4, 8}) {
    for (const int pools : {1, 2, 4}) {
      engine::EngineOptions eo;
      eo.plan.algorithm = Algorithm::kHash;
      eo.threads = threads;
      eo.pools = pools;
      Engine eng(eo);
      ASSERT_EQ(eng.pools(), std::min(pools, eng.pool_threads()));

      // Burst from several producers so larges and smalls land in the same
      // dispatch windows and the overlay actually overlaps the lanes.
      constexpr int kProducers = 3;
      constexpr int kPerProducer = 12;
      std::vector<std::vector<std::future<Engine::Product>>> futures(
          kProducers);
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (int i = 0; i < kPerProducer; ++i) {
            const Matrix& m = inputs[(p + i) % inputs.size()];
            futures[p].push_back(eng.submit(m, m));
          }
        });
      }
      for (std::thread& t : producers) t.join();
      for (int p = 0; p < kProducers; ++p) {
        for (int i = 0; i < kPerProducer; ++i) {
          const Engine::Product prod = futures[p][i].get();
          expect_bitwise_equal(
              prod.c, oracles[(p + i) % oracles.size()],
              "t" + std::to_string(threads) + " pools" +
                  std::to_string(pools) + " producer " + std::to_string(p) +
                  " req " + std::to_string(i));
        }
      }
      // run_batch and multiply agree with the same oracles on the same
      // engine (the synchronous paths share the lane machinery).
      std::vector<Engine::Request> reqs;
      for (const Matrix& m : inputs) reqs.push_back({&m, &m});
      const auto batch = eng.run_batch(reqs);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        expect_bitwise_equal(batch[i].c, oracles[i],
                             "run_batch t" + std::to_string(threads) +
                                 " pools" + std::to_string(pools));
      }
    }
  }
}

TEST(EngineLanes, LaneWidthIsDeterministicAndCacheStaysValid) {
  // The lane width is a pure function of (flop, engine config), so a large
  // structure served twice must hit its cached plan — a width that drifted
  // with load would silently replan every repeat.
  const Matrix big = unit_valued_rmat(9, 8, 610);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  eo.threads = 4;
  eo.pools = 1;
  Engine eng(eo);
  const Engine::Product first = eng.multiply(big, big);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.packed_small);
  const Engine::Product again = eng.multiply(big, big);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.threads_used, first.threads_used);
  // Work conservation reserves overlay slots: the lane never takes the
  // whole pool when there is more than one worker.
  EXPECT_LT(first.threads_used, eng.pool_threads());
  EXPECT_GE(first.threads_used, 1);
  const auto es = eng.engine_stats();
  EXPECT_EQ(es.lane_execs, 2u);
  EXPECT_EQ(es.lane_width_sum,
            2u * static_cast<std::uint64_t>(first.threads_used));
}

TEST(EngineLanes, OverlayRunsSmallsDuringLargeLane) {
  // One large + a stream of smalls in one dispatch: with lanes on, the
  // overlay must complete small products while the lane runs (observable
  // as overlay_execs > 0 with a large enough stream), and every product
  // still matches its oracle.
  const Matrix big = unit_valued_rmat(10, 8, 620);
  const Matrix small = unit_valued_rmat(5, 4, 621);
  const Matrix oracle_big = spgemm_reference(big, big);
  const Matrix oracle_small = spgemm_reference(small, small);

  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  eo.threads = 4;
  eo.pools = 1;
  Engine eng(eo);
  eng.pause();
  std::vector<std::future<Engine::Product>> futures;
  futures.push_back(eng.submit(big, big));
  for (int i = 0; i < 48; ++i) futures.push_back(eng.submit(small, small));
  eng.resume();
  expect_bitwise_equal(futures[0].get().c, oracle_big, "overlay large");
  std::uint64_t overlays = 0;
  for (std::size_t i = 1; i < futures.size(); ++i) {
    const Engine::Product p = futures[i].get();
    expect_bitwise_equal(p.c, oracle_small,
                         "overlay small " + std::to_string(i));
    EXPECT_TRUE(p.packed_small);
    overlays += p.overlay ? 1 : 0;
  }
  const auto es = eng.engine_stats();
  EXPECT_EQ(es.overlay_execs, overlays);
  EXPECT_GE(es.lane_execs, 1u);
}

TEST(EngineLanes, EdfOrdersDeadlineSmallsFirst) {
  // Packed smalls with deadlines run earliest-deadline-first, ahead of
  // deadline-free ones.  Serial engine (1 thread, 1 pool) + one paused
  // dispatch make completion order — and with near-identical enqueue
  // times, delivered latency order — deterministic.
  const Matrix m = unit_valued_rmat(5, 4, 630);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  eo.threads = 1;
  eo.pools = 1;
  Engine eng(eo);
  eng.multiply(m, m);  // warm the plan so runs are uniform
  eng.pause();

  const auto now = Engine::Clock::now();
  auto with_deadline = [&](int seconds) {
    Engine::Request r;
    r.a = &m;
    r.b = &m;
    if (seconds > 0) r.deadline = now + std::chrono::seconds(seconds);
    return r;
  };
  // Submission order: no-deadline, latest, middle, earliest.
  auto f_none = eng.submit(with_deadline(0));
  auto f_late = eng.submit(with_deadline(300));
  auto f_mid = eng.submit(with_deadline(200));
  auto f_early = eng.submit(with_deadline(100));
  eng.resume();

  const double l_none = f_none.get().latency_ms;
  const double l_late = f_late.get().latency_ms;
  const double l_mid = f_mid.get().latency_ms;
  const double l_early = f_early.get().latency_ms;
  // EDF run order: early, mid, late, then the deadline-free request.
  EXPECT_LT(l_early, l_mid);
  EXPECT_LT(l_mid, l_late);
  EXPECT_LT(l_late, l_none);
  EXPECT_EQ(eng.engine_stats().deadline_misses, 0u);
}

TEST(EngineLanes, QosSurvivesLanesAndPools) {
  // Shed/deadline/pause semantics must be untouched by the lane scheduler:
  // same structure -> same pool, so per-pool admission behaves exactly
  // like the old single-queue engine.
  const Matrix m = unit_valued_rmat(5, 4, 640);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  eo.threads = 4;
  eo.pools = 2;
  eo.max_queue = 2;
  Engine eng(eo);
  eng.pause();

  auto f1 = eng.submit(m, m);
  auto f2 = eng.submit(m, m);
  Engine::Request high;
  high.a = &m;
  high.b = &m;
  high.priority = 5;
  auto f3 = eng.submit(high);  // displaces a priority-0 entry
  Engine::Request stale;
  stale.a = &m;
  stale.b = &m;
  stale.priority = 9;
  stale.deadline = Engine::Clock::now() - std::chrono::milliseconds(1);
  auto f4 = eng.submit(stale);  // admitted (displaces), fails at run time

  eng.resume();
  int delivered = 0;
  int shed = 0;
  int missed = 0;
  for (auto* f : {&f1, &f2, &f3, &f4}) {
    try {
      const Engine::Product p = f->get();
      expect_bitwise_equal(p.c, spgemm_reference(m, m), "qos survivor");
      ++delivered;
    } catch (const SpGemmError& e) {
      if (e.code() == ErrorCode::kShed) ++shed;
      if (e.code() == ErrorCode::kDeadlineExceeded) ++missed;
    }
  }
  // f1 and f2 were displaced (kShed); the expired entry was admitted but
  // failed typed at run time; only the high-priority request delivered.
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(missed, 1);
  const auto es = eng.engine_stats();
  EXPECT_EQ(es.shed, 2u);
  EXPECT_GE(es.deadline_misses, 1u);
}

TEST(EngineLanes, PauseFreezesEveryPool) {
  const Matrix m = unit_valued_rmat(5, 4, 650);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  eo.threads = 4;
  eo.pools = 4;
  Engine eng(eo);
  eng.pause();
  std::vector<std::future<Engine::Product>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(eng.submit(m, m));
  // Nothing may be served while paused — across ALL pools.
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::milliseconds(30)),
              std::future_status::timeout);
  }
  eng.resume();
  for (auto& f : futures) {
    expect_bitwise_equal(f.get().c, spgemm_reference(m, m), "post-resume");
  }
}

TEST(EngineLanes, FaultSweepSurvivableUnderLanesAndPools) {
  // The resilience sweep's contract, rerun inside the lane scheduler: an
  // armed fault during a mixed large+small stream yields bit-identical
  // success or a typed error, never a hang, crash or pin leak.
  const Matrix big = unit_valued_rmat(9, 8, 660);
  const Matrix small = unit_valued_rmat(5, 4, 661);
  const Matrix oracle_big = spgemm_reference(big, big);
  const Matrix oracle_small = spgemm_reference(small, small);
  for (std::size_t i = 0; i < fault::kNumPoints; ++i) {
    const std::string point = fault::kPoints[i];
    SCOPED_TRACE(point);
    fault::disarm_all();
    engine::EngineOptions eo;
    eo.plan.algorithm = Algorithm::kHash;
    eo.threads = 4;
    eo.pools = 2;
    Engine eng(eo);
    {
      fault::ScopedFault f(point, 1);
      eng.pause();
      std::vector<std::future<Engine::Product>> futures;
      futures.push_back(eng.submit(big, big));
      for (int s = 0; s < 6; ++s) futures.push_back(eng.submit(small, small));
      eng.resume();
      for (std::size_t k = 0; k < futures.size(); ++k) {
        try {
          const Engine::Product p = futures[k].get();
          expect_bitwise_equal(p.c, k == 0 ? oracle_big : oracle_small,
                               point + " (survived)");
        } catch (const SpGemmError& e) {
          EXPECT_TRUE(e.code() == ErrorCode::kInternal ||
                      e.code() == ErrorCode::kOutOfMemory)
              << point << " failed with " << error_code_name(e.code());
        }
      }
    }
    EXPECT_EQ(eng.cache().total_pins(), 0) << point;
    // Disarmed, the same engine serves both structures perfectly.
    expect_bitwise_equal(eng.multiply(big, big).c, oracle_big,
                         point + " (after disarm)");
    expect_bitwise_equal(eng.multiply(small, small).c, oracle_small,
                         point + " (after disarm)");
  }
  fault::disarm_all();
}

TEST(EnginePools, DrainModeMatchesOracleToo) {
  // The legacy drain-ordered scheduler stays available (the bench
  // baseline) and must be just as correct.
  std::vector<Matrix> inputs;
  inputs.push_back(unit_valued_rmat(9, 8, 670));
  inputs.push_back(unit_valued_rmat(5, 4, 671));
  std::vector<Matrix> oracles;
  for (const Matrix& m : inputs) oracles.push_back(spgemm_reference(m, m));

  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  eo.threads = 4;
  eo.work_conserving = false;
  Engine eng(eo);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::future<Engine::Product>> futures;
    for (const Matrix& m : inputs) futures.push_back(eng.submit(m, m));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Engine::Product p = futures[i].get();
      expect_bitwise_equal(p.c, oracles[i], "drain mode");
      EXPECT_FALSE(p.overlay);
    }
  }
  // Drain mode runs larges at the full pool width.
  EXPECT_EQ(eng.engine_stats().lane_execs, 0u);
}

// ---------------------------------------------------------------------------
// Request stream loaded from a MatrixMarket file (io satellite, engine leg).
// ---------------------------------------------------------------------------

TEST(EngineStream, MatrixMarketFileFeedsRequestStream) {
  const Matrix original = unit_valued_rmat(6, 6, 55);
  const std::string path = ::testing::TempDir() + "/spgemm_engine_stream.mtx";
  io::write_matrix_market(path, original);
  Matrix loaded = io::read_matrix_market<I, double>(path);
  const Matrix oracle = spgemm_reference(loaded, loaded);

  Engine eng;
  const std::uint64_t fp = structure_fingerprint(loaded);
  for (int round = 0; round < 6; ++round) {
    const Engine::Product p =
        eng.multiply_hashed(loaded, loaded, fp, fp);
    expect_bitwise_equal(p.c, oracle, "round " + std::to_string(round));
    EXPECT_EQ(p.cache_hit, round > 0);
  }
  const auto stats = eng.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
}

// ---------------------------------------------------------------------------
// Apps through the engine agree with their handle-based forms.
// ---------------------------------------------------------------------------

TEST(EngineApps, MclStreamAgreesWithHandleMcl) {
  const Matrix g = rmat_matrix<I, double>(RmatParams::g500(7, 4, 11));
  // MCL's expansions are small products, which the engine packs onto
  // single workers (threads = 1); run the handle baseline at 1 thread too
  // so accumulator sizing — and with it FP summation order — matches.
  SpGemmOptions handle_opts;
  handle_opts.algorithm = Algorithm::kHash;
  handle_opts.threads = 1;
  const apps::MclResult<I> via_handle =
      apps::markov_cluster(g, apps::MclParams{}, handle_opts);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  Engine eng(eo);
  const apps::MclResult<I> via_engine = apps::markov_cluster(g, eng);
  EXPECT_EQ(via_engine.clusters, via_handle.clusters);
  EXPECT_EQ(via_engine.iterations, via_handle.iterations);
  EXPECT_EQ(via_engine.converged, via_handle.converged);
  EXPECT_EQ(via_engine.cluster_of, via_handle.cluster_of);
  // Stabilized iterations must be served from the engine's cache, exactly
  // as the handle's ensure_planned_hashed serves them in handle mode.
  EXPECT_EQ(via_engine.plan_reuses, via_handle.plan_reuses);
  EXPECT_GT(via_engine.plan_reuses, 0);
}

TEST(EngineApps, GalerkinLevelsShareOneCache) {
  Matrix fine = apps::poisson_2d<I, double>(40, 40);
  const auto p0 =
      apps::aggregation_prolongator<I, double>(fine.nrows, 4);

  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  Engine eng(eo);

  apps::GalerkinReassembler<I, double> level0(eng, fine, p0);
  Matrix coarse = level0.reassemble(fine);  // owned copy for level 1
  const auto p1 =
      apps::aggregation_prolongator<I, double>(coarse.nrows, 4);
  apps::GalerkinReassembler<I, double> level1(eng, coarse, p1);

  // Both Galerkin products at this grid size are small-class (the engine
  // packs them whole onto one worker), so the handle baselines run at 1
  // thread for matching accumulator sizing and FP summation order.
  SpGemmOptions handle_opts;
  handle_opts.algorithm = Algorithm::kHash;
  handle_opts.threads = 1;
  apps::GalerkinReassembler<I, double> level0_handle(fine, p0, handle_opts);
  apps::GalerkinReassembler<I, double> level1_handle(coarse, p1,
                                                     handle_opts);

  for (int step = 0; step < 3; ++step) {
    for (auto& v : fine.vals) v *= 1.0001;
    const Matrix& c_engine = level0.reassemble(fine);
    const Matrix& c_handle = level0_handle.reassemble(fine);
    expect_bitwise_equal(c_engine, c_handle,
                         "level0 step " + std::to_string(step));
    EXPECT_TRUE(level0.last_step_cached());

    const Matrix& cc_engine = level1.reassemble(coarse);
    const Matrix& cc_handle = level1_handle.reassemble(coarse);
    expect_bitwise_equal(cc_engine, cc_handle,
                         "level1 step " + std::to_string(step));
    EXPECT_TRUE(level1.last_step_cached());
  }
  // Both levels' plans live in ONE cache: 4 distinct products (A*P and
  // R*AP per level), each planned exactly once.
  const auto stats = eng.cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(EngineApps, GalerkinEngineModeSurvivesStructureDrift) {
  // Engine mode replans on drift in A instead of throwing — including the
  // knock-on drift of the INTERMEDIATE AP, whose cached fingerprint must
  // refresh or R*(AP) would silently replay a stale plan.
  Matrix a0 = apps::poisson_2d<I, double>(24, 24);
  const auto p = apps::aggregation_prolongator<I, double>(a0.nrows, 4);

  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  Engine eng(eo);
  apps::GalerkinReassembler<I, double> rap(eng, a0, p);
  rap.reassemble(a0);

  // Drift: same dimensions, different sparsity (extra off-band entries).
  std::vector<std::tuple<I, I, double>> trips;
  for (I i = 0; i < a0.nrows; ++i) {
    for (Offset j = a0.row_begin(i); j < a0.row_end(i); ++j) {
      trips.emplace_back(i, a0.cols[static_cast<std::size_t>(j)],
                         a0.vals[static_cast<std::size_t>(j)]);
    }
  }
  trips.emplace_back(0, a0.ncols - 1, 0.5);
  trips.emplace_back(a0.nrows - 1, 0, 0.5);
  const Matrix a1 = csr_from_triplets<I, double>(a0.nrows, a0.ncols, trips);

  SpGemmOptions oracle_opts;
  oracle_opts.algorithm = Algorithm::kHash;
  oracle_opts.threads = 1;  // both products are small-class in the engine
  apps::GalerkinReassembler<I, double> oracle1(a1, p, oracle_opts);
  expect_bitwise_equal(rap.reassemble(a1), oracle1.reassemble(a1),
                       "post-drift coarse operator");

  // RETURN drift: back to S0, the A*P lookup hits the cache again but the
  // intermediate is S0's AP — the cached AP fingerprint must not still
  // describe S1's.
  apps::GalerkinReassembler<I, double> oracle0(a0, p, oracle_opts);
  expect_bitwise_equal(rap.reassemble(a0), oracle0.reassemble(a0),
                       "return-drift coarse operator");
}

// ---------------------------------------------------------------------------
// NUMA re-touch satellite: correctness is untouched, pages are counted.
// ---------------------------------------------------------------------------

TEST(EngineSatellites, RetouchOutputPagesKeepsResultsAndCounts) {
  const Matrix a = dense_row_among_empties(2048);
  SpGemmOptions base;
  base.algorithm = Algorithm::kHash;
  base.tile_schedule = parallel::TileSchedule::kStealing;
  base.tile_rows = 64;
  base.threads = 4;

  SpGemmOptions retouch = base;
  retouch.retouch_output_pages = true;

  SpGemmStats plain_stats;
  SpGemmHandle<I, double> plain(a, a, base);
  const Matrix& c_plain = plain.execute(a, a, PlusTimes{}, &plain_stats);

  SpGemmStats retouch_stats;
  SpGemmHandle<I, double> touched(a, a, retouch);
  const Matrix& c_touched =
      touched.execute(a, a, PlusTimes{}, &retouch_stats);

  expect_bitwise_equal(c_touched, c_plain, "retouch on vs off");
  EXPECT_EQ(plain_stats.pages_retouched, 0u);
  if (retouch_stats.tile_steals > 0) {
    EXPECT_GT(retouch_stats.pages_retouched, 0u);
  } else {
    EXPECT_EQ(retouch_stats.pages_retouched, 0u);
  }
  // The pass runs once per plan: a second execute adds no pages.
  const std::uint64_t after_first = retouch_stats.pages_retouched;
  touched.execute(a, a, PlusTimes{}, &retouch_stats);
  EXPECT_EQ(retouch_stats.pages_retouched, after_first);
}

}  // namespace
}  // namespace spgemm
