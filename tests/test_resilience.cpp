// Chaos suite for the engine resilience layer (PR 6).
//
// Everything here runs deterministically: faults are armed by pass count,
// deadlines are already expired when asserted, and backpressure decisions
// are taken while the dispatcher is paused.  The invariants under test:
//   * every registered fault point, armed during an engine workload, either
//     leaves the result bit-identical to the serial oracle (degraded or
//     retried execution) or fails with the correct SpGemmError code —
//     never a crash, never a silent drop;
//   * PlanCache pins return to zero after every batch, faulted or not, and
//     a plan whose execute threw is quarantined and never re-served;
//   * the memory-pressure ladder walks cache purge -> degraded re-plan ->
//     single-thread fallback before giving up with kOutOfMemory;
//   * admission control shed decisions are typed (kShed /
//     kDeadlineExceeded / kEngineStopped) and counted in EngineStats.
//
// The CI fault-injection job reruns EnvDrivenFaultSweepWorkload once per
// registry entry with SPGEMM_FAULT=<point>:1 under ASan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_ref.hpp"
#include "engine/plan_cache.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/rmat.hpp"
#include "mem/pool_allocator.hpp"
#include "model/cost_model.hpp"
#include "shard/sharded_spgemm.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Engine = engine::SpGemmEngine<I, double>;
using Cache = engine::PlanCache<I, double>;

/// One byte past the pool's last size class: served by operator new
/// through the "mem.pool.oversize" point.
constexpr std::size_t kOversize = (64u << 20) + 1;

/// Unit values make summation order irrelevant (sums of 1.0 are exact), so
/// a degraded / retried / single-threaded execution must be bit-identical
/// to the serial reference — the strongest possible recovery check.
Matrix unit_valued_rmat(int scale, int edge_factor, std::uint64_t seed) {
  Matrix m =
      rmat_matrix<I, double>(RmatParams::g500(scale, edge_factor, seed));
  for (auto& v : m.vals) v = 1.0;
  return m;
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

/// Consume a future: the delivered product, or the SpGemmError code it
/// failed with.  Any other exception type fails the test.
struct Settled {
  bool ok = false;
  ErrorCode code = ErrorCode::kInternal;
  Engine::Product product;
};

Settled settle(std::future<Engine::Product>& fut) {
  Settled s;
  try {
    s.product = fut.get();
    s.ok = true;
  } catch (const SpGemmError& e) {
    s.code = e.code();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "future failed with a non-SpGemmError: " << e.what();
  }
  return s;
}

// ---------------------------------------------------------------------------
// Fault-injection framework contracts.
// ---------------------------------------------------------------------------

TEST(Resilience, FaultRegistryIsWellFormed) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < fault::kNumPoints; ++i) {
    ASSERT_NE(fault::kPoints[i], nullptr);
    const std::string name = fault::kPoints[i];
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate point: " << name;
    // Every registered name must be armable...
    EXPECT_TRUE(fault::arm(name, 1)) << name;
  }
  // ...and nothing else is.
  EXPECT_FALSE(fault::arm("no.such.point", 1));
  EXPECT_FALSE(fault::arm(fault::kPoints[0], 0));  // nth must be positive
  fault::disarm_all();
}

TEST(Resilience, FaultSpecParsing) {
  EXPECT_TRUE(fault::arm_spec("mem.pool.oversize:3"));
  EXPECT_TRUE(fault::arm_spec("mem.pool.oversize:3:2"));
  EXPECT_FALSE(fault::arm_spec(""));
  EXPECT_FALSE(fault::arm_spec("mem.pool.oversize"));       // missing nth
  EXPECT_FALSE(fault::arm_spec("mem.pool.oversize:zero"));  // not a number
  EXPECT_FALSE(fault::arm_spec("unknown.point:1"));
  EXPECT_FALSE(fault::arm_spec(":1"));
  fault::disarm_all();
}

TEST(Resilience, FaultArmsFromEnvironment) {
  ASSERT_EQ(::setenv("SPGEMM_FAULT", "mem.pool.oversize:2", 1), 0);
  EXPECT_TRUE(fault::arm_from_env());
  fault::disarm_all();
  ASSERT_EQ(::setenv("SPGEMM_FAULT", "bogus-spec", 1), 0);
  EXPECT_FALSE(fault::arm_from_env());
  ASSERT_EQ(::unsetenv("SPGEMM_FAULT"), 0);
  EXPECT_FALSE(fault::arm_from_env());  // unset = no-op
  fault::disarm_all();
}

TEST(Resilience, FaultTriggersOnExactPassWindow) {
  // Only a serial allocation past the last size class passes this point,
  // and nothing else here makes one, so the pass counter is fully under
  // our control: pass 2 and 3 throw, 1 and 4 succeed.
  fault::disarm_all();
  const auto alloc_free = [] { mem::pool_free(mem::pool_malloc(kOversize)); };
  ASSERT_TRUE(fault::arm("mem.pool.oversize", 2, 2));
  EXPECT_NO_THROW(alloc_free());               // pass 1
  EXPECT_THROW(alloc_free(), std::bad_alloc);  // pass 2
  EXPECT_THROW(alloc_free(), std::bad_alloc);  // pass 3
  EXPECT_NO_THROW(alloc_free());               // pass 4
  EXPECT_EQ(fault::passes("mem.pool.oversize"), 4u);
  EXPECT_EQ(fault::triggered("mem.pool.oversize"), 2u);
  fault::disarm("mem.pool.oversize");
  EXPECT_NO_THROW(alloc_free());  // disarmed = silent
  fault::disarm_all();
}

TEST(Resilience, PoolOversizeFaultFiresSerially) {
  fault::disarm_all();
  {
    fault::ScopedFault f("mem.pool.oversize", 1);
    EXPECT_THROW(mem::pool_malloc(kOversize), std::bad_alloc);
    EXPECT_EQ(fault::triggered("mem.pool.oversize"), 1u);
  }
  void* p = mem::pool_malloc(kOversize);  // disarmed: real allocation
  ASSERT_NE(p, nullptr);
  mem::pool_free(p);
  fault::disarm_all();
}

TEST(Resilience, PoolCarveFaultFiresSerially) {
  // The 64MB size class is never touched by the test workloads, so the
  // first serial pool_malloc that needs it must carve — unless an earlier
  // chaos run already stocked the class, in which case each allocation
  // drains one block (carves of this class yield exactly one) and a carve
  // is reached within a few iterations.
  fault::disarm_all();
  constexpr std::size_t kBigClass = 48u << 20;
  fault::ScopedFault f("mem.pool.carve", 1);
  std::vector<void*> held;
  bool threw = false;
  for (int i = 0; i < 8 && !threw; ++i) {
    try {
      held.push_back(mem::pool_malloc(kBigClass));
    } catch (const std::bad_alloc&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(fault::triggered("mem.pool.carve"), 1u);
  for (void* p : held) mem::pool_free(p);
  fault::disarm_all();
}

// ---------------------------------------------------------------------------
// PlanCache quarantine protocol.
// ---------------------------------------------------------------------------

TEST(Resilience, DroppedLeaseQuarantinesEntry) {
  Cache cache(64u << 20);
  {
    Cache::Lease lease = cache.acquire(0x1234);
    // Destroyed without release(): the plan is treated as poisoned.
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(cache.total_pins(), 0);
  // The key is served by a brand-new entry afterwards.
  Cache::Lease fresh = cache.acquire(0x1234);
  EXPECT_EQ(cache.total_pins(), 1);
  cache.release(std::move(fresh), /*hit=*/false, /*bytes=*/0);
  EXPECT_EQ(cache.total_pins(), 0);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(Resilience, ExecuteFaultQuarantinesCachedPlan) {
  Engine eng;
  const Matrix a = unit_valued_rmat(6, 6, 41);
  const Matrix oracle = spgemm_reference(a, a);

  const Engine::Product warm = eng.multiply(a, a);
  expect_bitwise_equal(warm.c, oracle, "warm-up plan");
  ASSERT_EQ(eng.cache_stats().entries, 1u);

  {
    fault::ScopedFault f("handle.execute.numeric", 1);
    try {
      eng.multiply(a, a);
      FAIL() << "injected execute fault was swallowed";
    } catch (const SpGemmError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal) << e.what();
    }
  }
  const auto stats = eng.cache_stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.entries, 0u);  // gone immediately — never re-served
  EXPECT_EQ(eng.cache().total_pins(), 0);

  // The structure is served again by a fresh plan, not the poisoned one.
  const Engine::Product replanned = eng.multiply(a, a);
  EXPECT_FALSE(replanned.cache_hit);
  expect_bitwise_equal(replanned.c, oracle, "post-quarantine re-plan");
  EXPECT_EQ(eng.cache().total_pins(), 0);
}

// ---------------------------------------------------------------------------
// Memory-pressure ladder.
// ---------------------------------------------------------------------------

TEST(Resilience, LadderRetriesTransientAllocFailure) {
  // One bad_alloc at cache-entry creation: attempt 0 fails, the ladder
  // purges the cache and attempt 1 succeeds with the NORMAL configuration
  // (degradation starts only at attempt 2).
  Engine eng;
  const Matrix a = unit_valued_rmat(6, 6, 42);
  fault::ScopedFault f("cache.insert", 1);
  const Engine::Product p = eng.multiply(a, a);
  EXPECT_FALSE(p.degraded);
  expect_bitwise_equal(p.c, spgemm_reference(a, a), "retry after purge");
  const auto es = eng.engine_stats();
  EXPECT_EQ(es.retries, 1u);
  EXPECT_EQ(es.degraded_execs, 0u);
  EXPECT_EQ(eng.cache().total_pins(), 0);
}

TEST(Resilience, LadderDegradesAfterRepeatedAllocFailure) {
  // Every plan attempt passes handle.plan.alloc exactly once, so a
  // two-trigger window fails attempts 0 and 1 deterministically; attempt 2
  // re-plans degraded (capture off: the plan keeps no slot streams)
  // outside the cache and must still be bit-identical.
  Engine eng;
  const Matrix a = unit_valued_rmat(7, 6, 43);
  fault::ScopedFault f("handle.plan.alloc", 1, 2);
  const Engine::Product p = eng.multiply(a, a);
  EXPECT_TRUE(p.degraded);
  EXPECT_FALSE(p.cache_hit);
  EXPECT_EQ(p.stats.reuse_rows_captured, 0u);
  expect_bitwise_equal(p.c, spgemm_reference(a, a), "degraded execution");
  const auto es = eng.engine_stats();
  EXPECT_EQ(es.retries, 2u);
  EXPECT_EQ(es.degraded_execs, 1u);
  EXPECT_EQ(eng.cache().total_pins(), 0);
  // Degraded plans bypass the cache: nothing crippled was retained.
  EXPECT_EQ(eng.cache_stats().entries, 0u);

  // A fused request walks the same ladder: its degraded rung plans on a
  // local handle and must give the fused one-shot's bytes.
  Engine::Request fused;
  fused.a = &a;
  fused.b = &a;
  fused.epilogue.kind = EpilogueKind::kPruneScale;
  fused.epilogue.inflation = 2.0;
  fused.epilogue.prune_below = 2.5;
  const fault::ScopedFault again("handle.plan.alloc", 1, 2);
  const Engine::Product q = eng.run_batch({&fused, 1})[0];
  EXPECT_TRUE(q.degraded);
  SpGemmOptions opts;
  opts.threads = q.threads_used;
  opts.epilogue = fused.epilogue;
  expect_bitwise_equal(q.c, multiply_with_epilogue(a, a, opts),
                       "degraded fused execution");
  EXPECT_EQ(eng.engine_stats().degraded_execs, 2u);
  EXPECT_EQ(eng.cache().total_pins(), 0);

  // A three-failure window reaches rung 3: the same degraded plan on one
  // thread, for a large whose lane would otherwise be wider than one seat.
  engine::EngineOptions eo;
  eo.threads = 4;
  Engine wide(eo);
  const Matrix big = unit_valued_rmat(11, 16, 49);
  ASSERT_GT(wide.lane_width_for(model::estimate_flop(big, big)), 1);
  SpGemmOptions heap;
  heap.algorithm = Algorithm::kHeap;
  heap.threads = 1;
  const fault::ScopedFault thrice("handle.plan.alloc", 1, 3);
  const Engine::Product r = wide.multiply(big, big);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.threads_used, 1);
  EXPECT_EQ(r.stats.reuse_rows_captured, 0u);
  expect_bitwise_equal(r.c, multiply(big, big, heap), "single-thread rung");
  EXPECT_EQ(wide.engine_stats().retries, 3u);
  EXPECT_EQ(wide.cache().total_pins(), 0);
}

TEST(Resilience, LadderExhaustsToOutOfMemory) {
  Engine eng;
  const Matrix a = unit_valued_rmat(6, 6, 44);
  {
    fault::ScopedFault f("handle.plan.alloc", 1, 100);  // every attempt fails
    try {
      eng.multiply(a, a);
      FAIL() << "ladder should have exhausted";
    } catch (const SpGemmError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOutOfMemory) << e.what();
    }
    const auto es = eng.engine_stats();
    EXPECT_EQ(es.retries, 3u);  // purge, degraded, single-thread — all spent
    EXPECT_EQ(es.degraded_execs, 0u);
    EXPECT_EQ(eng.cache().total_pins(), 0);
  }
  // Pressure gone: the same engine serves the request normally.
  const Engine::Product p = eng.multiply(a, a);
  EXPECT_FALSE(p.degraded);
  expect_bitwise_equal(p.c, spgemm_reference(a, a), "after pressure passed");
}

// ---------------------------------------------------------------------------
// Registry sweep: every fault point, armed during an engine workload, is
// survivable — bit-identical success or a typed SpGemmError, pins at zero.
// ---------------------------------------------------------------------------

TEST(Resilience, EveryFaultPointIsSurvivableDuringEngineWork) {
  const Matrix a = unit_valued_rmat(7, 6, 45);
  const Matrix oracle = spgemm_reference(a, a);
  for (std::size_t i = 0; i < fault::kNumPoints; ++i) {
    const std::string point = fault::kPoints[i];
    SCOPED_TRACE(point);
    fault::disarm_all();
    Engine eng;
    {
      fault::ScopedFault f(point, 1);
      try {
        const Engine::Product p = eng.multiply(a, a);
        // Not every point sits on this workload's path (e.g. eviction
        // under an ample budget), and alloc points may be absorbed by the
        // retry ladder — success must then be bit-identical.
        expect_bitwise_equal(p.c, oracle, point + " (survived)");
      } catch (const SpGemmError& e) {
        EXPECT_TRUE(e.code() == ErrorCode::kInternal ||
                    e.code() == ErrorCode::kOutOfMemory)
            << point << " failed with " << error_code_name(e.code());
      }
    }
    EXPECT_EQ(eng.cache().total_pins(), 0) << point;
    // Disarmed, the same engine must serve the structure perfectly.
    const Engine::Product after = eng.multiply(a, a);
    expect_bitwise_equal(after.c, oracle, point + " (after disarm)");
    EXPECT_EQ(eng.cache().total_pins(), 0) << point;
  }
  fault::disarm_all();
}

/// The CI fault-injection smoke job reruns exactly this test once per
/// registry entry with SPGEMM_FAULT=<point>:1 in the environment, and each
/// run must trigger its point.  With the variable unset it is a plain
/// mixed-workload smoke test.
TEST(Resilience, EnvDrivenFaultSweepWorkload) {
  fault::disarm_all();
  const bool armed = fault::arm_from_env();
  // A spec that arms nothing (a typo, or a point no longer registered)
  // would run the workload unarmed and pass; fail the sweep instead.
  const std::string spec = env::get_string("SPGEMM_FAULT", "");
  ASSERT_TRUE(armed || spec.empty())
      << "SPGEMM_FAULT=" << spec << " arms no registered fault point";
  const Matrix big = unit_valued_rmat(8, 8, 46);
  const Matrix small = unit_valued_rmat(5, 4, 47);
  const Matrix oracle_big = spgemm_reference(big, big);
  const Matrix oracle_small = spgemm_reference(small, small);
  {
    Engine eng;
    for (int round = 0; round < 2; ++round) {
      for (const auto* m : {&big, &small}) {
        auto fut = eng.submit(*m, *m);
        Settled s = settle(fut);
        if (s.ok) {
          expect_bitwise_equal(
              s.product.c, m == &big ? oracle_big : oracle_small,
              "env sweep round " + std::to_string(round));
        } else {
          EXPECT_TRUE(s.code == ErrorCode::kInternal ||
                      s.code == ErrorCode::kOutOfMemory)
              << error_code_name(s.code);
        }
      }
      EXPECT_EQ(eng.cache().total_pins(), 0);
    }
  }  // engine destruction under an armed fault must also be clean

  // The sharded driver's spill/load path — the only workload that
  // traverses shard.spill.write and shard.load.map.  A tiny budget forces
  // the store to spill, so the sweep exercises both points; unfaulted runs
  // must match the oracle exactly (unit values -> exact sums).
  {
    Engine eng;
    shard::ShardedOptions sopts;
    sopts.memory_budget_bytes = std::size_t{32} << 10;
    shard::ShardedSpGemm<I, double> driver(eng, sopts);
    try {
      const Matrix c = driver.multiply(big, big);
      expect_bitwise_equal(c, oracle_big, "env sweep sharded");
      EXPECT_GT(driver.stats().spills, 0u)
          << "budget too large to exercise the spill path";
    } catch (const SpGemmError& e) {
      EXPECT_TRUE(e.code() == ErrorCode::kInternal ||
                  e.code() == ErrorCode::kOutOfMemory)
          << error_code_name(e.code());
    }
  }

  // A one-byte cache budget evicts every plan handed back to it: the
  // eviction path (cache.evict).
  {
    engine::EngineOptions eo;
    eo.cache_budget_bytes = 1;
    Engine eng(eo);
    for (const auto* m : {&big, &small}) {
      auto fut = eng.submit(*m, *m);
      Settled s = settle(fut);
      if (s.ok) {
        expect_bitwise_equal(s.product.c,
                             m == &big ? oracle_big : oracle_small,
                             "env sweep evicting cache");
      } else {
        EXPECT_TRUE(s.code == ErrorCode::kInternal ||
                    s.code == ErrorCode::kOutOfMemory)
            << error_code_name(s.code);
      }
      EXPECT_EQ(eng.cache().total_pins(), 0);
    }
  }

  // The pool's serial allocation points fire only outside OpenMP regions:
  // one block past the largest size class (mem.pool.oversize), then one of
  // the 48 MB class, which a fresh process has to carve (mem.pool.carve).
  for (const std::size_t bytes : {kOversize, std::size_t{48} << 20}) {
    try {
      mem::pool_free(mem::pool_malloc(bytes));
    } catch (const std::bad_alloc&) {
      // The armed fault: nothing was allocated, so nothing leaks.
    }
  }

  if (armed) {
    const std::string point = spec.substr(0, spec.find(':'));
    EXPECT_GT(fault::triggered(point), 0u)
        << "SPGEMM_FAULT=" << spec << " never triggered during the workload";
    fault::disarm_all();
  }
}

// ---------------------------------------------------------------------------
// QoS: deadlines, backpressure, stop.
// ---------------------------------------------------------------------------

TEST(Resilience, SubmitAfterStopFailsTyped) {
  Engine eng;
  const Matrix a = unit_valued_rmat(5, 4, 48);
  eng.stop();
  auto fut = eng.submit(a, a);
  Settled s = settle(fut);
  ASSERT_FALSE(s.ok);
  EXPECT_EQ(s.code, ErrorCode::kEngineStopped);
  // The synchronous path never used the dispatcher and keeps working.
  const Engine::Product p = eng.multiply(a, a);
  expect_bitwise_equal(p.c, spgemm_reference(a, a), "multiply after stop");
}

TEST(Resilience, ExpiredDeadlineFailsTypedAndIsCounted) {
  Engine eng;
  const Matrix a = unit_valued_rmat(5, 4, 49);

  Engine::Request expired;
  expired.a = &a;
  expired.b = &a;
  expired.deadline = Engine::Clock::now() - std::chrono::milliseconds(1);
  auto doomed = eng.submit(expired);

  auto fine = eng.submit(a, a);  // no deadline rides the same dispatcher

  Settled s1 = settle(doomed);
  ASSERT_FALSE(s1.ok);
  EXPECT_EQ(s1.code, ErrorCode::kDeadlineExceeded);
  Settled s2 = settle(fine);
  ASSERT_TRUE(s2.ok);
  expect_bitwise_equal(s2.product.c, spgemm_reference(a, a),
                       "deadline-free neighbour");
  EXPECT_GE(eng.engine_stats().deadline_misses, 1u);
}

TEST(Resilience, BackpressureShedsLowestPriorityTyped) {
  engine::EngineOptions opts;
  opts.max_queue = 2;
  Engine eng(std::move(opts));
  eng.pause();  // decisions below are taken against a full, frozen queue

  const Matrix a = unit_valued_rmat(5, 4, 50);
  const Matrix oracle = spgemm_reference(a, a);

  Engine::Request req;
  req.a = &a;
  req.b = &a;

  req.priority = 1;
  auto fut_a = eng.submit(req);
  auto fut_b = eng.submit(req);  // queue now at its bound

  req.priority = 0;  // nothing queued is lower: the arrival itself sheds
  auto fut_low = eng.submit(req);

  req.priority = 5;  // displaces one of the priority-1 entries
  auto fut_high = eng.submit(req);

  eng.resume();

  std::vector<Settled> settled;
  for (auto* f : {&fut_a, &fut_b, &fut_low, &fut_high}) {
    settled.push_back(settle(*f));
  }
  Settled& low = settled[2];
  Settled& high = settled[3];
  ASSERT_FALSE(low.ok);
  EXPECT_EQ(low.code, ErrorCode::kShed);
  ASSERT_TRUE(high.ok);

  int delivered = 0;
  int shed = 0;
  for (const Settled& s : settled) {
    if (s.ok) {
      ++delivered;
      expect_bitwise_equal(s.product.c, oracle, "backpressure survivor");
    } else {
      EXPECT_EQ(s.code, ErrorCode::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(delivered, 2);  // the high-priority arrival + one of a/b
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(eng.engine_stats().shed, 2u);
}

TEST(Resilience, FlopBudgetShedsButAdmitsOversizeWhenIdle) {
  engine::EngineOptions opts;
  opts.queue_flop_budget = 1;  // nothing fits — except into an empty queue
  // big and small are different structures; both contend for the
  // dispatcher's one queue, which the budget arithmetic below relies on.
  Engine eng(std::move(opts));
  eng.pause();

  const Matrix big = unit_valued_rmat(7, 6, 51);
  const Matrix small = unit_valued_rmat(5, 4, 52);

  auto fut_big = eng.submit(big, big);      // empty queue: admitted anyway
  auto fut_small = eng.submit(small, small);  // over budget, equal priority

  eng.resume();

  Settled sb = settle(fut_big);
  ASSERT_TRUE(sb.ok);
  expect_bitwise_equal(sb.product.c, spgemm_reference(big, big),
                       "oversize admission");
  Settled ss = settle(fut_small);
  ASSERT_FALSE(ss.ok);
  EXPECT_EQ(ss.code, ErrorCode::kShed);
  EXPECT_EQ(eng.engine_stats().shed, 1u);
}

TEST(Resilience, PastDeadlineQueueEntriesAreShedFirst) {
  engine::EngineOptions opts;
  opts.max_queue = 1;
  Engine eng(std::move(opts));
  eng.pause();

  const Matrix a = unit_valued_rmat(5, 4, 53);

  Engine::Request stale;
  stale.a = &a;
  stale.b = &a;
  stale.priority = 9;  // priority cannot save work that is already dead
  stale.deadline = Engine::Clock::now() - std::chrono::milliseconds(1);
  auto fut_stale = eng.submit(stale);

  auto fut_fresh = eng.submit(a, a);  // displaces the expired entry
  eng.resume();

  Settled s1 = settle(fut_stale);
  ASSERT_FALSE(s1.ok);
  EXPECT_EQ(s1.code, ErrorCode::kDeadlineExceeded);
  Settled s2 = settle(fut_fresh);
  ASSERT_TRUE(s2.ok);
  expect_bitwise_equal(s2.product.c, spgemm_reference(a, a),
                       "fresh request after shed");
  const auto es = eng.engine_stats();
  EXPECT_EQ(es.shed, 1u);
  EXPECT_GE(es.deadline_misses, 1u);
}

}  // namespace
}  // namespace spgemm
