// SpGemmEngine — a concurrent SpGEMM serving layer: fingerprint-keyed plan
// cache + a work-conserving lane scheduler over shard-affine worker pools.
//
// PR 2/3 built the per-product machinery (SpGemmHandle, structure
// fingerprints, the shared ExecutionSchedule); this engine is the layer
// that turns those kernels into a multi-tenant system.  Callers hand it
// independent products — synchronously one at a time (multiply), as a
// whole batch (run_batch), or as an asynchronous stream from any number of
// producer threads (submit -> std::future<Product>) — and the engine:
//
//   * keys every product by its pair structure fingerprint and serves
//     repeats from a PlanCache of SpGemmHandles (engine/plan_cache.hpp):
//     a cache hit skips the symbolic phase, the partition, the capture
//     pass and all output allocation, exactly like a hand-held handle,
//     but shared across every caller of the engine;
//   * orders admission within a batch by the cost model's exact flop
//     count (model::estimate_flop, O(nnz(A)) per request) so the worker
//     pool never idles behind one giant product:
//       - LARGE products (flop > EngineOptions::small_flop_cutoff) run
//         one at a time, largest first, each fanning out through its
//         handle's ExecutionSchedule on an EXECUTION LANE — a bounded
//         worker subset whose width model::choose_lane_width derives from
//         the product's flop and the memory model's per-thread budgets;
//       - SMALL products are packed whole onto single workers (each
//         planning/executing with threads = 1) — so a thousand tiny
//         products cost a thousand single-threaded multiplies, not a
//         thousand barriers.  Deadline-bearing smalls run earliest-
//         deadline-first; the rest keep largest-first flop order.
//     WORK CONSERVATION (EngineOptions::work_conserving, default on):
//     while a large product's lane runs, a concurrent OVERLAY packs the
//     queued small products onto the workers the lane is not using right
//     now — including workers that finish their share of a pass early
//     (ExecutionSchedule reports per-pass worker exits) — so small
//     requests no longer wait for the big one to drain.  Off = the
//     drain-ordered phases of the original engine, kept as the bench
//     baseline.
//     A structure's size class AND lane width are functions of its flop
//     estimate and the engine's configuration, so the same structure
//     always replans with the same thread count and its cached plan stays
//     valid across batches.  (Caveat: run_batch sizes lanes against the
//     full worker width while the submit path sizes them against one
//     pool's width — mixing both paths for the same large structure on a
//     multi-pool engine replans it per path.)
//
//   * shards the submit dispatcher into N WORKER POOLS with PlanCache
//     shard affinity: requests route by fingerprint hash, so repeated
//     products keep hitting the pool — and the NUMA node — that planned
//     them.  N defaults to the detected NUMA node count
//     (model::choose_engine_pools); the SPGEMM_ENGINE_POOLS environment
//     variable or EngineOptions::pools override it so single-node CI
//     exercises the multi-pool path.  A pool whose queue is empty steals
//     the back half of a busy pool's backlog — cross-pool stealing only
//     happens when the thief is otherwise idle, so affinity is preserved
//     until skew would leave workers idle.
//
// Resilience contract (this is a serving tier, so failure is an API):
//
//   * every failure crossing the engine boundary is a SpGemmError with a
//     stable ErrorCode (common/error.hpp), carried losslessly through the
//     futures — null/mismatched inputs are kBadInput, shutdown races are
//     kEngineStopped, never a raw logic_error;
//   * requests carry an optional DEADLINE and a PRIORITY.  A request whose
//     deadline passes before it runs fails fast with kDeadlineExceeded; one
//     that completes late still delivers (the work is done — wasting it
//     helps nobody) and is counted in EngineStats::deadline_misses.  Under
//     the work-conserving scheduler small latency-sensitive work overlays
//     a large fan-out instead of queueing behind it; in drain mode (and
//     its degenerate batches) the packed-small phase still runs first
//     whenever any request in the batch carries a deadline;
//   * admission control: EngineOptions::max_queue bounds each pool's
//     submit queue by count and queue_flop_budget bounds it by estimated
//     work.  Over either bound, the lowest-priority queued request of that
//     pool is shed — its future fails with kShed (past-deadline victims
//     fail kDeadlineExceeded) — and an arrival that cannot displace
//     anything is shed itself.  Nothing is ever silently dropped: every
//     accepted future resolves;
//   * graceful degradation: a std::bad_alloc during plan/execute walks a
//     bounded retry ladder — (1) evict every cold plan from the cache and
//     retry, (2) re-plan with reuse capture off and tile/capture budgets
//     derived from a quartered memory-model tier, (3) the same plus a
//     single thread — before giving up with kOutOfMemory.  Degraded runs
//     bypass the plan cache (a crippled plan must not be re-served after
//     the pressure passes) and are counted in degraded_execs;
//   * a plan whose plan/execute throws is QUARANTINED: the PlanCache lease
//     unwinds into an eviction, the possibly half-built plan is never
//     served again, and pin accounting stays exact (debug builds assert
//     pins return to zero after every batch);
//   * pause() freezes every pool's dispatcher — and therefore every lane —
//     deterministically at batch granularity; resume()/stop() release them.
//
// Results come back as engine::Product values: the output matrix is COPIED
// out of the serving handle (execute_into), so it stays valid after the
// cache evicts or reuses the plan, and concurrent requests for the same
// structure cannot alias each other's output.  Products use the PlusTimes
// semiring; callers needing exotic semirings keep using SpGemmHandle
// directly.
//
// Request inputs are NOT copied: the caller must keep *a and *b alive (and
// structurally unchanged) until the product is delivered.  Producers that
// maintain structure fingerprints incrementally can attach them to the
// request and skip the engine's O(nnz) hashing pass, the same
// ensure_planned_hashed contract as the handle — and the same caveat: a
// wrong fingerprint silently serves a stale plan (debug builds assert).
#pragma once

#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_options.hpp"
#include "core/structure_hash.hpp"
#include "engine/plan_cache.hpp"
#include "matrix/csr.hpp"
#include "model/cost_model.hpp"
#include "model/memory_model.hpp"
#include "parallel/omp_utils.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace spgemm::engine {

namespace detail {
/// Telemetry mirrors of the EngineStats counters, accumulated process-wide
/// across every engine.  The per-engine atomics stay authoritative; these
/// are the scrapeable running totals.
struct EngineTelemetry {
  telemetry::Counter& shed;
  telemetry::Counter& deadline_misses;
  telemetry::Counter& retries;
  telemetry::Counter& degraded_execs;
  telemetry::Counter& lane_execs;
  telemetry::Counter& lane_width_sum;
  telemetry::Counter& lane_busy_us;
  telemetry::Counter& overlay_execs;
  telemetry::Counter& overlay_busy_us;
  telemetry::Counter& pool_steals;
  telemetry::Counter& products;
  telemetry::Histogram& service_seconds;
  static EngineTelemetry& get() {
    auto& reg = telemetry::registry();
    static EngineTelemetry t{
        reg.counter("spgemm_engine_shed_total",
                    "Requests dropped by admission control."),
        reg.counter("spgemm_engine_deadline_misses_total",
                    "Requests failed before running plus late deliveries."),
        reg.counter("spgemm_engine_retries_total",
                    "Memory-pressure ladder retry attempts."),
        reg.counter("spgemm_engine_degraded_execs_total",
                    "Products served by a degraded configuration."),
        reg.counter("spgemm_engine_lane_execs_total",
                    "Large products run on an execution lane."),
        reg.counter("spgemm_engine_lane_width_sum_total",
                    "Sum of chosen lane widths (avg = sum / lane_execs)."),
        reg.counter("spgemm_engine_lane_busy_us_total",
                    "Microseconds the large lanes spent executing."),
        reg.counter("spgemm_engine_overlay_execs_total",
                    "Small products completed while a lane was running."),
        reg.counter("spgemm_engine_overlay_busy_us_total",
                    "Worker-microseconds consumed by overlay products."),
        reg.counter("spgemm_engine_pool_steals_total",
                    "Requests taken from another pool's queue."),
        reg.counter("spgemm_engine_products_total",
                    "Products delivered successfully."),
        reg.histogram("spgemm_engine_service_seconds",
                      "Per-product service time (plan-or-replay + execute + "
                      "copy-out; queue wait excluded).",
                      telemetry::default_seconds_bounds())};
    return t;
  }
};
}  // namespace detail

struct EngineOptions {
  /// Base plan/execute options for every product the engine serves.
  /// `plan.threads` is overridden per size class (lane width for large
  /// products, 1 for packed small ones); set `threads` below to size the
  /// pool itself.
  SpGemmOptions plan;
  /// Worker width across ALL pools; 0 = the OpenMP default.  Resolved once
  /// at construction so size-class decisions stay stable for the engine's
  /// lifetime.
  int threads = 0;
  /// Dispatcher pool count.  0 = auto: the SPGEMM_ENGINE_POOLS environment
  /// variable when set, else the detected NUMA node count
  /// (model::choose_engine_pools); an explicit value here beats both.
  /// Clamped so every pool keeps at least one worker.
  int pools = 0;
  /// Work-conserving lane scheduler: large products fan out on a bounded
  /// lane while queued small products overlay the remaining workers.
  /// false = the original drain-ordered phases (large fan-outs at full
  /// width, then packed smalls) — the tail-latency baseline the
  /// bench_engine_throughput mixed-stream row compares against.
  bool work_conserving = true;
  /// Serve repeated structures from the plan cache.  Off = every request
  /// plans fresh (the baseline bench_engine_throughput compares against).
  bool cache_enabled = true;
  /// Byte budget for retained plans; 0 derives it from `cache_tier` via
  /// model::derive_cache_budget_bytes.
  std::size_t cache_budget_bytes = 0;
  /// The memory tier whose capacity backs the retained plans (used only
  /// when cache_budget_bytes == 0).  Defaults to the KNL DDR model — plans
  /// live in ordinary DRAM; pass a smaller tier to serve from MCDRAM/LLC.
  model::TierParams cache_tier = model::knl_ddr();
  /// Products at or below this many scalar multiplications are packed
  /// whole onto one worker; larger ones fan out across a lane.
  Offset small_flop_cutoff = Offset{1} << 15;
  /// Admission control: maximum submitted-but-undispatched requests PER
  /// POOL.  0 = unbounded.  Over the bound, the lowest-priority request
  /// queued on that pool (or the arrival itself) is shed with kShed.
  std::size_t max_queue = 0;
  /// Admission control by work: maximum total estimated flop one pool's
  /// queue may hold.  0 = unbounded.  A single request larger than the
  /// whole budget is still admitted when that queue is empty — it could
  /// never run otherwise.
  Offset queue_flop_budget = 0;
  /// Trace-span events retained per pool ring (bounded overwrite; one extra
  /// ring serves the synchronous multiply/run_batch paths).  Recording only
  /// happens while telemetry::enabled(); the rings themselves are cheap.
  std::size_t trace_events = 4096;
};

/// Per-tenant attribution: requests carrying a non-negative Request::tenant
/// id are accounted here, so a multi-tenant caller can see who consumed the
/// pool and who was shed — the budget question the aggregate counters
/// cannot answer.
struct TenantEngineStats {
  std::uint64_t shed = 0;             ///< this tenant's shed requests
  std::uint64_t deadline_misses = 0;  ///< failed-before-run plus late
  std::uint64_t products = 0;         ///< products delivered
  Offset flop = 0;                    ///< estimated flop of delivered products
};

/// Resilience + scheduler counters of one engine; engine_stats() snapshots
/// them.
struct EngineStats {
  std::uint64_t shed = 0;  ///< requests dropped by admission control
  /// Deadlines not met: requests failed before running (their future gets
  /// kDeadlineExceeded) plus products delivered after their deadline.
  std::uint64_t deadline_misses = 0;
  std::uint64_t retries = 0;  ///< memory-pressure ladder retry attempts
  /// Products served by a degraded configuration (reuse off, shrunken
  /// budgets, possibly single-threaded).
  std::uint64_t degraded_execs = 0;
  // ---- Work-conserving scheduler ------------------------------------------
  /// Large products run on an execution lane (work_conserving engines).
  std::uint64_t lane_execs = 0;
  /// Sum of the lane widths chosen; avg width = lane_width_sum/lane_execs.
  std::uint64_t lane_width_sum = 0;
  /// Wall-clock the large lane spent executing (the overlay window).
  double lane_busy_ms = 0.0;
  /// Small products completed WHILE a large lane was running.
  std::uint64_t overlay_execs = 0;
  /// Worker-time those overlay products consumed; overlay occupancy =
  /// overlay_busy_ms / lane_busy_ms (average overlay workers kept busy
  /// per lane-second).
  double overlay_busy_ms = 0.0;
  /// Requests taken from another pool's queue by an idle pool.
  std::uint64_t pool_steals = 0;
  /// Attribution by Request::tenant for requests that set one (id >= 0).
  std::map<int, TenantEngineStats> tenants;
};

template <IndexType IT, ValueType VT>
class SpGemmEngine {
 public:
  using Clock = std::chrono::steady_clock;

  /// One product admission.  `a`/`b` must outlive delivery; fingerprints
  /// are optional (structure_fingerprint values, NOT the pair hash).
  struct Request {
    const CsrMatrix<IT, VT>* a = nullptr;
    const CsrMatrix<IT, VT>* b = nullptr;
    std::uint64_t fp_a = 0;
    std::uint64_t fp_b = 0;
    bool has_fingerprints = false;
    /// Absolute deadline; Clock::time_point::max() (the default) = none.
    /// Expired-before-run requests fail with kDeadlineExceeded; late
    /// completions still deliver and count in deadline_misses.
    Clock::time_point deadline = Clock::time_point::max();
    /// Admission-control weight: under backpressure the lowest-priority
    /// queued request is shed first.  Ignored when no bound is configured.
    int priority = 0;
    /// Optional tenant id for per-tenant budget attribution (ids are
    /// caller-assigned).  Negative (the default) = unattributed: the
    /// request only moves the aggregate counters.
    int tenant = -1;
    /// Fused per-row epilogue applied while each output row is cache-hot
    /// (kPruneScale / kMaskReduce; kRap is rejected — it is a triple
    /// product, use multiply_rap()).  The epilogue id is folded into the
    /// plan-cache key, so fused and unfused requests over the same
    /// structure never share a plan.
    EpilogueSpec epilogue;
    /// kMaskReduce operand; must outlive delivery like `a`/`b`.  When the
    /// spec's mask_fp is 0 the engine fingerprints the mask per attempt —
    /// steady-state callers should precompute it.
    const CsrMatrix<IT, VT>* epilogue_mask = nullptr;
    /// Precomputed model::estimate_flop(a, b); 0 = unknown (the engine
    /// derives it).  Lets producers that reuse matrices across many
    /// requests skip the O(nnz(A)) pass on every submit.
    Offset flop_hint = 0;
  };

  /// One delivered product.  `c` is owned by the Product (copied out of
  /// the serving plan) and stays valid independently of the cache.
  struct Product {
    CsrMatrix<IT, VT> c;
    SpGemmStats stats;
    bool cache_hit = false;     ///< served by replaying a retained plan
    bool packed_small = false;  ///< ran whole on a single worker
    /// Ran on the small-product overlay WHILE a large lane was executing
    /// (implies packed_small; only set by work-conserving engines).
    bool overlay = false;
    /// Served by the memory-pressure ladder's degraded configuration
    /// (reuse capture off, memory-model-shrunken budgets, possibly a
    /// single thread).  Bit-identical to the normal result regardless.
    bool degraded = false;
    /// Thread count the product planned/executed with: 1 for packed
    /// smalls, the lane width for larges (full width in drain mode).
    int threads_used = 0;
    Offset flop = 0;  ///< admission-ordering flop count
    /// Service time for batch products; enqueue-to-delivery (queue wait
    /// included) for submitted ones.
    double latency_ms = 0.0;
    /// Scalar outputs of the request's fused epilogue (reduction, column
    /// sums); default-empty when the request carried none.
    EpilogueResult epilogue;
  };

  explicit SpGemmEngine(EngineOptions opts = {})
      : opts_(std::move(opts)),
        pool_threads_(parallel::resolve_threads(opts_.threads)),
        npools_(model::choose_engine_pools(
            opts_.pools > 0
                ? opts_.pools
                : static_cast<int>(env::get_int("SPGEMM_ENGINE_POOLS", 0)),
            pool_threads_)),
        cache_(opts_.cache_budget_bytes > 0
                   ? opts_.cache_budget_bytes
                   : model::derive_cache_budget_bytes(opts_.cache_tier)) {
    // One trace ring per pool dispatcher plus one (index npools_) for the
    // synchronous multiply/run_batch callers.
    trace_.reserve(static_cast<std::size_t>(npools_) + 1);
    for (int p = 0; p <= npools_; ++p) {
      trace_.push_back(
          std::make_unique<telemetry::TraceRing>(opts_.trace_events));
    }
    telemetry::ensure_periodic_exporter();
    pools_.reserve(static_cast<std::size_t>(npools_));
    for (int p = 0; p < npools_; ++p) {
      auto pool = std::make_unique<Pool>();
      pool->index = p;
      // Equal worker split; the first (pool_threads_ % npools_) pools take
      // the remainder so no worker is stranded.
      pool->width = pool_threads_ / npools_ + (p < pool_threads_ % npools_);
      pool->width = std::max(1, pool->width);
      pools_.push_back(std::move(pool));
    }
    for (auto& pool : pools_) {
      pool->worker = std::thread([this, p = pool.get()] { pool_loop(*p); });
    }
  }

  SpGemmEngine(const SpGemmEngine&) = delete;
  SpGemmEngine& operator=(const SpGemmEngine&) = delete;

  /// Drains and delivers every submitted request before returning.
  ~SpGemmEngine() { stop(); }

  /// Drain and deliver everything already queued, then retire the pool
  /// dispatchers.  Idempotent; the destructor calls it.  Later submits
  /// fail with kEngineStopped (their futures, not a throw); the
  /// synchronous paths (multiply / run_batch) keep working — they never
  /// used the dispatchers.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      stopping_ = true;
      paused_ = false;
    }
    queue_cv_.notify_all();
    for (auto& pool : pools_) {
      if (pool->worker.joinable()) pool->worker.join();
    }
    // Flush-on-stop contract of SPGEMM_TELEMETRY_DIR: leave a final metrics
    // snapshot and this engine's trace window behind, even for short-lived
    // processes that never saw a periodic flush.
    if (!telemetry_flushed_.exchange(true, std::memory_order_acq_rel) &&
        !telemetry::export_dir().empty()) {
      telemetry::flush_export_now();  // also creates the directory
      std::ofstream tf(telemetry::export_dir() + "/trace.json",
                       std::ios::trunc);
      if (tf) dump_trace(tf);
    }
  }

  /// Dump this engine's retained trace window (all pool rings plus the
  /// synchronous-caller ring) as Chrome trace_event JSON; load the result in
  /// chrome://tracing or Perfetto.  Thread-safe; typically called after the
  /// workload (or after stop()) so the window is quiescent.
  void dump_trace(std::ostream& os) const {
    std::vector<const telemetry::TraceRing*> rings;
    rings.reserve(trace_.size());
    for (const auto& r : trace_) rings.push_back(r.get());
    telemetry::write_chrome_trace(os, rings);
  }

  /// The trace ring synchronous callers (multiply/run_batch) record into;
  /// the out-of-core shard layer hooks its spill/load events here.
  [[nodiscard]] telemetry::TraceRing* sync_trace_ring() {
    return trace_.back().get();
  }

  /// Hold every pool's dispatcher: submitted requests accumulate — and
  /// admission control sheds against the configured bounds — without being
  /// served.  Lanes already in flight finish their batch; no new lane or
  /// overlay work starts.  Deterministic backpressure for tests and
  /// maintenance windows.
  void pause() {
    std::lock_guard<std::mutex> lk(queue_mu_);
    paused_ = true;
  }

  void resume() {
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      paused_ = false;
    }
    queue_cv_.notify_all();
  }

  /// Enqueue one product for a pool dispatcher; delivery through the
  /// future.  Safe to call from any number of producer threads.
  std::future<Product> submit(const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b) {
    return submit(Request{&a, &b});
  }

  /// submit() for producers that maintain structure fingerprints
  /// incrementally: skips the engine's O(nnz) hashing pass.
  std::future<Product> submit_hashed(const CsrMatrix<IT, VT>& a,
                                     const CsrMatrix<IT, VT>& b,
                                     std::uint64_t fp_a, std::uint64_t fp_b) {
    return submit(Request{&a, &b, fp_a, fp_b, /*has_fingerprints=*/true});
  }

  /// Admission: never throws and never silently drops.  The returned
  /// future resolves to a Product or to a SpGemmError — kEngineStopped
  /// after stop(), kShed when backpressure drops this request.
  std::future<Product> submit(Request req) {
    Pending pending;
    pending.req = req;
    pending.enqueued = Clock::now();
    // Estimated work for the flop-budget bound.  Invalid inputs weigh 0
    // here and fail with kBadInput at admission into the batch.
    if (opts_.queue_flop_budget > 0 && req.a != nullptr && req.b != nullptr &&
        req.a->ncols == req.b->nrows) {
      pending.flop_est = req.flop_hint > 0
                             ? req.flop_hint
                             : model::estimate_flop(*req.a, *req.b);
    }
    std::future<Product> fut = pending.promise.get_future();

    const std::size_t pidx = route_pool(req);
    Pool& pool = *pools_[pidx];
    telemetry::TraceRing* ring = trace_[pidx].get();
    if (telemetry::enabled()) {
      pending.trace_id = telemetry::next_trace_id();
      trace_instant(TraceCtx{ring, pending.trace_id,
                             static_cast<std::uint32_t>(pidx), 0},
                    "admit");
    }
    std::vector<Pending> victims;  // fail their promises outside the lock
    bool shed_incoming = false;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      if (stopping_) {
        pending.promise.set_exception(std::make_exception_ptr(SpGemmError(
            ErrorCode::kEngineStopped,
            "SpGemmEngine::submit: engine is stopped")));
        return fut;
      }
      while (over_bound(pool, pending.flop_est)) {
        const std::size_t victim = pick_victim(pool, req.priority);
        if (victim == kNoVictim) {
          shed_incoming = true;
          break;
        }
        pool.queued_flop -= pool.queue[victim].flop_est;
        victims.push_back(std::move(pool.queue[victim]));
        pool.queue.erase(pool.queue.begin() +
                         static_cast<std::ptrdiff_t>(victim));
      }
      if (!shed_incoming) {
        pool.queued_flop += pending.flop_est;
        pool.queue.push_back(std::move(pending));
      }
    }
    const auto now = Clock::now();
    for (Pending& v : victims) {
      shed_one(std::move(v), now, ring, static_cast<std::uint32_t>(pidx));
    }
    if (shed_incoming) {
      shed_one(std::move(pending), now, ring,
               static_cast<std::uint32_t>(pidx));
      return fut;
    }
    // Wake every dispatcher: the routed pool to serve, idle pools so they
    // can steal if the routed one is already busy.
    queue_cv_.notify_all();
    return fut;
  }

  /// Serve a whole batch on the calling thread: flop-ordered admission,
  /// large products fan out on lanes, small ones pack (overlaying the
  /// lanes when work-conserving).  Results align with `reqs` by index.
  /// The first per-request failure (always a SpGemmError) is rethrown
  /// after the batch completes.
  std::vector<Product> run_batch(std::span<const Request> reqs) {
    const std::size_t n = reqs.size();
    std::vector<Product> products(n);
    std::vector<std::exception_ptr> errors(n);
    process_batch(reqs.data(), n, products.data(), errors.data(),
                  pool_threads_, nullptr, sync_trace_ring(),
                  static_cast<std::uint32_t>(npools_), nullptr);
    for (const std::exception_ptr& err : errors) {
      if (err) std::rethrow_exception(err);
    }
    return products;
  }

  /// One product, synchronously, on the calling thread (still cached and
  /// still size-classed — a one-request batch).
  Product multiply(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b) {
    const Request req{&a, &b};
    Product product;
    std::exception_ptr error;
    process_batch(&req, 1, &product, &error, pool_threads_, nullptr,
                  sync_trace_ring(), static_cast<std::uint32_t>(npools_),
                  nullptr);
    if (error) std::rethrow_exception(error);
    return product;
  }

  /// multiply() with caller-maintained structure fingerprints.
  Product multiply_hashed(const CsrMatrix<IT, VT>& a,
                          const CsrMatrix<IT, VT>& b, std::uint64_t fp_a,
                          std::uint64_t fp_b) {
    const Request req{&a, &b, fp_a, fp_b, /*has_fingerprints=*/true};
    Product product;
    std::exception_ptr error;
    process_batch(&req, 1, &product, &error, pool_threads_, nullptr,
                  sync_trace_ring(), static_cast<std::uint32_t>(npools_),
                  nullptr);
    if (error) std::rethrow_exception(error);
    return product;
  }

  [[nodiscard]] PlanCacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] PlanCache<IT, VT>& cache() { return cache_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  [[nodiscard]] int pool_threads() const { return pool_threads_; }
  /// Resolved dispatcher pool count (>= 1).
  [[nodiscard]] int pools() const { return npools_; }
  /// Worker width of pool `p`.
  [[nodiscard]] int pool_width(int p) const {
    return pools_[static_cast<std::size_t>(p)]->width;
  }
  /// Thread count a large product of `flop` scalar multiplications plans
  /// with on a lane of `width` workers (run_batch/multiply use the full
  /// pool_threads() width; the submit path uses one pool's width).
  /// Deterministic so cached plans revalidate — see choose_lane_width.
  [[nodiscard]] int lane_width_for(Offset flop, int width) const {
    if (!opts_.work_conserving) return width;
    const int cap = std::max(1, width - overlay_reserve(width));
    return std::min(
        model::choose_lane_width(flop, opts_.plan.fast_tier, width,
                                 sizeof(IT)),
        cap);
  }

  [[nodiscard]] EngineStats engine_stats() const {
    EngineStats s;
    s.shed = shed_.load(std::memory_order_relaxed);
    s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.degraded_execs = degraded_execs_.load(std::memory_order_relaxed);
    s.lane_execs = lane_execs_.load(std::memory_order_relaxed);
    s.lane_width_sum = lane_width_sum_.load(std::memory_order_relaxed);
    s.lane_busy_ms =
        static_cast<double>(lane_busy_us_.load(std::memory_order_relaxed)) /
        1000.0;
    s.overlay_execs = overlay_execs_.load(std::memory_order_relaxed);
    s.overlay_busy_ms =
        static_cast<double>(
            overlay_busy_us_.load(std::memory_order_relaxed)) /
        1000.0;
    s.pool_steals = pool_steals_.load(std::memory_order_relaxed);
    // Point-in-time-consistent tenant fold: hold ALL shard locks (acquired
    // in fixed index order — note_tenant only ever takes one, so this
    // cannot deadlock) while folding.  Locking one shard at a time could
    // tear a tenant's (products, flop) pair across two attribution sites
    // running mid-fold; with every shard held, the snapshot is a single
    // consistent cut of the attribution state.
    std::array<std::unique_lock<std::mutex>, kTenantShards> locks;
    for (std::size_t i = 0; i < kTenantShards; ++i) {
      locks[i] = std::unique_lock<std::mutex>(tenant_shards_[i].mu);
    }
    for (const TenantShard& shard : tenant_shards_) {
      for (const auto& [id, t] : shard.stats) {
        TenantEngineStats& agg = s.tenants[id];
        agg.shed += t.shed;
        agg.deadline_misses += t.deadline_misses;
        agg.products += t.products;
        agg.flop += t.flop;
      }
    }
    return s;
  }

 private:
  struct Pending {
    Request req;
    std::promise<Product> promise;
    std::chrono::steady_clock::time_point enqueued;
    Offset flop_est = 0;  ///< admission weight under queue_flop_budget
    /// Per-request trace id (0 while telemetry is disabled): ties the admit
    /// instant, queue span, execution spans and settle event together.
    std::uint64_t trace_id = 0;
  };

  /// Trace destination for one request's execution: which ring, which
  /// (pid, tid) track, which request id.  pid is the pool index (npools_ =
  /// the synchronous-caller ring); tid 0 is the lane/dispatcher track and
  /// 1 + w is overlay/packed worker w — lane and overlay spans land on
  /// distinct tracks by construction.
  struct TraceCtx {
    telemetry::TraceRing* ring = nullptr;
    std::uint64_t id = 0;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
  };

  /// Span start stamp: 0 (skip) unless the ring exists and telemetry is on
  /// — the disabled path costs one relaxed load, no clock read.
  [[nodiscard]] static std::uint64_t trace_now(const TraceCtx& t) noexcept {
    return (t.ring != nullptr && telemetry::enabled()) ? monotonic_ns() : 0;
  }

  static void trace_span(const TraceCtx& t, const char* name,
                         std::uint64_t t0_ns, const char* arg_name = nullptr,
                         std::uint64_t arg = 0) noexcept {
    if (t0_ns == 0 || t.ring == nullptr) return;
    telemetry::TraceEvent e;
    e.name = name;
    e.ph = 'X';
    e.ts_ns = t0_ns;
    e.dur_ns = monotonic_ns() - t0_ns;
    e.pid = t.pid;
    e.tid = t.tid;
    e.trace_id = t.id;
    e.arg_name = arg_name;
    e.arg = arg;
    t.ring->record(e);
  }

  static void trace_instant(const TraceCtx& t, const char* name,
                            const char* cat = "engine") noexcept {
    if (t.ring == nullptr || !telemetry::enabled()) return;
    telemetry::TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'i';
    e.ts_ns = monotonic_ns();
    e.pid = t.pid;
    e.tid = t.tid;
    e.trace_id = t.id;
    t.ring->record(e);
  }

  /// One dispatcher pool.  Queue state (queue, queued_flop, busy) is
  /// guarded by the engine-wide queue_mu_ — queue operations are tiny and
  /// rare next to the products they admit, and one mutex keeps
  /// pause/stop/shed and cross-pool stealing free of lock-order hazards.
  struct Pool {
    int index = 0;               ///< pool id; also the trace ring / pid
    int width = 1;               ///< worker threads of this pool's lanes
    std::vector<Pending> queue;  ///< guarded by queue_mu_
    Offset queued_flop = 0;      ///< guarded by queue_mu_
    bool busy = false;  ///< dispatcher is executing a batch (queue_mu_)
    std::thread worker;
  };

  static constexpr std::size_t kNoVictim =
      std::numeric_limits<std::size_t>::max();
  /// Ladder depth: attempt 0 is the normal config, 1 retries it after a
  /// cache purge, 2 re-plans degraded, 3 adds the single-thread fallback.
  static constexpr int kMaxAttempts = 3;
  static constexpr std::size_t kTenantShards = 16;

  /// Lane-occupancy handshake between the large lane and the overlay: the
  /// lane stores how many workers its current pass occupies, the handle's
  /// ExecutionSchedule increments `exited` as those workers finish their
  /// share (engine-owned sink; zeroed at each pass start).
  struct LaneHooks {
    std::atomic<int>* occupied = nullptr;
    std::atomic<int>* exited = nullptr;
  };

  static bool has_deadline(const Request& r) {
    return r.deadline != Clock::time_point::max();
  }

  /// Workers held back from large lanes for the small-product overlay:
  /// roughly a quarter of the pool, at least one once there are two
  /// workers.  An engine constant (not load-dependent) so lane widths stay
  /// a pure function of flop and configuration.
  static int overlay_reserve(int width) {
    if (width <= 1) return 0;
    return std::max(1, width / 4);
  }

  static std::uint64_t to_us(double ms) {
    return ms > 0.0 ? static_cast<std::uint64_t>(ms * 1000.0) : 0;
  }

  /// Pool affinity for one request.  With caller fingerprints the pair
  /// hash routes directly (the PlanCache key, so repeats stay pool-local).
  /// Without them, an O(1) structural sample stands in: dims, nnz and a
  /// few probed entries — stable across value updates, and a rare
  /// collision merely co-locates two structures on one pool.  Hashing the
  /// full structure here would put an O(nnz) pass on every producer
  /// thread; the batch admission pass keeps doing that in parallel.
  [[nodiscard]] std::size_t route_pool(const Request& r) const {
    if (npools_ <= 1 || r.a == nullptr || r.b == nullptr) return 0;
    std::uint64_t key = 0;
    if (r.has_fingerprints) {
      key = pair_structure_hash(r.fp_a, r.fp_b);
    } else {
      FnvHasher h;
      for (const CsrMatrix<IT, VT>* m : {r.a, r.b}) {
        h.mix(static_cast<std::uint64_t>(m->nrows));
        h.mix(static_cast<std::uint64_t>(m->ncols));
        h.mix(static_cast<std::uint64_t>(m->cols.size()));
        const std::size_t nnz = m->cols.size();
        if (nnz > 0) {
          h.mix(static_cast<std::uint64_t>(m->cols[0]));
          h.mix(static_cast<std::uint64_t>(m->cols[nnz / 2]));
          h.mix(static_cast<std::uint64_t>(m->cols[nnz - 1]));
        }
        const std::size_t nrpts = m->rpts.size();
        if (nrpts > 0) {
          h.mix(static_cast<std::uint64_t>(m->rpts[nrpts / 2]));
        }
      }
      key = h.value();
    }
    // Fold the high bits in so low-entropy keys still spread.
    return static_cast<std::size_t>((key ^ (key >> 32)) %
                                    static_cast<std::uint64_t>(npools_));
  }

  /// Would admitting a request of weight `est` exceed a configured bound
  /// on this pool?  (callers hold queue_mu_)
  bool over_bound(const Pool& pool, Offset est) const {
    if (opts_.max_queue > 0 && pool.queue.size() + 1 > opts_.max_queue) {
      return true;
    }
    return opts_.queue_flop_budget > 0 && !pool.queue.empty() &&
           pool.queued_flop + est > opts_.queue_flop_budget;
  }

  /// Choose what to shed: a queued request already past its deadline (its
  /// work is unsalvageable), else the lowest-priority queued request
  /// strictly below the arrival's priority.  kNoVictim = shed the arrival.
  /// (callers hold queue_mu_)
  std::size_t pick_victim(const Pool& pool, int incoming_priority) const {
    const auto now = Clock::now();
    std::size_t lowest = kNoVictim;
    int lowest_priority = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < pool.queue.size(); ++i) {
      const Request& r = pool.queue[i].req;
      if (has_deadline(r) && now > r.deadline) return i;
      if (r.priority < lowest_priority) {
        lowest_priority = r.priority;
        lowest = i;
      }
    }
    return lowest_priority < incoming_priority ? lowest : kNoVictim;
  }

  /// Per-tenant attribution sink: runs `fn` on the tenant's stats record
  /// when the request names one.  Sharded by the calling thread's id —
  /// attribution sites run on producer threads, pool dispatchers, OpenMP
  /// workers and overlay threads alike, and a single global mutex here
  /// measurably serialized the packed-small phase.  engine_stats() folds
  /// the shards.
  template <class Fn>
  void note_tenant(int tenant, Fn&& fn) {
    if (tenant < 0) return;
    const std::size_t shard =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        (kTenantShards - 1);
    TenantShard& s = tenant_shards_[shard];
    std::lock_guard<std::mutex> lk(s.mu);
    fn(s.stats[tenant]);
  }

  /// Fail one shed request's future: kDeadlineExceeded when its deadline
  /// had already passed (also a deadline miss), kShed otherwise.
  void shed_one(Pending&& p, Clock::time_point now,
                telemetry::TraceRing* ring = nullptr, std::uint32_t pid = 0) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    detail::EngineTelemetry::get().shed.add(1);
    note_tenant(p.req.tenant, [](TenantEngineStats& t) { ++t.shed; });
    if (has_deadline(p.req) && now > p.req.deadline) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      detail::EngineTelemetry::get().deadline_misses.add(1);
      trace_instant(TraceCtx{ring, p.trace_id, pid, 0}, "deadline-shed",
                    "shed");
      note_tenant(p.req.tenant,
                  [](TenantEngineStats& t) { ++t.deadline_misses; });
      p.promise.set_exception(std::make_exception_ptr(SpGemmError(
          ErrorCode::kDeadlineExceeded,
          "SpGemmEngine: shed under backpressure past its deadline")));
    } else {
      trace_instant(TraceCtx{ring, p.trace_id, pid, 0}, "shed", "shed");
      p.promise.set_exception(std::make_exception_ptr(SpGemmError(
          ErrorCode::kShed,
          "SpGemmEngine: shed under backpressure (queue bound or flop "
          "budget exceeded)")));
    }
  }

  /// Lower any exception crossing the engine boundary to a SpGemmError so
  /// futures and batch rethrows always carry a stable ErrorCode.
  static std::exception_ptr classify(std::exception_ptr ep) noexcept {
    try {
      std::rethrow_exception(ep);
    } catch (const SpGemmError&) {
      return ep;
    } catch (const std::bad_alloc&) {
      return std::make_exception_ptr(SpGemmError(
          ErrorCode::kOutOfMemory, "SpGemmEngine: allocation failed"));
    } catch (const std::invalid_argument& e) {
      return std::make_exception_ptr(
          SpGemmError(ErrorCode::kBadInput, e.what()));
    } catch (const std::exception& e) {
      return std::make_exception_ptr(
          SpGemmError(ErrorCode::kInternal, e.what()));
    } catch (...) {
      return std::make_exception_ptr(SpGemmError(
          ErrorCode::kInternal, "SpGemmEngine: unclassified exception"));
    }
  }

  /// Admission + execution for one span of requests on `width` workers.
  /// products/errors are parallel arrays of length n; a request that fails
  /// leaves its product default-constructed and its error set (always a
  /// SpGemmError).  `on_done(i)` — when non-null — fires exactly once per
  /// request as it settles (product complete or error final), from
  /// whichever worker finished it: the streaming-delivery hook that lets
  /// overlay products resolve their futures while a lane is still running.
  void process_batch(const Request* reqs, std::size_t n, Product* products,
                     std::exception_ptr* errors, int width,
                     const std::function<void(std::size_t)>& on_done,
                     telemetry::TraceRing* ring, std::uint32_t pid,
                     const std::uint64_t* trace_ids) {
    if (n == 0) return;
    {
      std::lock_guard<std::mutex> lk(batch_mu_);
      ++inflight_batches_;
    }
    // Per-request trace ids: reuse the ids minted at submit() (so the admit
    // instant and queue span correlate) or mint fresh ones for synchronous
    // batches.  All zeros — and no clock reads downstream — when disabled.
    std::vector<std::uint64_t> tids(n, 0);
    if (ring != nullptr && telemetry::enabled()) {
      for (std::size_t i = 0; i < n; ++i) {
        tids[i] = trace_ids != nullptr && trace_ids[i] != 0
                      ? trace_ids[i]
                      : telemetry::next_trace_id();
      }
    }
    std::vector<std::uint64_t> fp_a(n, 0);
    std::vector<std::uint64_t> fp_b(n, 0);

    // Admission pass: validate, count flop, fingerprint.  All O(nnz) per
    // request and embarrassingly parallel across requests.
#pragma omp parallel for schedule(dynamic) num_threads(width)
    for (std::size_t i = 0; i < n; ++i) {
      const Request& r = reqs[i];
      try {
        if (r.a == nullptr || r.b == nullptr) {
          throw SpGemmError(ErrorCode::kBadInput,
                            "SpGemmEngine: null request input");
        }
        if (r.a->ncols != r.b->nrows) {
          throw SpGemmError(ErrorCode::kBadInput,
                            "SpGemmEngine: inner dimensions disagree");
        }
        if (r.epilogue.kind == EpilogueKind::kRap) {
          throw SpGemmError(ErrorCode::kBadInput,
                            "SpGemmEngine: kRap is a triple product — use "
                            "multiply_rap()");
        }
        if (r.epilogue.kind == EpilogueKind::kMaskReduce &&
            r.epilogue_mask == nullptr) {
          throw SpGemmError(ErrorCode::kBadInput,
                            "SpGemmEngine: kMaskReduce request without a "
                            "mask");
        }
        products[i].flop = r.flop_hint > 0
                               ? r.flop_hint
                               : model::estimate_flop(*r.a, *r.b);
        if (r.has_fingerprints) {
          fp_a[i] = r.fp_a;
          fp_b[i] = r.fp_b;
        } else {
          fp_a[i] = structure_fingerprint(*r.a);
          fp_b[i] = structure_fingerprint(*r.b);
        }
      } catch (...) {
        errors[i] = classify(std::current_exception());
      }
    }

    // Admission order: priority first, then flop, largest first.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       if (reqs[x].priority != reqs[y].priority) {
                         return reqs[x].priority > reqs[y].priority;
                       }
                       return products[x].flop > products[y].flop;
                     });

    std::vector<std::size_t> large;
    std::vector<std::size_t> small;
    std::vector<char> scheduled(n, 0);
    large.reserve(n);
    small.reserve(n);
    bool any_deadline = false;
    for (const std::size_t i : order) {
      if (errors[i]) continue;
      any_deadline = any_deadline || has_deadline(reqs[i]);
      (products[i].flop > opts_.small_flop_cutoff ? large : small)
          .push_back(i);
      scheduled[i] = 1;
    }

    // EDF inside the packed-small phase: deadline-bearing smalls run
    // earliest-deadline-first, ahead of the deadline-free rest (which keep
    // the priority+flop admission order) — flop order was missing
    // avoidable deadlines.
    std::stable_sort(small.begin(), small.end(),
                     [&](std::size_t x, std::size_t y) {
                       const bool dx = has_deadline(reqs[x]);
                       const bool dy = has_deadline(reqs[y]);
                       if (dx != dy) return dx;
                       return dx && reqs[x].deadline < reqs[y].deadline;
                     });

    const auto settle = [&](std::size_t i) {
      trace_instant(TraceCtx{ring, tids[i], pid, 0}, "settle");
      if (on_done) on_done(i);
    };

    // `track` is the trace tid: 1 + worker index for packed smalls, so
    // overlay/packed spans land on per-worker tracks distinct from the
    // lane's track 0.
    const auto run_small_one = [&](std::size_t i, std::uint32_t track) {
      const TraceCtx tc{ring, tids[i], pid, track};
      if (admit_deadline(reqs[i], errors[i], tc)) {
        const std::uint64_t t0 = trace_now(tc);
        run_one(reqs[i], fp_a[i], fp_b[i], /*threads=*/1, products[i],
                errors[i], nullptr, tc);
        trace_span(tc, "small", t0, "flop",
                   static_cast<std::uint64_t>(products[i].flop));
        products[i].packed_small = true;
        finish_deadline(reqs[i], errors[i], tc);
        finish_tenant(reqs[i], products[i], errors[i]);
      }
      settle(i);
    };

    // Large products: one at a time, largest first, each fanning out
    // through its handle's ExecutionSchedule on `lane_width_for(flop)`
    // workers (the full width in drain mode — lane_width_for collapses).
    const auto run_large_one = [&](std::size_t i, const LaneHooks* hooks) {
      const TraceCtx tc{ring, tids[i], pid, 0};
      if (admit_deadline(reqs[i], errors[i], tc)) {
        const int lw = lane_width_for(products[i].flop, width);
        const std::uint64_t t0 = trace_now(tc);
        run_one(reqs[i], fp_a[i], fp_b[i], lw, products[i], errors[i],
                hooks, tc);
        trace_span(tc, hooks != nullptr ? "lane" : "large", t0, "flop",
                   static_cast<std::uint64_t>(products[i].flop));
        if (!errors[i] && hooks != nullptr) {
          lane_execs_.fetch_add(1, std::memory_order_relaxed);
          lane_width_sum_.fetch_add(static_cast<std::uint64_t>(lw),
                                    std::memory_order_relaxed);
          lane_busy_us_.fetch_add(to_us(products[i].latency_ms),
                                  std::memory_order_relaxed);
          auto& telem = detail::EngineTelemetry::get();
          telem.lane_execs.add(1);
          telem.lane_width_sum.add(static_cast<std::uint64_t>(lw));
          telem.lane_busy_us.add(to_us(products[i].latency_ms));
        }
        finish_deadline(reqs[i], errors[i], tc);
        finish_tenant(reqs[i], products[i], errors[i]);
      }
      settle(i);
    };

    const bool lanes = opts_.work_conserving && width > 1 &&
                       !large.empty() && !small.empty();
    if (lanes) {
      // Work-conserving lanes: the calling thread drives the large lane;
      // overlay workers pack smalls onto whatever the lane is not holding
      // RIGHT NOW — width minus (occupied - exited), which grows as lane
      // workers finish their share of a pass and jumps to the full width
      // between lane products.  Overlay worker w only draws work while
      // w < allowed, so lane + overlay never oversubscribe the width.
      std::atomic<std::size_t> small_next{0};
      std::atomic<int> lane_occupied{0};
      std::atomic<int> lane_exited{0};
      LaneHooks hooks{&lane_occupied, &lane_exited};

      const auto overlay_worker = [&](int w) {
        for (;;) {
          if (small_next.load(std::memory_order_relaxed) >= small.size()) {
            break;
          }
          const int held =
              std::max(0, lane_occupied.load(std::memory_order_relaxed) -
                              lane_exited.load(std::memory_order_relaxed));
          if (w >= width - held) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            continue;
          }
          const std::size_t j =
              small_next.fetch_add(1, std::memory_order_relaxed);
          if (j >= small.size()) break;
          const std::size_t i = small[j];
          const bool overlapped = held > 0;
          const TraceCtx tc{ring, tids[i], pid,
                            static_cast<std::uint32_t>(1 + w)};
          if (admit_deadline(reqs[i], errors[i], tc)) {
            const std::uint64_t t0 = trace_now(tc);
            run_one(reqs[i], fp_a[i], fp_b[i], /*threads=*/1, products[i],
                    errors[i], nullptr, tc);
            trace_span(tc, overlapped ? "overlay" : "small", t0, "flop",
                       static_cast<std::uint64_t>(products[i].flop));
            products[i].packed_small = true;
            if (!errors[i] && overlapped) {
              products[i].overlay = true;
              overlay_execs_.fetch_add(1, std::memory_order_relaxed);
              overlay_busy_us_.fetch_add(to_us(products[i].latency_ms),
                                         std::memory_order_relaxed);
              auto& telem = detail::EngineTelemetry::get();
              telem.overlay_execs.add(1);
              telem.overlay_busy_us.add(to_us(products[i].latency_ms));
            }
            finish_deadline(reqs[i], errors[i], tc);
            finish_tenant(reqs[i], products[i], errors[i]);
          }
          settle(i);
        }
      };

      // Pre-charge the occupancy with the first lane's width: overlay
      // workers must gate (and attribute overlap) against the lane from
      // their very first claim, not only after the lane thread has entered
      // the kernel and published its own count.
      lane_occupied.store(lane_width_for(products[large.front()].flop, width),
                          std::memory_order_relaxed);

      std::vector<std::thread> overlay;
      const int n_overlay =
          static_cast<int>(std::min<std::size_t>(
              static_cast<std::size_t>(width), small.size()));
      overlay.reserve(static_cast<std::size_t>(n_overlay));
      for (int w = 0; w < n_overlay; ++w) {
        overlay.emplace_back(overlay_worker, w);
      }
      for (const std::size_t i : large) {
        run_large_one(i, &hooks);
        lane_occupied.store(0, std::memory_order_relaxed);
      }
      for (std::thread& t : overlay) t.join();
    } else {
      // Drain-ordered phases (work_conserving off, or a degenerate batch:
      // one size class only / one worker).  Largest-first keeps the pool
      // busy — UNLESS some request carries a deadline, in which case the
      // cheap packed phase runs first: latency-sensitive small work must
      // not wait out a multi-second fan-out.
      const LaneHooks* hooks = opts_.work_conserving ? &drain_hooks_ : nullptr;
      const auto run_large_phase = [&] {
        for (const std::size_t i : large) run_large_one(i, hooks);
      };
      const auto run_small_phase = [&] {
        if (small.empty()) return;
#pragma omp parallel for schedule(dynamic, 1) num_threads(width)
        for (std::size_t j = 0; j < small.size(); ++j) {
          run_small_one(small[j],
                        static_cast<std::uint32_t>(1 + omp_get_thread_num()));
        }
      };
      if (any_deadline) {
        run_small_phase();
        run_large_phase();
      } else {
        run_large_phase();
        run_small_phase();
      }
    }

    // Requests that never reached a size class (admission-pass failures)
    // still settle exactly once.
    for (std::size_t i = 0; i < n; ++i) {
      if (!scheduled[i]) settle(i);
    }

    {
      // Pin-accounting invariant: once no batch is in flight, every lease
      // has been consumed (released or quarantined), so the cache holds no
      // pins.  The counter and the sample share batch_mu_, making the
      // check exact under concurrent run_batch callers.
      std::lock_guard<std::mutex> lk(batch_mu_);
      --inflight_batches_;
      if (inflight_batches_ == 0) {
        assert(cache_.total_pins() == 0 &&
               "PlanCache pins leaked past a batch");
      }
    }
  }

  /// Deadline gate before running: a request already past its deadline
  /// fails kDeadlineExceeded without burning pool time.
  bool admit_deadline(const Request& r, std::exception_ptr& error,
                      const TraceCtx& tc) {
    if (error) return false;
    if (has_deadline(r) && Clock::now() > r.deadline) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      detail::EngineTelemetry::get().deadline_misses.add(1);
      trace_instant(tc, "deadline", "deadline");
      note_tenant(r.tenant,
                  [](TenantEngineStats& t) { ++t.deadline_misses; });
      error = std::make_exception_ptr(SpGemmError(
          ErrorCode::kDeadlineExceeded,
          "SpGemmEngine: deadline passed before the request could run"));
      return false;
    }
    return true;
  }

  /// Late completion: the product still delivers, the miss is counted.
  void finish_deadline(const Request& r, const std::exception_ptr& error,
                       const TraceCtx& tc) {
    if (!error && has_deadline(r) && Clock::now() > r.deadline) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      detail::EngineTelemetry::get().deadline_misses.add(1);
      trace_instant(tc, "deadline-late", "deadline");
      note_tenant(r.tenant,
                  [](TenantEngineStats& t) { ++t.deadline_misses; });
    }
  }

  /// Successful delivery: charge the product's estimated flop to its tenant.
  void finish_tenant(const Request& r, const Product& p,
                     const std::exception_ptr& error) {
    if (error) return;
    note_tenant(r.tenant, [&](TenantEngineStats& t) {
      ++t.products;
      t.flop += p.flop;
    });
  }

  /// Plan-or-replay one product, walking the memory-pressure ladder on
  /// bad_alloc, and copy the result out.  noexcept boundary: exceptions
  /// land in `error` as SpGemmErrors — never escape into an OpenMP region.
  void run_one(const Request& r, std::uint64_t fp_a, std::uint64_t fp_b,
               int threads, Product& out, std::exception_ptr& error,
               const LaneHooks* hooks, const TraceCtx& tc) noexcept {
    try {
      Timer timer;
      int attempt = 0;
      for (;;) {
        try {
          execute_attempt(r, fp_a, fp_b, threads, attempt, out, hooks, tc);
          break;
        } catch (const std::bad_alloc&) {
          if (attempt >= kMaxAttempts) {
            throw SpGemmError(
                ErrorCode::kOutOfMemory,
                "SpGemmEngine: allocation failed after cache purge, "
                "degraded re-plan and single-thread fallback");
          }
          ++attempt;
          retries_.fetch_add(1, std::memory_order_relaxed);
          detail::EngineTelemetry::get().retries.add(1);
          trace_instant(tc, "retry", "degrade");
          if (attempt == 1) cache_.shrink(0);
        }
      }
      if (attempt >= 2) {
        out.degraded = true;
        degraded_execs_.fetch_add(1, std::memory_order_relaxed);
        detail::EngineTelemetry::get().degraded_execs.add(1);
        trace_instant(tc, "degrade", "degrade");
      }
      out.latency_ms = timer.millis();
      if (telemetry::enabled()) {
        auto& telem = detail::EngineTelemetry::get();
        telem.products.add(1);
        telem.service_seconds.observe(out.latency_ms * 1e-3);
      }
    } catch (const fault::InjectedFault&) {
      trace_instant(tc, "fault", "error");
      error = classify(std::current_exception());
    } catch (...) {
      trace_instant(tc, "error", "error");
      error = classify(std::current_exception());
    }
  }

  /// One rung of the ladder.  Attempts 0/1 run the normal configuration
  /// (1 = after the cache purge); attempt 2 re-plans with reuse capture
  /// off and budgets derived from a quartered memory-model tier; attempt 3
  /// quarters again and falls back to a single thread.  Degraded rungs
  /// bypass the plan cache — a crippled plan cached under the structure's
  /// key would keep being re-served long after the pressure passed.
  void execute_attempt(const Request& r, std::uint64_t fp_a,
                       std::uint64_t fp_b, int threads, int attempt,
                       Product& out, const LaneHooks* hooks,
                       const TraceCtx& tc) {
    SpGemmOptions opts = opts_.plan;
    opts.threads = threads;
    opts.epilogue = r.epilogue;
    if (opts.epilogue.kind == EpilogueKind::kMaskReduce &&
        opts.epilogue.mask_fp == 0 && r.epilogue_mask != nullptr) {
      opts.epilogue.mask_fp = structure_fingerprint(*r.epilogue_mask);
    }
    // Fused plans never share a cache entry with unfused ones over the same
    // structure: the epilogue fingerprint perturbs the pair key.
    const auto epilogue_key = [&](std::uint64_t pair) {
      if (opts.epilogue.enabled()) {
        pair ^= opts.epilogue.fingerprint() * 0x9e3779b97f4a7c15ULL;
      }
      return pair;
    };
    const bool degraded = attempt >= 2;
    if (degraded) {
      opts.reuse = StructureReuse::kOff;
      opts.budget_source = BudgetSource::kMemoryModel;
      opts.fast_tier = model::degraded_tier(opts_.plan.fast_tier, attempt - 1);
      if (attempt >= kMaxAttempts) opts.threads = 1;
    }
    // Publish this attempt's true occupancy (the ladder may have dropped
    // to one thread) before any pass can run.
    if (hooks != nullptr && hooks->occupied != nullptr) {
      hooks->exited->store(0, std::memory_order_relaxed);
      hooks->occupied->store(opts.threads, std::memory_order_relaxed);
    }
    std::atomic<int>* sink = hooks != nullptr ? hooks->exited : nullptr;
    out.cache_hit = false;
    out.threads_used = opts.threads;
    if (!opts_.cache_enabled || degraded) {
      const std::uint64_t pair =
          epilogue_key(pair_structure_hash(fp_a, fp_b));
      SpGemmHandle<IT, VT> handle;
      handle.set_pass_exit_sink(sink);
      handle.set_epilogue_mask(r.epilogue_mask);
      {
        const std::uint64_t t0 = trace_now(tc);
        handle.plan(*r.a, *r.b, opts, nullptr, &pair);
        trace_span(tc, "plan", t0);
      }
      {
        const std::uint64_t t0 = trace_now(tc);
        handle.execute_into(*r.a, *r.b, out.c, PlusTimes{}, &out.stats);
        trace_span(tc, "numeric", t0);
      }
      if (opts.epilogue.enabled()) out.epilogue = handle.epilogue_result();
    } else {
      // Lease RAII: an exception from here on unwinds into a quarantine —
      // the possibly half-built plan leaves the cache and is never served
      // again; only the release() below puts the entry back on the LRU.
      typename PlanCache<IT, VT>::Lease lease =
          cache_.acquire(epilogue_key(pair_structure_hash(fp_a, fp_b)));
      std::size_t bytes = 0;
      {
        std::lock_guard<std::mutex> lk(lease.exec_mutex());
        // Attach (or detach, when this run carries no hooks) the exit
        // sink BEFORE any pass: a cached handle may still point at a dead
        // batch's counter from its previous serving.  Detach again after —
        // the sink's atomics die with this batch, the handle does not.
        // Same discipline for the epilogue mask: it belongs to this
        // request, not to the retained plan.
        lease.handle().set_pass_exit_sink(sink);
        lease.handle().set_epilogue_mask(r.epilogue_mask);
        {
          const std::uint64_t t0 = trace_now(tc);
          out.cache_hit = !lease.handle().ensure_planned_hashed(
              *r.a, *r.b, fp_a, fp_b, opts);
          if (out.cache_hit) {
            trace_instant(tc, "cache-hit", "cache");
          } else {
            trace_span(tc, "plan", t0);
          }
        }
        {
          const std::uint64_t t0 = trace_now(tc);
          lease.handle().execute_into(*r.a, *r.b, out.c, PlusTimes{},
                                      &out.stats);
          trace_span(tc, "numeric", t0);
        }
        if (out.cache_hit) {
          // A replay runs no setup or symbolic phase; the retained handle's
          // plan-time figures belong to the request that planned it.
          out.stats.setup_ms = 0.0;
          out.stats.symbolic_ms = 0.0;
          out.stats.symbolic_probes = 0;
          out.stats.symbolic_keys = 0;
          out.stats.plan_ms = 0.0;
          out.stats.probes = out.stats.numeric_probes;
        }
        if (opts.epilogue.enabled()) {
          out.epilogue = lease.handle().epilogue_result();
        }
        lease.handle().set_pass_exit_sink(nullptr);
        lease.handle().set_epilogue_mask(nullptr);
        bytes = lease.handle().retained_bytes();
      }
      cache_.release(std::move(lease), out.cache_hit, bytes);
    }
  }

  /// Any pool holding queued requests?  (callers hold queue_mu_)
  [[nodiscard]] bool any_backlog() const {
    for (const auto& pool : pools_) {
      if (!pool->queue.empty()) return true;
    }
    return false;
  }

  /// Move the back half of the longest BUSY pool's backlog into `self`
  /// (callers hold queue_mu_, self.queue empty).  Only busy victims: an
  /// idle pool is about to serve its own queue, and stealing from it would
  /// defeat affinity for nothing.
  void try_steal(Pool& self) {
    Pool* victim = nullptr;
    for (const auto& pool : pools_) {
      if (pool.get() == &self || !pool->busy || pool->queue.empty()) {
        continue;
      }
      if (victim == nullptr || pool->queue.size() > victim->queue.size()) {
        victim = pool.get();
      }
    }
    if (victim == nullptr) return;
    const std::size_t take = (victim->queue.size() + 1) / 2;
    const std::size_t keep = victim->queue.size() - take;
    for (std::size_t k = keep; k < victim->queue.size(); ++k) {
      victim->queued_flop -= victim->queue[k].flop_est;
      self.queued_flop += victim->queue[k].flop_est;
      self.queue.push_back(std::move(victim->queue[k]));
    }
    victim->queue.resize(keep);
    pool_steals_.fetch_add(static_cast<std::uint64_t>(take),
                           std::memory_order_relaxed);
    detail::EngineTelemetry::get().pool_steals.add(
        static_cast<std::uint64_t>(take));
  }

  /// One pool's dispatcher: drain whatever has accumulated on this pool
  /// since the last wake-up into one batch — natural batching under load,
  /// immediate service when idle — steal from a busy sibling when this
  /// pool is empty, and deliver each promise AS ITS PRODUCT SETTLES (an
  /// overlay small resolves its future while the lane is still running —
  /// the whole point of work conservation).
  void pool_loop(Pool& self) {
    std::unique_lock<std::mutex> lk(queue_mu_);
    for (;;) {
      queue_cv_.wait(lk, [&] {
        return stopping_ || (!paused_ && any_backlog());
      });
      if (self.queue.empty() && !paused_) try_steal(self);
      if (self.queue.empty()) {
        if (stopping_ && !any_backlog()) return;
        // Backlog belongs to a non-stealable (momentarily idle) sibling;
        // give it a beat to claim its own queue.
        queue_cv_.wait_for(lk, std::chrono::milliseconds(1));
        continue;
      }
      std::vector<Pending> batch = std::move(self.queue);
      self.queue.clear();
      self.queued_flop = 0;
      self.busy = true;
      lk.unlock();

      const std::size_t n = batch.size();
      telemetry::TraceRing* ring =
          trace_[static_cast<std::size_t>(self.index)].get();
      const std::uint32_t pid = static_cast<std::uint32_t>(self.index);
      std::vector<Request> reqs(n);
      std::vector<Product> products(n);
      std::vector<std::exception_ptr> errors(n);
      std::vector<std::uint64_t> ids(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        reqs[i] = batch[i].req;
        ids[i] = batch[i].trace_id;
      }
      if (telemetry::enabled()) {
        // Queue-wait spans: enqueue (submit time) to dispatch, on the
        // pool's lane track so waits sit under the spans they precede.
        const std::uint64_t now_ns = monotonic_ns();
        for (std::size_t i = 0; i < n; ++i) {
          if (ids[i] == 0) continue;
          telemetry::TraceEvent e;
          e.name = "queue";
          e.cat = "queue";
          e.ph = 'X';
          e.ts_ns = to_monotonic_ns(batch[i].enqueued);
          e.dur_ns = now_ns > e.ts_ns ? now_ns - e.ts_ns : 0;
          e.pid = pid;
          e.tid = 0;
          e.trace_id = ids[i];
          ring->record(e);
        }
      }
      process_batch(
          reqs.data(), n, products.data(), errors.data(), self.width,
          [&](std::size_t i) {
            if (errors[i]) {
              batch[i].promise.set_exception(errors[i]);
            } else {
              products[i].latency_ms =
                  ms_between(batch[i].enqueued, Clock::now());
              batch[i].promise.set_value(std::move(products[i]));
            }
          },
          ring, pid, ids.data());

      lk.lock();
      self.busy = false;
    }
  }

  EngineOptions opts_;
  int pool_threads_;
  int npools_;
  PlanCache<IT, VT> cache_;

  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_misses_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> degraded_execs_{0};
  std::atomic<std::uint64_t> lane_execs_{0};
  std::atomic<std::uint64_t> lane_width_sum_{0};
  std::atomic<std::uint64_t> lane_busy_us_{0};
  std::atomic<std::uint64_t> overlay_execs_{0};
  std::atomic<std::uint64_t> overlay_busy_us_{0};
  std::atomic<std::uint64_t> pool_steals_{0};

  /// Occupancy sink for drain-mode large runs in a work-conserving engine
  /// (no overlay listens, but execute_attempt still publishes) — keeps the
  /// hooks-vs-no-hooks distinction meaning "lanes stats" only.
  std::atomic<int> drain_occupied_{0};
  std::atomic<int> drain_exited_{0};
  LaneHooks drain_hooks_{&drain_occupied_, &drain_exited_};

  struct TenantShard {
    mutable std::mutex mu;
    std::map<int, TenantEngineStats> stats;  ///< guarded by mu
  };
  std::array<TenantShard, kTenantShards> tenant_shards_;

  std::mutex batch_mu_;
  int inflight_batches_ = 0;  ///< guarded by batch_mu_

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  bool stopping_ = false;  ///< guarded by queue_mu_
  bool paused_ = false;    ///< guarded by queue_mu_

  /// Bounded trace windows: one ring per pool dispatcher plus a trailing
  /// ring (index npools_) for the synchronous callers.  Declared before
  /// pools_ so the rings outlive the worker threads recording into them.
  std::vector<std::unique_ptr<telemetry::TraceRing>> trace_;
  /// stop() flushes SPGEMM_TELEMETRY_DIR exactly once (idempotent stop).
  std::atomic<bool> telemetry_flushed_{false};

  /// Last member: pool worker threads join (via stop()) before the rest
  /// of the engine dies.
  std::vector<std::unique_ptr<Pool>> pools_;
};

}  // namespace spgemm::engine
