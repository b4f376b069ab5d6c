// SpGemmEngine — a concurrent SpGEMM serving layer: fingerprint-keyed plan
// cache + one lane scheduler behind one submit dispatcher.
//
// PR 2/3 built the per-product machinery (SpGemmHandle, structure
// fingerprints, the shared ExecutionSchedule); this engine is the layer
// that turns those kernels into a serving system.  Callers hand it
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
//     count (model::estimate_flop, O(nnz(A)) per request) so the workers
//     never idle behind one giant product:
//       - LARGE products (flop > model::kLaneMinFlopPerWorker) run
//         one at a time, largest first, on the calling thread (the
//         dispatcher, or a run_batch/multiply caller), each fanning out
//         through its handle's ExecutionSchedule on an EXECUTION LANE — a
//         bounded seat count whose width model::choose_lane_width derives
//         from the product's flop and the memory model's per-thread
//         budgets;
//       - SMALL products are packed whole onto single seats (each
//         planning/executing with threads = 1) — so a thousand tiny
//         products cost a thousand single-threaded multiplies, not a
//         thousand barriers.  Deadline-bearing smalls run earliest-
//         deadline-first; the rest keep largest-first flop order.
//     ONE SCHEDULER: parked helper threads (the dispatcher's set, started
//     on first need; one more set for the synchronous callers) and then the
//     calling thread itself, once its larges are done, pack the smalls
//     onto the seats the lane does not hold right now.  A lane pass counts
//     its held seats in an engine-owned seat sink (ExecutionSchedule's
//     worker_done() gives each back as that worker's share ends), and a
//     helper without a seat blocks on that count.  The same helpers split
//     an admission pass that carries enough hashing work.
//     WORK CONSERVATION (EngineOptions::work_conserving, default on) is a
//     setting of that scheduler: on, the lane leaves seats free and the
//     smalls OVERLAY it; off, the lane takes every seat and attaches no
//     sink, so the smalls wait for it — the drain-ordered baseline of the
//     bench.
//     A structure's size class AND lane width are functions of its flop
//     estimate and the engine's configuration, so the same structure
//     always replans with the same thread count on every path (submit,
//     run_batch, multiply) and its cached plan stays valid across batches.
//
//   * serves submit() through ONE dispatcher thread over one queue: it
//     drains whatever has accumulated since its last wake-up into one
//     batch and schedules it across all EngineOptions::threads workers.
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
//     a large fan-out instead of queueing behind it; a batch whose lane
//     leaves no seat free (drain mode, a one-worker engine) runs its smalls
//     first whenever any request in the batch carries a deadline;
//   * admission control: EngineOptions::max_queue bounds the submit queue
//     by count and queue_flop_budget bounds it by estimated work.  Over
//     either bound, the lowest-priority queued request is shed — its
//     future fails with kShed (past-deadline victims fail
//     kDeadlineExceeded) — and an arrival that cannot displace anything is
//     shed itself.  Nothing is ever silently dropped: every
//     accepted future resolves;
//   * graceful degradation: a std::bad_alloc during plan/execute walks a
//     bounded retry ladder — (1) evict every cold plan from the cache and
//     retry, (2) re-plan with reuse capture off, so the plan keeps no slot
//     streams, (3) the same on a single thread — before giving up with
//     kOutOfMemory.  Degraded runs bypass the plan cache (a crippled plan
//     must not be re-served after the pressure passes) and are counted in
//     degraded_execs;
//   * a plan whose plan/execute throws is QUARANTINED: the PlanCache lease
//     unwinds into an eviction, the possibly half-built plan is never
//     served again, and pin accounting stays exact (debug builds assert
//     pins return to zero after every batch);
//   * pause() freezes the dispatcher — and therefore every submitted lane —
//     deterministically at batch granularity; resume()/stop() release it.
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

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <ostream>
#include <span>
#include <thread>
#include <utility>
#include <vector>

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
        reg.counter("spgemm_engine_products_total",
                    "Products delivered successfully."),
        reg.histogram("spgemm_engine_service_seconds",
                      "Per-product service time (plan-or-replay + execute + "
                      "copy-out; queue wait excluded).",
                      telemetry::default_seconds_bounds())};
    return t;
  }
};

/// Parked helper threads: the extra seats the dispatcher (or a synchronous
/// caller) packs small products and splits admission passes onto.  They
/// start on first need and park on a condition variable between batches.
class Helpers {
 public:
  Helpers() = default;
  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;
  ~Helpers() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Run job() on k helpers and, after first(), on the calling thread.
  /// Returns once all k + 1 runs are done, then rethrows the first
  /// exception any of them threw.
  template <class Job, class First>
  void run(std::size_t k, const Job& job, First&& first) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      while (threads_.size() < k) {
        threads_.emplace_back([this, index = threads_.size()] { park(index); });
      }
      run_ = [](const void* j) { (*static_cast<const Job*>(j))(); };
      job_ = &job;
      want_ = k;
      busy_ = k;
      error_ = nullptr;
      ++round_;
    }
    wake_.notify_all();
    std::exception_ptr error;
    try {
      first();
      job();
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [&] { return busy_ == 0; });
    if (!error) error = error_;
    if (error) std::rethrow_exception(error);
  }

 private:
  void park(std::size_t index) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      wake_.wait(lk, [&] {
        return stopping_ || (round_ != seen && index < want_);
      });
      if (stopping_) return;
      seen = round_;
      lk.unlock();
      std::exception_ptr error;
      try {
        run_(job_);
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      if (error && !error_) error_ = error;
      if (--busy_ == 0) done_.notify_all();
    }
  }

  std::mutex mu_;  ///< guards everything below
  std::condition_variable wake_;
  std::condition_variable done_;
  void (*run_)(const void*) = nullptr;  ///< calls the round's job
  const void* job_ = nullptr;
  std::size_t want_ = 0;  ///< helpers the current round runs on
  std::size_t busy_ = 0;  ///< of those, still running the job
  std::exception_ptr error_;  ///< first exception a helper threw
  std::uint64_t round_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};
}  // namespace detail

struct EngineOptions {
  /// Base plan/execute options for every product the engine serves.
  /// `plan.threads` is overridden per size class (lane width for large
  /// products, 1 for packed small ones); set `threads` below to size the
  /// engine itself.
  SpGemmOptions plan;
  /// Worker width of every batch: the seats the dispatcher, or a
  /// run_batch/multiply caller, splits between a lane and its helpers;
  /// 0 = the OpenMP default.  Resolved once at construction so size-class
  /// decisions stay stable for the engine's lifetime.
  int threads = 0;
  /// Dispatcher count: 0 or 1, both meaning the engine's one dispatcher.
  /// Any other value is rejected with kBadInput.
  int pools = 0;
  /// Work-conserving lanes: large products fan out on a bounded lane while
  /// queued small products overlay the remaining seats.  false = the
  /// drain-ordered setting of the same scheduler: the lane takes every
  /// seat and keeps it until the batch's larges are done, so the smalls run
  /// after them (before them when a request carries a deadline) — the
  /// tail-latency baseline the bench_engine_throughput mixed-stream row
  /// compares against.
  bool work_conserving = true;
  /// Serve repeated structures from the plan cache.  Off = every request
  /// plans fresh (the baseline bench_engine_throughput compares against).
  bool cache_enabled = true;
  /// Byte budget for retained plans; 0 derives it from the KNL DDR model
  /// (plans live in ordinary DRAM) via model::derive_cache_budget_bytes.
  std::size_t cache_budget_bytes = 0;
  /// Admission control: maximum submitted-but-undispatched requests in the
  /// submit queue.  0 = unbounded.  Over the bound, the lowest-priority
  /// queued request (or the arrival itself) is shed with kShed.
  std::size_t max_queue = 0;
  /// Admission control by work: maximum total estimated flop the submit
  /// queue may hold.  0 = unbounded.  A single request larger than the
  /// whole budget is still admitted when the queue is empty — it could
  /// never run otherwise.
  Offset queue_flop_budget = 0;
};

/// Resilience + scheduler counters of one engine; engine_stats() snapshots
/// them.
struct EngineStats {
  std::uint64_t shed = 0;  ///< requests dropped by admission control
  /// Deadlines not met: requests failed before running (their future gets
  /// kDeadlineExceeded) plus products delivered after their deadline.
  std::uint64_t deadline_misses = 0;
  std::uint64_t retries = 0;  ///< memory-pressure ladder retry attempts
  /// Products served by a degraded configuration (capture off, possibly
  /// single-threaded).
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
    /// Fused per-row epilogue applied while each output row is cache-hot
    /// (kPruneScale; triple products go through multiply_rap()).  The
    /// epilogue id is folded into the plan-cache key, so fused and unfused
    /// requests over the same structure never share a plan.
    EpilogueSpec epilogue;
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
    /// (reuse capture off at rung 2, and one thread at rung 3).
    /// Bit-identical to the normal result regardless.
    bool degraded = false;
    /// Thread count the product planned/executed with: 1 for packed
    /// smalls, the lane width for larges (full width in drain mode).
    int threads_used = 0;
    Offset flop = 0;  ///< admission-ordering flop count
    /// Service time for batch products; enqueue-to-delivery (queue wait
    /// included) for submitted ones.
    double latency_ms = 0.0;
  };

  /// Throws SpGemmError(kBadInput) when `opts.pools` is neither 0 nor 1.
  explicit SpGemmEngine(EngineOptions opts = {})
      : opts_(std::move(opts)),
        pool_threads_(parallel::resolve_threads(opts_.threads)),
        cache_(opts_.cache_budget_bytes > 0
                   ? opts_.cache_budget_bytes
                   : model::derive_cache_budget_bytes(model::knl_ddr())),
        dispatch_trace_(kTraceEvents),
        sync_trace_(kTraceEvents) {
    if (opts_.pools != 0 && opts_.pools != 1) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmEngine: EngineOptions::pools must be 0 or 1 "
                        "(the engine has one dispatcher)");
    }
    telemetry::ensure_periodic_exporter();
    dispatcher_ = std::thread([this] { dispatch_loop(); });
  }

  SpGemmEngine(const SpGemmEngine&) = delete;
  SpGemmEngine& operator=(const SpGemmEngine&) = delete;

  /// Drains and delivers every submitted request before returning.
  ~SpGemmEngine() { stop(); }

  /// Drain and deliver everything already queued, then retire the
  /// dispatcher.  Idempotent; the destructor calls it.  Later submits fail
  /// with kEngineStopped (their futures, not a throw); the synchronous
  /// paths (multiply / run_batch) keep working — they never used the
  /// dispatcher.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      stopping_ = true;
      paused_ = false;
    }
    queue_cv_.notify_all();
    if (dispatcher_.joinable()) dispatcher_.join();
    // Flush-on-stop contract of SPGEMM_TELEMETRY_DIR: leave a final metrics
    // snapshot and this engine's trace window behind, even for short-lived
    // processes that never saw a periodic flush.
    if (!telemetry_flushed_.exchange(true, std::memory_order_acq_rel) &&
        !telemetry::export_dir().empty()) {
      telemetry::flush_export_now();
      telemetry::write_export_file(
          "trace.json", [this](std::ostream& os) { dump_trace(os); });
    }
  }

  /// Dump this engine's retained trace window (the dispatcher's ring plus
  /// the synchronous-caller ring) as Chrome trace_event JSON; load the
  /// result in chrome://tracing or Perfetto.  Thread-safe; typically called
  /// after the workload (or after stop()) so the window is quiescent.
  void dump_trace(std::ostream& os) const {
    telemetry::write_chrome_trace(os, {&dispatch_trace_, &sync_trace_});
  }

  /// Trace pid of the synchronous callers' events; the dispatcher's is 0.
  static constexpr std::uint32_t kSyncTracePid = 1;

  /// The trace ring synchronous callers (multiply/run_batch) record into,
  /// under pid kSyncTracePid; the out-of-core shard layer hooks its
  /// spill/load events here.
  [[nodiscard]] telemetry::TraceRing* sync_trace_ring() { return &sync_trace_; }

  /// Hold the dispatcher: submitted requests accumulate — and
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

  /// Enqueue one product for the dispatcher; delivery through the
  /// future.  Safe to call from any number of producer threads.
  std::future<Product> submit(const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b) {
    return submit(Request{&a, &b});
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

    if (telemetry::enabled()) {
      pending.trace_id = telemetry::next_trace_id();
      trace_instant(TraceCtx{&dispatch_trace_, pending.trace_id, 0, 0},
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
      while (over_bound(pending.flop_est)) {
        const std::size_t victim = pick_victim(req.priority);
        if (victim == kNoVictim) {
          shed_incoming = true;
          break;
        }
        queued_flop_ -= queue_[victim].flop_est;
        victims.push_back(std::move(queue_[victim]));
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      if (!shed_incoming) {
        queued_flop_ += pending.flop_est;
        queue_.push_back(std::move(pending));
      }
    }
    const auto now = Clock::now();
    for (Pending& v : victims) shed_one(std::move(v), now);
    if (shed_incoming) {
      shed_one(std::move(pending), now);
      return fut;
    }
    queue_cv_.notify_one();
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
    process_batch(reqs.data(), n, products.data(), errors.data(), nullptr,
                  &sync_trace_, kSyncTracePid, nullptr, nullptr);
    for (const std::exception_ptr& err : errors) {
      if (err) std::rethrow_exception(err);
    }
    return products;
  }

  /// One product, synchronously, on the calling thread (still cached and
  /// still size-classed — a one-request batch).
  Product multiply(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b) {
    const Request req{&a, &b};
    return std::move(run_batch({&req, 1})[0]);
  }

  /// multiply() with caller-maintained structure fingerprints.
  Product multiply_hashed(const CsrMatrix<IT, VT>& a,
                          const CsrMatrix<IT, VT>& b, std::uint64_t fp_a,
                          std::uint64_t fp_b) {
    const Request req{&a, &b, fp_a, fp_b, /*has_fingerprints=*/true};
    return std::move(run_batch({&req, 1})[0]);
  }

  [[nodiscard]] PlanCacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] PlanCache<IT, VT>& cache() { return cache_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  /// Worker width every batch schedules on: EngineOptions::threads,
  /// resolved at construction.
  [[nodiscard]] int pool_threads() const { return pool_threads_; }
  /// Thread count a large product of `flop` scalar multiplications plans
  /// with, on every path (submit, run_batch, multiply).  Deterministic so
  /// cached plans revalidate — see choose_lane_width.
  [[nodiscard]] int lane_width_for(Offset flop) const {
    const int width = pool_threads_;
    if (!opts_.work_conserving) return width;
    const int cap = std::max(1, width - overlay_reserve(width));
    return std::min(
        model::choose_lane_width(flop, model::host_fast_tier(), width,
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
  /// (pid, tid) track, which request id.  pid is 0 on the dispatcher's
  /// ring and kSyncTracePid on the synchronous callers'; tid 0 is the lane
  /// track and 1 + r is the small packer of arrival rank r — lane and
  /// overlay spans land on distinct tracks by construction.
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

  static constexpr std::size_t kNoVictim =
      std::numeric_limits<std::size_t>::max();
  /// Ladder depth: attempt 0 is the normal config, 1 retries it after a
  /// cache purge, 2 re-plans degraded, 3 adds the single-thread fallback.
  static constexpr int kMaxAttempts = 3;
  /// Stored entries the admission pass must hash outside a batch's largest
  /// request before a second admission thread is worth waking: ~0.1 ms of
  /// fingerprinting at ~1-2 ns per entry.
  static constexpr std::size_t kAdmissionSplitNnz = std::size_t{1} << 16;
  /// Span events each trace ring retains (bounded overwrite).  Recording
  /// only happens while telemetry::enabled(); the rings themselves are
  /// cheap.
  static constexpr std::size_t kTraceEvents = 4096;

  /// Entries the admission pass hashes outside the batch's largest request
  /// (the share a second admission thread could take off the first).
  static std::size_t admission_spare_nnz(const Request* reqs, std::size_t n) {
    std::size_t total = 0;
    std::size_t largest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (reqs[i].a == nullptr || reqs[i].b == nullptr) continue;
      const auto entries =
          static_cast<std::size_t>(reqs[i].a->nnz() + reqs[i].b->nnz());
      total += entries;
      largest = std::max(largest, entries);
    }
    return total - largest;
  }

  static bool has_deadline(const Request& r) {
    return r.deadline != Clock::time_point::max();
  }

  /// Workers held back from large lanes for the small-product overlay:
  /// roughly a quarter of the width, at least one once there are two
  /// workers.  An engine constant (not load-dependent) so lane widths stay
  /// a pure function of flop and configuration.
  static int overlay_reserve(int width) {
    if (width <= 1) return 0;
    return std::max(1, width / 4);
  }

  static std::uint64_t to_us(double ms) {
    return ms > 0.0 ? static_cast<std::uint64_t>(ms * 1000.0) : 0;
  }

  /// Would admitting a request of weight `est` exceed a configured bound
  /// on the submit queue?  (callers hold queue_mu_)
  bool over_bound(Offset est) const {
    if (opts_.max_queue > 0 && queue_.size() + 1 > opts_.max_queue) {
      return true;
    }
    return opts_.queue_flop_budget > 0 && !queue_.empty() &&
           queued_flop_ + est > opts_.queue_flop_budget;
  }

  /// Choose what to shed: a queued request already past its deadline (its
  /// work is unsalvageable), else the lowest-priority queued request
  /// strictly below the arrival's priority.  kNoVictim = shed the arrival.
  /// (callers hold queue_mu_)
  std::size_t pick_victim(int incoming_priority) const {
    const auto now = Clock::now();
    std::size_t lowest = kNoVictim;
    int lowest_priority = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Request& r = queue_[i].req;
      if (has_deadline(r) && now > r.deadline) return i;
      if (r.priority < lowest_priority) {
        lowest_priority = r.priority;
        lowest = i;
      }
    }
    return lowest_priority < incoming_priority ? lowest : kNoVictim;
  }

  /// Fail one shed request's future: kDeadlineExceeded when its deadline
  /// had already passed (also a deadline miss), kShed otherwise.
  void shed_one(Pending&& p, Clock::time_point now) {
    const TraceCtx tc{&dispatch_trace_, p.trace_id, 0, 0};
    shed_.fetch_add(1, std::memory_order_relaxed);
    detail::EngineTelemetry::get().shed.add(1);
    if (has_deadline(p.req) && now > p.req.deadline) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      detail::EngineTelemetry::get().deadline_misses.add(1);
      trace_instant(tc, "deadline-shed", "shed");
      p.promise.set_exception(std::make_exception_ptr(SpGemmError(
          ErrorCode::kDeadlineExceeded,
          "SpGemmEngine: shed under backpressure past its deadline")));
    } else {
      trace_instant(tc, "shed", "shed");
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

  /// Admission + execution for one span of requests on pool_threads()
  /// seats.  products/errors are parallel arrays of length n; a request
  /// that fails leaves its product default-constructed and its error set
  /// (always a SpGemmError).  `on_done(i)` — when non-null — fires exactly
  /// once per request as it settles (product complete or error final),
  /// from whichever thread finished it: the streaming-delivery hook that
  /// lets overlay products resolve their futures while a lane is still
  /// running.
  /// `helpers` is the dispatcher's helper set; the synchronous callers
  /// pass nullptr and borrow the engine's set, or start a private one for
  /// this call while another synchronous caller holds it.
  void process_batch(const Request* reqs, std::size_t n, Product* products,
                     std::exception_ptr* errors,
                     const std::function<void(std::size_t)>& on_done,
                     telemetry::TraceRing* ring, std::uint32_t pid,
                     const std::uint64_t* trace_ids,
                     detail::Helpers* helpers) {
    if (n == 0) return;
    const int width = pool_threads_;
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

    std::unique_lock<std::mutex> sync_lock;
    std::optional<detail::Helpers> own_helpers;
    // Run `job` on the calling thread (after `first`) and on k helpers,
    // returning once every run has finished.  The helper set is acquired
    // on first need.
    const auto share = [&](std::size_t k, const auto& job, auto&& first) {
      if (k == 0) {
        first();
        job();
        return;
      }
      if (helpers == nullptr) {
        sync_lock = std::unique_lock<std::mutex>(sync_helpers_mu_,
                                                 std::try_to_lock);
        helpers = sync_lock.owns_lock() ? &sync_helpers_
                                        : &own_helpers.emplace();
      }
      helpers->run(k, job, first);
    };

    // Admission pass: validate, count flop, fingerprint.  All O(nnz) per
    // request and independent across requests — but helpers only join when
    // the requests beyond the largest one carry real work.  Otherwise one
    // thread hashes the batch in about the time the largest request alone
    // takes, and a helper's wake-up under CPU contention would stall every
    // product of the batch.
    std::atomic<std::size_t> next_admit{0};
    const auto admit_all = [&] {
      for (std::size_t i = next_admit.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next_admit.fetch_add(1, std::memory_order_relaxed)) {
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
          products[i].flop = r.flop_hint > 0
                                 ? r.flop_hint
                                 : model::estimate_flop(*r.a, *r.b);
          if (r.has_fingerprints) {
            fp_a[i] = r.fp_a;
            fp_b[i] = r.fp_b;
          } else {
            // A*A hashes its one operand once: every product of the batch
            // waits for the admission pass.
            fp_a[i] = structure_fingerprint(*r.a);
            fp_b[i] = r.b == r.a ? fp_a[i] : structure_fingerprint(*r.b);
          }
        } catch (...) {
          errors[i] = classify(std::current_exception());
        }
      }
    };
    share(admission_spare_nnz(reqs, n) >= kAdmissionSplitNnz
              ? std::min(static_cast<std::size_t>(width), n) - 1
              : 0,
          admit_all, [] {});

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
      (products[i].flop > model::kLaneMinFlopPerWorker ? large : small)
          .push_back(i);
      scheduled[i] = 1;
    }

    // EDF among the smalls: deadline-bearing smalls run
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

    // Serve request i on `threads` seats and trace track `track` (0 is the
    // lane's): deadline gate, plan-or-replay, its span, `account` (only on
    // success), deadline accounting, then settle.
    const auto serve = [&](std::size_t i, int threads,
                           std::atomic<int>* sink, std::uint32_t track,
                           const char* span, auto&& account) {
      const TraceCtx tc{ring, tids[i], pid, track};
      if (admit_deadline(reqs[i], errors[i], tc)) {
        const std::uint64_t t0 = trace_now(tc);
        run_one(reqs[i], fp_a[i], fp_b[i], threads, products[i], errors[i],
                sink, tc);
        trace_span(tc, span, t0, "flop",
                   static_cast<std::uint64_t>(products[i].flop));
        if (!errors[i]) account();
        finish_deadline(reqs[i], errors[i], tc);
      }
      settle(i);
    };

    // Seats the running lane holds; the smalls pack onto the other
    // width - seats.  A lane whose width leaves no seat free (drain mode,
    // a one-worker engine) runs after the smalls when any request carries a
    // deadline: latency-sensitive small work must not wait out a
    // multi-second fan-out.  Otherwise the lane holds its seats from the
    // start, so the helpers gate on it from their very first claim.
    const int first_lane =
        large.empty() ? 0 : lane_width_for(products[large.front()].flop);
    const bool smalls_first = any_deadline && first_lane >= width;
    std::atomic<int> seats{smalls_first ? 0 : first_lane};

    // Large products: one at a time, largest first, each fanning out
    // through its handle's ExecutionSchedule on `lane_width_for(flop)`
    // seats.  A work-conserving lane attaches `seats` as its passes' seat
    // sink, so the count drops as lane workers drain; a drain-mode lane
    // (lane_width_for gives it every seat) attaches none and keeps every
    // seat until its last large is done.  Lane stats and the "lane" span
    // name go with the sink.
    const bool lanes = opts_.work_conserving;
    const auto run_larges = [&] {
      for (const std::size_t i : large) {
        const int lw = lane_width_for(products[i].flop);
        serve(i, lw, lanes ? &seats : nullptr, 0, lanes ? "lane" : "large",
              [&] {
                if (!lanes) return;
                const std::uint64_t us = to_us(products[i].latency_ms);
                lane_execs_.fetch_add(1, std::memory_order_relaxed);
                lane_width_sum_.fetch_add(static_cast<std::uint64_t>(lw),
                                          std::memory_order_relaxed);
                lane_busy_us_.fetch_add(us, std::memory_order_relaxed);
                auto& telem = detail::EngineTelemetry::get();
                telem.lane_execs.add(1);
                telem.lane_width_sum.add(static_cast<std::uint64_t>(lw));
                telem.lane_busy_us.add(us);
              });
      }
      seats.store(0, std::memory_order_relaxed);
      seats.notify_all();
    };

    // One small packer: the calling thread once its larges are done, and
    // min(width - 1, smalls) helpers, so every small can take a seat the
    // lane leaves free.  Packers rank themselves by arrival, and rank r
    // only claims a small while r < width - seats, so lane and packers
    // never oversubscribe the width and a helper that starts late never
    // holds the smalls back.  A packer without a seat blocks on the seat
    // count until the lane gives one back.  Track 1 + rank puts packed
    // spans beside the lane's track 0.
    std::atomic<std::size_t> next_small{0};
    std::atomic<int> arrivals{0};
    const auto pack = [&] {
      const int rank = arrivals.fetch_add(1, std::memory_order_relaxed);
      while (next_small.load(std::memory_order_relaxed) < small.size()) {
        const int held = seats.load(std::memory_order_relaxed);
        if (rank >= width - held) {
          seats.wait(held, std::memory_order_relaxed);
          continue;
        }
        const std::size_t j =
            next_small.fetch_add(1, std::memory_order_relaxed);
        if (j >= small.size()) break;
        const std::size_t i = small[j];
        const bool overlapped = held > 0;
        products[i].packed_small = true;
        serve(i, 1, nullptr, static_cast<std::uint32_t>(1 + rank),
              overlapped ? "overlay" : "small", [&] {
                if (!overlapped) return;
                const std::uint64_t us = to_us(products[i].latency_ms);
                products[i].overlay = true;
                overlay_execs_.fetch_add(1, std::memory_order_relaxed);
                overlay_busy_us_.fetch_add(us, std::memory_order_relaxed);
                auto& telem = detail::EngineTelemetry::get();
                telem.overlay_execs.add(1);
                telem.overlay_busy_us.add(us);
              });
      }
    };

    share(std::min(static_cast<std::size_t>(width) - 1, small.size()), pack,
          [&] {
            if (!smalls_first) run_larges();
          });
    if (smalls_first) run_larges();

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
  /// fails kDeadlineExceeded without burning worker time.
  bool admit_deadline(const Request& r, std::exception_ptr& error,
                      const TraceCtx& tc) {
    if (error) return false;
    if (has_deadline(r) && Clock::now() > r.deadline) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      detail::EngineTelemetry::get().deadline_misses.add(1);
      trace_instant(tc, "deadline", "deadline");
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
    }
  }

  /// Plan-or-replay one product, walking the memory-pressure ladder on
  /// bad_alloc, and copy the result out.  noexcept boundary: exceptions
  /// land in `error` as SpGemmErrors — never escape into a helper thread.
  /// `seats` (lanes only) is the seat sink the product's passes count
  /// their held seats in.
  void run_one(const Request& r, std::uint64_t fp_a, std::uint64_t fp_b,
               int threads, Product& out, std::exception_ptr& error,
               std::atomic<int>* seats, const TraceCtx& tc) noexcept {
    try {
      Timer timer;
      int attempt = 0;
      for (;;) {
        try {
          execute_attempt(r, fp_a, fp_b, threads, attempt, out, seats, tc);
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
  /// off, so the plan keeps no slot streams; attempt 3 also falls back to a
  /// single thread.  Degraded rungs bypass the plan cache — a crippled plan
  /// cached under the structure's key would keep being re-served long
  /// after the pressure passed.
  void execute_attempt(const Request& r, std::uint64_t fp_a,
                       std::uint64_t fp_b, int threads, int attempt,
                       Product& out, std::atomic<int>* seats,
                       const TraceCtx& tc) {
    SpGemmOptions opts = opts_.plan;
    opts.threads = threads;
    opts.epilogue = r.epilogue;
    const bool degraded = attempt >= 2;
    if (degraded) {
      opts.reuse = StructureReuse::kOff;
      if (attempt >= kMaxAttempts) opts.threads = 1;
    }
    // Publish this attempt's true seat count (the ladder may have dropped
    // to one thread) before any pass can run.
    if (seats != nullptr) {
      seats->store(opts.threads, std::memory_order_relaxed);
      seats->notify_all();
    }
    out.cache_hit = false;
    out.threads_used = opts.threads;
    // Plan (or adopt the retained plan) and execute on `handle`: a leased
    // cache entry, or a local handle that plans every time.  Attach (or
    // detach, when this run carries no sink) the seat sink BEFORE any pass:
    // a cached handle may still point at a dead batch's counter from its
    // previous serving.  Detach again after — the sink dies with this
    // batch, the handle does not.
    const auto serve = [&](SpGemmHandle<IT, VT>& handle) {
      handle.set_seat_sink(seats);
      {
        const std::uint64_t t0 = trace_now(tc);
        out.cache_hit =
            !handle.ensure_planned_hashed(*r.a, *r.b, fp_a, fp_b, opts);
        if (out.cache_hit) {
          trace_instant(tc, "cache-hit", "cache");
        } else {
          trace_span(tc, "plan", t0);
        }
      }
      {
        const std::uint64_t t0 = trace_now(tc);
        handle.execute_into(*r.a, *r.b, out.c, PlusTimes{}, &out.stats);
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
      handle.set_seat_sink(nullptr);
    };
    if (!opts_.cache_enabled || degraded) {
      SpGemmHandle<IT, VT> handle;
      serve(handle);
      return;
    }
    // Fused plans never share a cache entry with unfused ones over the same
    // structure: the epilogue fingerprint perturbs the pair key.
    std::uint64_t key = pair_structure_hash(fp_a, fp_b);
    if (opts.epilogue.enabled()) {
      key ^= opts.epilogue.fingerprint() * 0x9e3779b97f4a7c15ULL;
    }
    // Lease RAII: an exception from here on unwinds into a quarantine — the
    // possibly half-built plan leaves the cache and is never served again;
    // only the release() below puts the entry back on the LRU.
    typename PlanCache<IT, VT>::Lease lease = cache_.acquire(key);
    std::size_t bytes = 0;
    {
      std::lock_guard<std::mutex> lk(lease.exec_mutex());
      serve(lease.handle());
      bytes = lease.handle().retained_bytes();
    }
    cache_.release(std::move(lease), out.cache_hit, bytes);
  }

  /// The dispatcher: drain whatever has accumulated since the last wake-up
  /// into one batch — natural batching under load, immediate service when
  /// idle — and deliver each promise AS ITS PRODUCT SETTLES (an overlay
  /// small resolves its future while the lane is still running — the whole
  /// point of work conservation).  Returns once stopping with an empty
  /// queue.
  void dispatch_loop() {
    std::unique_lock<std::mutex> lk(queue_mu_);
    for (;;) {
      queue_cv_.wait(lk, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) return;
      std::vector<Pending> batch = std::move(queue_);
      queue_.clear();
      queued_flop_ = 0;
      lk.unlock();

      const std::size_t n = batch.size();
      std::vector<Request> reqs(n);
      std::vector<Product> products(n);
      std::vector<std::exception_ptr> errors(n);
      std::vector<std::uint64_t> ids(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        reqs[i] = batch[i].req;
        ids[i] = batch[i].trace_id;
      }
      if (telemetry::enabled()) {
        // Queue-wait spans: enqueue (submit time) to dispatch, on the lane
        // track so waits sit under the spans they precede.
        const std::uint64_t now_ns = monotonic_ns();
        for (std::size_t i = 0; i < n; ++i) {
          if (ids[i] == 0) continue;
          telemetry::TraceEvent e;
          e.name = "queue";
          e.cat = "queue";
          e.ph = 'X';
          e.ts_ns = to_monotonic_ns(batch[i].enqueued);
          e.dur_ns = now_ns > e.ts_ns ? now_ns - e.ts_ns : 0;
          e.trace_id = ids[i];
          dispatch_trace_.record(e);
        }
      }
      process_batch(
          reqs.data(), n, products.data(), errors.data(),
          [&](std::size_t i) {
            if (errors[i]) {
              batch[i].promise.set_exception(errors[i]);
            } else {
              products[i].latency_ms =
                  ms_between(batch[i].enqueued, Clock::now());
              batch[i].promise.set_value(std::move(products[i]));
            }
          },
          &dispatch_trace_, 0, ids.data(), &helpers_);
      lk.lock();
    }
  }

  EngineOptions opts_;
  int pool_threads_;
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

  std::mutex batch_mu_;
  int inflight_batches_ = 0;  ///< guarded by batch_mu_

  /// The submit queue.  Queue operations are tiny and rare next to the
  /// products they admit, so one mutex guards the queue, its flop weight
  /// and the pause/stop flags.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::vector<Pending> queue_;  ///< guarded by queue_mu_
  Offset queued_flop_ = 0;      ///< guarded by queue_mu_
  bool stopping_ = false;       ///< guarded by queue_mu_
  bool paused_ = false;         ///< guarded by queue_mu_

  /// Bounded trace windows of the dispatcher (pid 0) and of the
  /// synchronous callers (pid kSyncTracePid).
  telemetry::TraceRing dispatch_trace_;
  telemetry::TraceRing sync_trace_;
  /// stop() flushes SPGEMM_TELEMETRY_DIR exactly once (idempotent stop).
  std::atomic<bool> telemetry_flushed_{false};

  /// Helper set of the synchronous multiply/run_batch callers; a caller
  /// holds sync_helpers_mu_ while it uses the set.
  std::mutex sync_helpers_mu_;
  detail::Helpers sync_helpers_;

  /// The dispatcher's small packers and admission splitters, parked
  /// between batches.  Declared before dispatcher_, which uses them.
  detail::Helpers helpers_;
  /// Last member: the dispatcher joins (via stop()) before the rest of the
  /// engine dies.
  std::thread dispatcher_;
};

}  // namespace spgemm::engine
