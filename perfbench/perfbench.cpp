// Repository benchmark driver: runs one workload for a fixed wall-clock
// window and prints one JSON line of measurements.
//
//   perfbench --workload square|serve|apps --seed N --seconds S --trace 0|1
//
// Workloads (every input is generated from --seed):
//   square  one-shot multiply() of a power-law (Graph500 R-MAT) matrix by
//           itself — the paper's headline A^2 — in a closed loop;
//   serve   the mixed-lanes stream of bench/bench_engine_throughput.cpp at
//           its CI scale: bursts of one large and 32 distinct small products
//           through one SpGemmEngine, every one a plan-cache replay with
//           fresh values;
//   apps    one cycle of the graph and solver apps per operation: two MCL
//           rounds, fused triangle counting and a fused Galerkin RAP.
//
// Every operation's output is checked in the loop (row lengths against the
// warm-up product plus the row- and column-sum identities), and after the
// measured window the last output is compared in full with an independent
// oracle (the heap kernel, or the unfused app pipelines).  The oracle runs
// after the window so its memory stays out of the peak-RSS figure.
// With --trace 0 the telemetry registry stays off and only end-to-end
// figures are printed; --trace 1 turns it on, adds the per-layer figures and
// writes the driver's own spans as a Chrome trace under .bench_build/.
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/amg_galerkin.hpp"
#include "apps/markov_cluster.hpp"
#include "apps/triangle_count.hpp"
#include "common/timer.hpp"
#include "microbench/stanza.hpp"
#include "spgemm/spgemm.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace spgemm;
using IT = std::int32_t;
using VT = double;
using Csr = CsrMatrix<IT, VT>;
using RowPtrs = mem::Buffer<Offset>;
using Engine = engine::SpGemmEngine<IT, VT>;
using Clock = std::chrono::steady_clock;

/// Worker threads of every kernel and of the engine pool.  Fixed so the
/// figures do not depend on the host's core count or OMP_NUM_THREADS.
constexpr int kThreads = 2;
/// Set-up is repeated this many times per run; its median is reported.
constexpr int kSetupRepeats = 9;
/// Driver spans one run can hold: room for a 60 s run of any workload.
constexpr std::size_t kTraceEvents = std::size_t{1} << 14;
constexpr const char* kTraceDir = ".bench_build";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

template <typename T>
std::size_t ix(T v) {
  return static_cast<std::size_t>(v);
}

/// Seed of the `k`-th input of a run, derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + k);
  return mix.next();
}

/// A seeded random permutation of 0..n-1.
std::vector<IT> shuffled(IT n, std::uint64_t seed) {
  std::vector<IT> perm(ix(n));
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<IT>(i);
  SplitMix64 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return perm;
}

/// A Graph500 R-MAT matrix whose vertices the run seed relabels.  The
/// structure seed is fixed, so every run multiplies the same amount of work
/// in a seed-dependent memory order, and run-to-run differences measure the
/// system rather than the draw of a power-law degree sequence.
Csr rmat_input(int scale, int edge_factor, std::uint64_t structure_seed,
               std::uint64_t seed, bool symmetric = false) {
  RmatParams p = RmatParams::g500(scale, edge_factor, structure_seed);
  p.symmetric = symmetric;
  const Csr a = rmat_matrix<IT, VT>(p);
  return symmetric_permute(a, shuffled(a.nrows, seed));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// C = A*B implies rowsum(C) = A * rowsum(B) and colsum(C) = colsum(A) * B.
/// Every benchmark value is positive, so no cancellation can hide a wrong,
/// missing or misplaced entry; beside a row-length check this pins the
/// values of every row and every column at O(nnz) cost.
bool sums_identity(const Csr& a, const Csr& b, const Csr& c) {
  if (c.nrows != a.nrows || c.ncols != b.ncols || a.ncols != b.nrows) {
    return false;
  }
  const auto near = [](double want, double got) {
    return std::abs(want - got) <= 1e-9 * want;
  };
  std::vector<double> bsum(ix(b.nrows), 0.0), acol(ix(a.ncols), 0.0);
  std::vector<double> want_col(ix(b.ncols), 0.0), got_col(ix(c.ncols), 0.0);
  for (std::size_t j = 0; j < a.cols.size(); ++j) {
    acol[ix(a.cols[j])] += a.vals[j];
  }
  for (IT k = 0; k < b.nrows; ++k) {
    for (Offset j = b.row_begin(k); j < b.row_end(k); ++j) {
      bsum[ix(k)] += b.vals[ix(j)];
      want_col[ix(b.cols[ix(j)])] += acol[ix(k)] * b.vals[ix(j)];
    }
  }
  for (IT i = 0; i < a.nrows; ++i) {
    double want = 0.0;
    for (Offset j = a.row_begin(i); j < a.row_end(i); ++j) {
      want += a.vals[ix(j)] * bsum[ix(a.cols[ix(j)])];
    }
    double got = 0.0;
    for (Offset j = c.row_begin(i); j < c.row_end(i); ++j) {
      const IT col = c.cols[ix(j)];
      if (col < 0 || col >= c.ncols) return false;
      got += c.vals[ix(j)];
      got_col[ix(col)] += c.vals[ix(j)];
    }
    if (!near(want, got)) return false;
  }
  for (std::size_t j = 0; j < want_col.size(); ++j) {
    if (!near(want_col[j], got_col[j])) return false;
  }
  return true;
}

/// The loop's check of one product: same row lengths as the warm-up
/// product of the same structure, and the sum identities.
bool product_ok(const Csr& a, const Csr& b, const Csr& c,
                const RowPtrs& want_rpts) {
  return c.rpts == want_rpts && sums_identity(a, b, c);
}

// ---- Measurements ------------------------------------------------------------

/// Registry sums of one histogram family in ms, keyed by label value.
std::map<std::string, double> histogram_ms(const char* family) {
  std::map<std::string, double> out;
  for (const auto& h : telemetry::registry().snapshot().histograms) {
    if (h.name == family) out[h.label_value] += 1e3 * h.sum;
  }
  return out;
}

/// Milliseconds spent in each library phase (TELEM_SPAN scopes) so far.
std::map<std::string, double> phase_ms() {
  return histogram_ms("spgemm_phase_seconds");
}

/// Per-layer figures that only some workloads produce; the others report
/// them as 0 (the layer is not on their path).
constexpr const char* kPathMetrics[] = {
    "plan_reuse_rate", "queue_wait_share", "lane_share",  "overlay_share",
    "mcl_share",       "tricount_share",   "rap_share"};

/// Everything a run measures.  Operation latencies and failures feed the
/// end-to-end figures; the SpGemmStats fold, the library phase times and
/// the driver's spans (a telemetry TraceRing, id = operation, id 0 = set-up
/// and oracle work) feed the per-layer ones.
class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace), spans_(kTraceEvents) {}

  [[nodiscard]] bool tracing() const { return trace_; }

  void op_done(double latency_ms, bool ok) {
    latencies_ms_.push_back(latency_ms);
    if (!ok) ++failed_;
  }

  /// An operation that threw instead of delivering.
  void op_failed() {
    ++thrown_;
    ++failed_;
  }

  /// A failed check against the oracle, outside the timed loop: the run is
  /// not correct, but no extra operation was attempted.
  void check_failed(const char* what) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    oracle_ok_ = false;
  }

  /// Adds wall time the library spent delivering operations; throughput is
  /// operations over this time, so the driver's checks stay out of it.
  void busy(double seconds) { busy_s_ += seconds; }

  /// Folds one product's kernel statistics (tracing runs only).
  void product(const SpGemmStats& s) {
    if (!trace_) return;
    ++products_;
    symbolic_ms_ += s.symbolic_ms;
    numeric_ms_ += s.numeric_ms;
    flop_ += static_cast<double>(s.flop);
    nnz_out_ += static_cast<double>(s.nnz_out);
    probes_ += static_cast<double>(s.probes);
    keys_ += static_cast<double>(s.keys_resolved());
    tiles_ += static_cast<double>(s.tile_count);
    rows_captured_ += static_cast<double>(s.reuse_rows_captured);
    rows_total_ += static_cast<double>(s.reuse_rows_total);
    epilogue_rows_ += static_cast<double>(s.epilogue_rows);
    epilogue_ms_ += s.epilogue_ms;
  }

  /// Runs `fn`, recording it as span `name` of operation `op` when tracing.
  template <typename Fn>
  decltype(auto) timed(const char* name, std::uint64_t op, Fn&& fn) {
    struct Close {
      Recorder* r;
      telemetry::TraceEvent e;
      ~Close() {
        if (!r->trace_) return;
        e.dur_ns = monotonic_ns() - e.ts_ns;
        r->spans_.record(e);
      }
    } close{this, {}};
    close.e.name = name;
    close.e.cat = "perfbench";
    close.e.trace_id = op;
    close.e.ts_ns = monotonic_ns();
    return fn();
  }

  /// Brackets the measured loop; phase times are deltas across it, so
  /// set-up work stays out of the per-layer figures.  Peak RSS is read at
  /// its end, before the oracle and the bandwidth probe run.
  void start_window() {
    if (trace_) phases_ms_ = phase_ms();
    start_ = Clock::now();
  }
  [[nodiscard]] bool window_open(double seconds) const {
    return seconds_since(start_) < seconds;
  }
  void end_window() {
    peak_rss_mib_ = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
    if (!trace_) return;
    for (const auto& [k, v] : phase_ms()) phases_ms_[k] = v - phases_ms_[k];
  }

  void add_setup(double s) { setup_s_.push_back(s); }
  void set(const std::string& name, double v) { path_[name] = v; }

  [[nodiscard]] std::uint64_t attempted() const {
    return latencies_ms_.size() + thrown_;
  }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && oracle_ok_; }

  /// Time in measured spans named `name` over the total operation latency.
  [[nodiscard]] double span_share(const char* name) const {
    double ns = 0.0;
    for (const telemetry::TraceEvent& e : spans_.snapshot()) {
      if (e.trace_id > 0 && std::strcmp(e.name, name) == 0) {
        ns += static_cast<double>(e.dur_ns);
      }
    }
    return ns * 1e-6 / latency_sum_ms();
  }

  [[nodiscard]] std::map<std::string, double> metrics() const {
    std::map<std::string, double> m;
    m["p50_ms"] = percentile(latencies_ms_, 0.50);
    m["p90_ms"] = percentile(latencies_ms_, 0.90);
    m["ops_per_s"] = static_cast<double>(latencies_ms_.size()) / busy_s_;
    m["setup_s"] = percentile(setup_s_, 0.5);
    if (!trace_) return m;
    const auto per = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const auto phase = [&](std::initializer_list<const char*> names) {
      double ms = 0.0;
      for (const char* name : names) {
        const auto it = phases_ms_.find(name);
        if (it != phases_ms_.end()) ms += it->second;
      }
      return ms;
    };
    const double ops = static_cast<double>(latencies_ms_.size());
    const double p = static_cast<double>(products_);
    const double kernel_ms = symbolic_ms_ + numeric_ms_;
    // Phase times cover every kernel call, including those (MCL's handle)
    // whose statistics the app API does not return.
    const double sym = phase({"oneshot.symbolic", "handle.symbolic"});
    const double num = phase({"oneshot.numeric", "oneshot.placement",
                              "handle.numeric", "handle.placement"});
    m["symbolic_ms"] = per(sym, ops);
    m["numeric_ms"] = per(num, ops);
    m["kernel_share"] =
        per(sym + num + phase({"rap.multiply"}), latency_sum_ms());
    m["kernel_mflops"] = per(2.0 * flop_, kernel_ms * 1e3);
    m["probe_rounds_per_key"] = per(probes_, keys_);
    m["flop_per_product"] = per(flop_, p);
    m["nnz_out_per_product"] = per(nnz_out_, p);
    m["tiles_per_product"] = per(tiles_, p);
    m["reuse_hit_rate"] = per(rows_captured_, rows_total_);
    m["epilogue_rows_per_product"] = per(epilogue_rows_, p);
    m["epilogue_share"] = per(epilogue_ms_, kernel_ms);
    m["products_per_op"] = per(p, ops);
    m["peak_rss_mib"] = peak_rss_mib_;
    for (const char* name : kPathMetrics) m[name] = 0.0;
    for (const auto& [k, v] : path_) m[k] = v;
    return m;
  }

  /// Writes the spans as Chrome trace_event JSON (chrome://tracing).
  void write_trace(const std::string& path) const {
    if (spans_.dropped() > 0) {
      std::fprintf(stderr, "perfbench: trace ring dropped %llu spans\n",
                   static_cast<unsigned long long>(spans_.dropped()));
    }
    std::ofstream os(path, std::ios::trunc);
    if (os) telemetry::write_chrome_trace(os, {&spans_});
  }

 private:
  [[nodiscard]] double latency_sum_ms() const {
    double total = 0.0;
    for (const double l : latencies_ms_) total += l;
    return total;
  }

  bool trace_;
  std::vector<double> latencies_ms_;
  std::vector<double> setup_s_;
  std::uint64_t thrown_ = 0;
  std::uint64_t failed_ = 0;
  bool oracle_ok_ = true;
  Clock::time_point start_;
  double busy_s_ = 0.0;
  double peak_rss_mib_ = 0.0;
  std::map<std::string, double> phases_ms_;
  std::uint64_t products_ = 0;
  double symbolic_ms_ = 0.0, numeric_ms_ = 0.0, flop_ = 0.0, nnz_out_ = 0.0;
  double probes_ = 0.0, keys_ = 0.0, tiles_ = 0.0;
  double rows_captured_ = 0.0, rows_total_ = 0.0;
  double epilogue_rows_ = 0.0, epilogue_ms_ = 0.0;
  telemetry::TraceRing spans_;
  std::map<std::string, double> path_;
};

/// Runs `setup` kSetupRepeats times on fresh state, recording each duration,
/// and keeps the last repetition's state.
template <typename State, typename Fn>
State measure_setup(Recorder& rec, Fn&& setup) {
  State state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    state = State{};  // retire the previous repetition first
    const auto t0 = Clock::now();
    state = setup();
    rec.add_setup(seconds_since(t0));
  }
  return state;
}

/// The heap kernel shares no accumulator code with the hash/SPA family the
/// recipe and the engine choose from, so it serves as the oracle.
Csr oracle_product(const Csr& a, const Csr& b) {
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHeap;
  opts.threads = kThreads;
  return multiply(a, b, opts);
}

// ---- square: one-shot power-law A^2 -----------------------------------------

constexpr int kSquareScale = 12;
constexpr int kSquareEdgeFactor = 16;

struct SquareState {
  Csr a;
  RowPtrs rpts;  ///< row pointers of the warm-up product
};

void run_square(std::uint64_t seed, double seconds, Recorder& rec) {
  SpGemmOptions opts;  // kAuto: the Table 4 recipe picks the kernel
  opts.threads = kThreads;
  const SquareState st = measure_setup<SquareState>(rec, [&] {
    SquareState s;
    s.a = rmat_input(kSquareScale, kSquareEdgeFactor, 1, derive_seed(seed, 1));
    s.rpts = multiply(s.a, s.a, opts).rpts;
    return s;
  });

  Csr last;
  rec.start_window();
  for (std::uint64_t op = 1; rec.window_open(seconds); ++op) {
    last = Csr{};  // retire the previous product before the next one
    SpGemmStats stats;
    const auto t0 = Clock::now();
    last = rec.timed("multiply", op,
                     [&] { return multiply(st.a, st.a, opts, &stats); });
    const double lat = ms_since(t0);
    const bool ok = rec.timed(
        "check", op, [&] { return product_ok(st.a, st.a, last, st.rpts); });
    rec.op_done(lat, ok);
    rec.busy(lat * 1e-3);
    rec.product(stats);
  }
  rec.end_window();
  if (!approx_equal(last, oracle_product(st.a, st.a))) {
    rec.check_failed("square vs heap kernel");
  }
}

// ---- serve: bursts of mixed products through the engine ----------------------

// The mixed-lanes stream of bench_engine_throughput at its CI scale (12): a
// scale-14 large and 32 distinct scale-5 smalls, edge factor 8, with the
// same structure seeds, kHash plans and unsorted output.  Each small is a
// distinct structure because repeated ones would serialize on their cached
// plan's exec mutex.  The pool has kThreads workers where the bench forces
// 8; with two, the large's lane holds one and the overlay packs the smalls
// onto the other.  One client sends the next burst when the last product of
// the previous one has arrived (a closed loop).
constexpr int kLargeScale = 14, kSmallScale = 5, kServeEdgeFactor = 8;
constexpr int kServeSmalls = 32;
constexpr std::size_t kCacheBudgetBytes = std::size_t{256} << 20;

using Burst = std::vector<std::optional<Engine::Product>>;

/// Submits one product per input (each squared) while the engine is paused,
/// so the burst lands in one dispatch and the arrival order is fixed, then
/// waits for all of them.  A request that throws leaves its slot empty.
Burst serve_burst(Engine& eng, const std::vector<Csr>& inputs) {
  eng.pause();
  std::vector<std::future<Engine::Product>> futures;
  futures.reserve(inputs.size());
  for (const Csr& m : inputs) futures.push_back(eng.submit(m, m));
  eng.resume();
  Burst out(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      out[i] = futures[i].get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
    }
  }
  return out;
}

/// A delivered product's kernel statistics.  A replay runs no symbolic
/// phase: the plan-time figures a cached handle reports belong to the
/// request that planned it.
SpGemmStats delivered_stats(const Engine::Product& p) {
  SpGemmStats stats = p.stats;
  if (p.cache_hit) {
    stats.symbolic_ms = 0.0;
    stats.probes = stats.numeric_probes;
    stats.symbolic_probes = 0;
    stats.symbolic_keys = 0;
  }
  return stats;
}

/// The engine's service time so far (plan-or-replay + execute + copy-out).
double service_ms() {
  return histogram_ms("spgemm_engine_service_seconds")[""];
}

struct ServeState {
  std::unique_ptr<Engine> eng;
  std::vector<Csr> inputs;     ///< the large first, then the smalls
  std::vector<RowPtrs> rpts;   ///< row pointers of each warm-up product
};

void run_serve(std::uint64_t seed, double seconds, Recorder& rec) {
  const ServeState st = measure_setup<ServeState>(rec, [&] {
    ServeState s;
    engine::EngineOptions eo;
    eo.threads = kThreads;
    eo.pools = 1;
    eo.cache_budget_bytes = kCacheBudgetBytes;
    eo.plan.algorithm = Algorithm::kHash;
    eo.plan.sort_output = SortOutput::kNo;
    s.eng = std::make_unique<Engine>(eo);
    s.inputs.push_back(rmat_input(kLargeScale, kServeEdgeFactor, 900,
                                  derive_seed(seed, 100)));
    for (int i = 0; i < kServeSmalls; ++i) {
      s.inputs.push_back(rmat_input(kSmallScale, kServeEdgeFactor, 2000 + i,
                                    derive_seed(seed, 200 + i)));
    }
    // The warm-up burst plans every structure into the cache.
    for (const auto& p : serve_burst(*s.eng, s.inputs)) {
      if (!p) throw std::runtime_error("serve warm-up request failed");
      s.rpts.push_back(p->c.rpts);
    }
    return s;
  });
  const engine::PlanCacheStats cache0 = st.eng->cache_stats();
  const engine::EngineStats engine0 = st.eng->engine_stats();
  const double service0_ms = rec.tracing() ? service_ms() : 0.0;

  std::vector<Csr> work = st.inputs;  // fresh values for every burst
  Burst last;
  double engine_latency_ms = 0.0;  // enqueue-to-delivery, summed
  double delivered = 0.0;
  rec.start_window();
  for (std::uint64_t op = 1; rec.window_open(seconds); ++op) {
    const double f = 1.0 + 0x1.0p-10 * static_cast<double>(op % 64);
    for (std::size_t i = 0; i < work.size(); ++i) {
      for (std::size_t j = 0; j < work[i].vals.size(); ++j) {
        work[i].vals[j] = st.inputs[i].vals[j] * f;
      }
    }
    last.clear();  // retire the previous burst's products first
    const auto t0 = Clock::now();
    last = rec.timed("burst", op, [&] { return serve_burst(*st.eng, work); });
    rec.busy(seconds_since(t0));
    rec.timed("check", op, [&] {
      for (std::size_t i = 0; i < last.size(); ++i) {
        if (!last[i]) {
          rec.op_failed();
          continue;
        }
        const Engine::Product& p = *last[i];
        rec.op_done(p.latency_ms,
                    product_ok(work[i], work[i], p.c, st.rpts[i]));
        rec.product(delivered_stats(p));
        engine_latency_ms += p.latency_ms;
        delivered += 1.0;
      }
    });
  }
  rec.end_window();
  for (std::size_t i = 0; i < last.size(); ++i) {
    if (last[i] &&
        !approx_equal(last[i]->c, oracle_product(work[i], work[i]))) {
      rec.check_failed("serve product vs heap kernel");
    }
  }
  if (!rec.tracing()) return;

  const engine::PlanCacheStats cache = st.eng->cache_stats();
  const auto hits = static_cast<double>(cache.hits - cache0.hits);
  const auto misses = static_cast<double>(cache.misses - cache0.misses);
  rec.set("plan_reuse_rate", hits / std::max(1.0, hits + misses));
  const engine::EngineStats es = st.eng->engine_stats();
  const double n = std::max(1.0, delivered);
  rec.set("lane_share",
          static_cast<double>(es.lane_execs - engine0.lane_execs) / n);
  rec.set("overlay_share",
          static_cast<double>(es.overlay_execs - engine0.overlay_execs) / n);
  // Queue wait = the engine's enqueue-to-delivery latency minus its service
  // time (plan-or-replay + execute + copy-out).
  rec.set("queue_wait_share",
          std::max(0.0, 1.0 - (service_ms() - service0_ms) /
                                  std::max(1e-9, engine_latency_ms)));
  std::ofstream tf(std::string(kTraceDir) + "/engine-trace.json",
                   std::ios::trunc);
  if (tf) st.eng->dump_trace(tf);
}

// ---- apps: MCL rounds, triangle counting, Galerkin RAP ----------------------

constexpr int kGraphScale = 11, kGraphEdgeFactor = 8;
constexpr int kMclRounds = 2;
constexpr IT kGridSide = 320;
constexpr IT kAggregate = 4;

struct AppsOutputs {
  std::vector<IT> clusters;
  int plan_builds = 0, plan_reuses = 0;
  std::int64_t triangles = 0;
  Csr coarse;
};

struct AppsState {
  Csr graph, fine, p;
  AppsOutputs first;  ///< the warm-up cycle's outputs
};

/// One app cycle; `fused` = false runs the unfused pipelines (materialize,
/// then post-process) that serve as the oracle.
AppsOutputs run_apps_cycle(const AppsState& st, bool fused, Recorder& rec,
                           std::uint64_t op) {
  SpGemmOptions opts;
  opts.threads = kThreads;
  AppsOutputs out;
  rec.timed("mcl", op, [&] {
    apps::MclParams mcl;
    mcl.max_iterations = kMclRounds;
    mcl.fuse_epilogue = fused;
    auto r = apps::markov_cluster(st.graph, mcl, opts);
    out.clusters = std::move(r.cluster_of);
    out.plan_builds = r.plan_builds;
    out.plan_reuses = r.plan_reuses;
  });
  rec.timed("tricount", op, [&] {
    const auto r = fused ? apps::count_triangles_fused(st.graph, opts)
                         : apps::count_triangles(st.graph, opts);
    if (op > 0) rec.product(r.spgemm_stats);
    out.triangles = r.triangles;
  });
  rec.timed("rap", op, [&] {
    auto r = fused ? apps::galerkin_product_fused(st.fine, st.p, opts)
                   : apps::galerkin_product(st.fine, st.p, opts);
    if (op > 0) rec.product(r.rap_stats);
    out.coarse = std::move(r.coarse);
  });
  return out;
}

void run_apps(std::uint64_t seed, double seconds, Recorder& rec) {
  const AppsState st = measure_setup<AppsState>(rec, [&] {
    AppsState s;
    s.graph = rmat_input(kGraphScale, kGraphEdgeFactor, 1,
                         derive_seed(seed, 1), /*symmetric=*/true);
    s.fine = apps::poisson_2d<IT, VT>(kGridSide, kGridSide);
    SplitMix64 rng(derive_seed(seed, 2));
    for (auto& v : s.fine.vals) v *= 1.0 + 0.5 * rng.next_double();
    s.p = apps::aggregation_prolongator<IT, VT>(s.fine.nrows, kAggregate);
    s.first = run_apps_cycle(s, /*fused=*/true, rec, 0);
    return s;
  });

  double builds = 0.0, reuses = 0.0;
  rec.start_window();
  for (std::uint64_t op = 1; rec.window_open(seconds); ++op) {
    const auto t0 = Clock::now();
    const AppsOutputs out = run_apps_cycle(st, /*fused=*/true, rec, op);
    const double lat = ms_since(t0);
    const bool ok = rec.timed("check", op, [&] {
      return out.clusters == st.first.clusters &&
             out.triangles == st.first.triangles &&
             approx_equal(out.coarse, st.first.coarse, 0.0);
    });
    rec.op_done(lat, ok);
    rec.busy(lat * 1e-3);
    builds += out.plan_builds;
    reuses += out.plan_reuses;
  }
  rec.end_window();
  // Every cycle matched the warm-up exactly; the warm-up meets the oracle.
  const AppsOutputs ref = run_apps_cycle(st, /*fused=*/false, rec, 0);
  if (st.first.clusters != ref.clusters) rec.check_failed("mcl clusters");
  if (st.first.triangles != ref.triangles) rec.check_failed("triangles");
  if (!approx_equal(st.first.coarse, ref.coarse, 1e-10)) {
    rec.check_failed("rap coarse operator");
  }
  if (!rec.tracing()) return;
  rec.set("plan_reuse_rate", reuses / std::max(1.0, builds + reuses));
  rec.set("mcl_share", rec.span_share("mcl"));
  rec.set("tricount_share", rec.span_share("tricount"));
  rec.set("rap_share", rec.span_share("rap"));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload square|serve|apps --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else {
      return usage();
    }
  }
  const std::map<std::string,
                 std::function<void(std::uint64_t, double, Recorder&)>>
      workloads = {
          {"square", run_square}, {"serve", run_serve}, {"apps", run_apps}};
  const auto it = workloads.find(workload);
  if (it == workloads.end() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  omp_set_num_threads(kThreads);
  telemetry::set_enabled(trace == 1);
  Recorder rec(trace == 1);
  try {
    it->second(seed, seconds, rec);
    if (rec.tracing()) {
      // Roofline ceiling of the kernel figures: read bandwidth of 64 KiB
      // stanzas (row-sized reads) over a 256 MiB array, as in Fig. 5.  It
      // runs after the workload has read its peak RSS.
      rec.set("stream_gbps",
              microbench::stanza_read_bandwidth(
                  std::size_t{256} << 20, std::size_t{64} << 10,
                  std::size_t{512} << 20, kThreads, seed)
                  .gbytes_per_s);
      rec.write_trace(std::string(kTraceDir) + "/trace-" + workload + ".json");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rec.correct() ? "true" : "false",
              static_cast<unsigned long long>(rec.attempted()),
              static_cast<unsigned long long>(rec.failed()));
  const auto metrics = rec.metrics();
  std::size_t i = 0;
  for (const auto& [name, value] : metrics) {
    std::printf("\"%s\": %.17g%s", name.c_str(), value,
                ++i < metrics.size() ? ", " : "");
  }
  std::printf("}}\n");
  return 0;
}
