// Serving-engine throughput: a repeated-structure request mix served by
// SpGemmEngine with the plan cache on vs off (engine/spgemm_engine.hpp).
//
// The workload models steady multi-tenant traffic: a handful of distinct
// sparsity structures (large Graph500 rmats that fan out across the pool,
// small ones that get packed whole onto single workers) recurring round
// after round with changing values — AMG level operators, stabilized MCL
// iterations, repeated analytics queries.  Cache ON serves every repeat as
// a numeric-only replay of the retained plan; cache OFF re-plans every
// request, which is what any per-call API (or a cold cache) pays.
//
// Emits BENCH_engine_throughput.json with products/sec and p50/p99 service
// latency per configuration; `cache-on-steady` excludes the first
// (cold, all-misses) round.  The headline claim is
//   cache-on-steady products/sec >= 1.5x cache-off
// at scale 16 — the plan phase (symbolic + partition + capture + skeleton)
// is the majority of a one-shot product, and the cache takes it off the
// repeated path entirely.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "engine/spgemm_engine.hpp"
#include "model/cost_model.hpp"
#include "matrix/rmat.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace spgemm;
using namespace spgemm::bench;

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Engine = engine::SpGemmEngine<I, double>;

constexpr int kRounds = 6;        ///< round 0 is the cold round
constexpr int kSmallPerRound = 4;  ///< requests per small structure/round

struct MixResult {
  double total_products_per_sec = 0.0;
  double steady_products_per_sec = 0.0;
  std::vector<double> latencies_ms;  ///< per-product service times
};

/// Serve kRounds of the request mix through one engine, rescaling values
/// between rounds so every product really re-folds its numeric phase.
MixResult serve_mix(Engine& eng, std::vector<Matrix>& large,
                    std::vector<Matrix>& small) {
  MixResult out;
  double total_ms = 0.0;
  double steady_ms = 0.0;
  std::size_t total_products = 0;
  std::size_t steady_products = 0;

  for (int round = 0; round < kRounds; ++round) {
    for (auto& m : large) {
      for (auto& v : m.vals) v *= 1.0001;
    }
    for (auto& m : small) {
      for (auto& v : m.vals) v *= 1.0001;
    }
    std::vector<Engine::Request> reqs;
    for (const Matrix& m : large) reqs.push_back({&m, &m});
    for (const Matrix& m : small) {
      for (int r = 0; r < kSmallPerRound; ++r) reqs.push_back({&m, &m});
    }

    Timer timer;
    const std::vector<Engine::Product> products = eng.run_batch(reqs);
    const double round_ms = timer.millis();

    total_ms += round_ms;
    total_products += products.size();
    if (round > 0) {
      steady_ms += round_ms;
      steady_products += products.size();
      for (const auto& p : products) out.latencies_ms.push_back(p.latency_ms);
    }
  }
  out.total_products_per_sec =
      total_ms > 0.0 ? 1e3 * static_cast<double>(total_products) / total_ms
                     : 0.0;
  out.steady_products_per_sec =
      steady_ms > 0.0 ? 1e3 * static_cast<double>(steady_products) / steady_ms
                      : 0.0;
  return out;
}

void report(JsonReporter& json, const std::string& config,
            const std::string& mix_name, int threads, const MixResult& r) {
  BenchRecord rec;
  rec.kernel = config;
  rec.matrix = mix_name;
  rec.threads = threads;
  rec.products_per_sec = r.steady_products_per_sec;
  rec.p50_ms = latency_percentile(r.latencies_ms, 0.50);
  rec.p99_ms = latency_percentile(r.latencies_ms, 0.99);
  json.add(std::move(rec));
  std::printf("%-18s %12.2f %12.2f %12.2f %12.2f\n", config.c_str(),
              r.total_products_per_sec, r.steady_products_per_sec, rec.p50_ms,
              rec.p99_ms);
}

/// Mixed-stream: ONE large recurring structure plus a stream of small
/// requests submitted together — the tail-latency workload the
/// work-conserving scheduler exists for.  Under the drain-ordered baseline
/// (work_conserving off) every small in the burst waits out the large
/// fan-out, so the small p99/p999 is the large product's service time;
/// under lanes the overlay packs the smalls onto the workers the lane is
/// not holding and the small tail collapses to roughly a single small
/// multiply.  Percentiles are over the SMALL requests only (the large's
/// latency is the same either way and would pin p999); throughput counts
/// everything.  Round 0 (cold plans) is excluded from the steady numbers.
struct StreamResult {
  double steady_products_per_sec = 0.0;
  std::vector<double> small_latencies_ms;
  double overlay_occupancy = 0.0;
};

/// One round of the mixed stream: values rescaled (every product really
/// re-folds), then the large and `smalls_per_round` smalls submitted while
/// the engine is paused, so the whole burst lands in one dispatch — the
/// arrival pattern (smalls stuck behind a large) is deterministic, not a
/// timing race.  Returns the milliseconds from resume to the last
/// delivery; appends the smalls' latencies to `small_latencies_ms`.
double serve_burst(Engine& eng, Matrix& big, std::vector<Matrix>& small,
                   int smalls_per_round,
                   std::vector<double>& small_latencies_ms) {
  for (auto& v : big.vals) v *= 1.0001;
  for (auto& m : small) {
    for (auto& v : m.vals) v *= 1.0001;
  }
  eng.pause();
  std::vector<std::future<Engine::Product>> futures;
  futures.push_back(eng.submit(big, big));
  for (int i = 0; i < smalls_per_round; ++i) {
    const Matrix& m = small[static_cast<std::size_t>(i) % small.size()];
    futures.push_back(eng.submit(m, m));
  }
  Timer timer;
  eng.resume();
  futures.front().get();
  for (std::size_t i = 1; i < futures.size(); ++i) {
    small_latencies_ms.push_back(futures[i].get().latency_ms);
  }
  return timer.millis();
}

StreamResult serve_stream(const engine::EngineOptions& opts, Matrix& big,
                          std::vector<Matrix>& small, int smalls_per_round,
                          const char* trace_path = nullptr) {
  Engine eng(opts);
  StreamResult out;
  double steady_ms = 0.0;
  std::size_t steady_products = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> latencies;
    const double round_ms =
        serve_burst(eng, big, small, smalls_per_round, latencies);
    if (round > 0) {
      steady_ms += round_ms;
      steady_products += latencies.size() + 1;
      out.small_latencies_ms.insert(out.small_latencies_ms.end(),
                                    latencies.begin(), latencies.end());
    }
  }
  out.steady_products_per_sec =
      steady_ms > 0.0 ? 1e3 * static_cast<double>(steady_products) / steady_ms
                      : 0.0;
  const auto es = eng.engine_stats();
  out.overlay_occupancy =
      es.lane_busy_ms > 0.0 ? es.overlay_busy_ms / es.lane_busy_ms : 0.0;
  if (trace_path != nullptr) {
    std::ofstream tf(trace_path, std::ios::trunc);
    if (tf) {
      eng.dump_trace(tf);
      std::printf("wrote %s (Chrome trace of the last round's window)\n",
                  trace_path);
    }
  }
  return out;
}

/// Telemetry overhead, paired: ONE engine serves the mixed stream round
/// after round with telemetry toggled per round — off then on in even
/// pairs, on then off in odd ones — and each pair contributes the ratio of
/// its two rounds' throughput, on / off (the rounds serve the same
/// products, so it is off time / on time).  Returns the median pair ratio.
/// Two engines run one after the other would compare run order and machine
/// drift as much as telemetry.
double paired_telemetry_ratio(const engine::EngineOptions& opts, Matrix& big,
                              std::vector<Matrix>& small,
                              int smalls_per_round, int pairs) {
  Engine eng(opts);
  const bool was = telemetry::enabled();
  std::vector<double> latencies;
  const auto round_ms = [&](bool telem) {
    telemetry::set_enabled(telem);
    return serve_burst(eng, big, small, smalls_per_round, latencies);
  };
  round_ms(false);  // cold round: plans every structure
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    const bool on_first = p % 2 == 1;
    const double first = round_ms(on_first);
    const double second = round_ms(!on_first);
    ratios.push_back(on_first ? second / first : first / second);
  }
  telemetry::set_enabled(was);
  return latency_percentile(ratios, 0.5);
}

void run_mixed_stream(JsonReporter& json, const std::string& mix_name,
                      int threads, const engine::EngineOptions& base,
                      int scale) {
  const int smalls_per_round = 32;
  // The row needs clear separation between the large's service time and the
  // AGGREGATE small work — the lanes tail is bounded below by the latter.
  // At reduced CI scales the large gets two extra levels (capped at the
  // default 16) and the smalls sit seven levels below the large.
  const int big_scale = scale <= 14 ? scale + 2 : scale;
  const int small_scale = std::max(4, big_scale - 9);
  Matrix big = rmat_matrix<I, double>(RmatParams::g500(big_scale, 8, 900));
  // Each small in the stream is a DISTINCT structure: repeated structures
  // would serialize on their cached plan's exec mutex and the measured tail
  // would be lease contention, not scheduling order.
  std::vector<Matrix> small;
  small.reserve(static_cast<std::size_t>(smalls_per_round));
  for (int i = 0; i < smalls_per_round; ++i) {
    small.push_back(
        rmat_matrix<I, double>(RmatParams::g500(small_scale, 8, 2000 + i)));
  }
  // This row measures scheduling order, not kernel scaling: give the
  // scheduler a real pool even on small CI boxes.  Both the drain baseline
  // and the lanes run get the same width, so oversubscription (std::thread
  // overlay + OMP lane timesharing the same cores) cancels out of the
  // comparison.
  const int mix_threads = std::max(threads, 8);
  std::printf("\nmixed stream: 1 large (scale %d) + %d distinct smalls "
              "(scale %d) per round, %d rounds, %d workers "
              "(percentiles over smalls, steady rounds only)\n",
              big_scale, smalls_per_round, small_scale, kRounds, mix_threads);
  std::printf("%-18s %12s %12s %12s %12s %10s\n", "config", "steady/s",
              "p50 ms", "p99 ms", "p999 ms", "overlay");
  struct Variant {
    const char* name;
    bool lanes;
    bool cache;
  };
  const Variant variants[] = {
      {"mixed-drain", false, true},
      {"mixed-lanes", true, true},
      {"mixed-drain-cold", false, false},
      {"mixed-lanes-cold", true, false},
  };
  for (const Variant& v : variants) {
    engine::EngineOptions opts = base;
    opts.threads = mix_threads;
    opts.work_conserving = v.lanes;
    opts.cache_enabled = v.cache;
    const StreamResult r = serve_stream(opts, big, small, smalls_per_round);
    BenchRecord rec;
    rec.kernel = v.name;
    rec.matrix = mix_name;
    rec.threads = mix_threads;
    rec.products_per_sec = r.steady_products_per_sec;
    rec.p50_ms = latency_percentile(r.small_latencies_ms, 0.50);
    rec.p99_ms = latency_percentile(r.small_latencies_ms, 0.99);
    rec.p999_ms = latency_percentile(r.small_latencies_ms, 0.999);
    rec.overlay_occupancy = r.overlay_occupancy;
    json.add(rec);
    std::printf("%-18s %12.2f %12.2f %12.2f %12.2f %10.3f\n", v.name,
                rec.products_per_sec, rec.p50_ms, rec.p99_ms, rec.p999_ms,
                rec.overlay_occupancy);
  }

  // Telemetry-on rerun of the lanes row: the source of the Chrome trace
  // artifact — lane spans on track 0 and overlay spans on the dispatcher's
  // worker tracks.
  {
    engine::EngineOptions opts = base;
    opts.threads = mix_threads;
    opts.work_conserving = true;
    opts.cache_enabled = true;
    const bool was = telemetry::set_enabled(true);
    const StreamResult r = serve_stream(opts, big, small, smalls_per_round,
                                        "TRACE_engine_mixed_stream.json");
    telemetry::set_enabled(was);
    BenchRecord rec;
    rec.kernel = "mixed-lanes-telem";
    rec.matrix = mix_name;
    rec.threads = mix_threads;
    rec.products_per_sec = r.steady_products_per_sec;
    rec.p50_ms = latency_percentile(r.small_latencies_ms, 0.50);
    rec.p99_ms = latency_percentile(r.small_latencies_ms, 0.99);
    rec.p999_ms = latency_percentile(r.small_latencies_ms, 0.999);
    rec.overlay_occupancy = r.overlay_occupancy;
    json.add(rec);
    std::printf("%-18s %12.2f %12.2f %12.2f %12.2f %10.3f\n",
                "mixed-lanes-telem", rec.products_per_sec, rec.p50_ms,
                rec.p99_ms, rec.p999_ms, rec.overlay_occupancy);
  }

  // The telemetry-overhead comparator CI's bench-smoke gates on: the lanes
  // row's engine, telemetry toggled round by round.
  {
    constexpr int kPairs = 40;
    engine::EngineOptions opts = base;
    opts.threads = mix_threads;
    opts.work_conserving = true;
    opts.cache_enabled = true;
    BenchRecord rec;
    rec.kernel = "telemetry-overhead";
    rec.matrix = mix_name;
    rec.threads = mix_threads;
    rec.paired_ratio =
        paired_telemetry_ratio(opts, big, small, smalls_per_round, kPairs);
    json.add(rec);
    std::printf("telemetry on/off throughput, median of %d paired rounds: "
                "%.3f\n",
                kPairs, rec.paired_ratio);
  }
}

/// QoS mix: the same request mix burst-submitted through admission control
/// with a bounded queue, priorities (latency-sensitive smalls over bulk
/// larges) and deadlines.  The dispatcher is paused during the burst so the
/// backpressure decisions are deterministic: the queue fills, smalls
/// displace larges, the overflow is shed typed (kShed), and two
/// already-expired probe requests exercise the deadline accounting.  Smalls
/// carry a generous real deadline (SPGEMM_BENCH_DEADLINE_MS, default 30s)
/// so CI timing noise cannot flake the run — its purpose is marking them
/// deadline-sensitive, which schedules the packed-small phase first.
void run_qos_mix(JsonReporter& json, const std::string& mix_name, int threads,
                 const engine::EngineOptions& base,
                 const std::vector<Matrix>& large,
                 const std::vector<Matrix>& small) {
  engine::EngineOptions opts = base;
  opts.max_queue = 8;
  Engine eng(opts);
  eng.pause();

  const auto deadline =
      Engine::Clock::now() +
      std::chrono::milliseconds(
          env::get_int("SPGEMM_BENCH_DEADLINE_MS", 30000));
  // Request construction pass: every matrix is reused across many requests,
  // so its O(nnz) flop estimate is computed once here and rides along as
  // Request::flop_hint — the submit loop below stays free of per-request
  // estimate_flop passes.
  std::vector<Engine::Request> reqs;
  for (const Matrix& m : large) {
    Engine::Request r;
    r.a = &m;
    r.b = &m;
    r.priority = 0;  // bulk: first to go under pressure
    r.flop_hint = model::estimate_flop(m, m);
    reqs.push_back(r);
  }
  for (const Matrix& m : small) {
    Engine::Request r;
    r.a = &m;
    r.b = &m;
    r.priority = 1;
    r.deadline = deadline;
    r.flop_hint = model::estimate_flop(m, m);
    for (int i = 0; i < kSmallPerRound; ++i) reqs.push_back(r);
  }
  // Two probes whose deadline has already passed: admitted (high priority),
  // then failed typed at run time — deterministic deadline accounting.
  {
    Engine::Request r;
    r.a = &small.front();
    r.b = &small.front();
    r.priority = 2;
    r.deadline = Engine::Clock::now() - std::chrono::milliseconds(1);
    r.flop_hint = model::estimate_flop(small.front(), small.front());
    reqs.push_back(r);
    reqs.push_back(r);
  }
  std::vector<std::future<Engine::Product>> futures;
  futures.reserve(reqs.size());
  for (const Engine::Request& r : reqs) futures.push_back(eng.submit(r));

  Timer timer;
  eng.resume();
  std::size_t delivered = 0;
  std::size_t shed = 0;
  std::size_t missed = 0;
  std::vector<double> latencies;
  for (auto& f : futures) {
    try {
      latencies.push_back(f.get().latency_ms);
      ++delivered;
    } catch (const SpGemmError& e) {
      if (e.code() == ErrorCode::kShed) ++shed;
      if (e.code() == ErrorCode::kDeadlineExceeded) ++missed;
    }
  }
  const double drain_ms = timer.millis();
  const auto es = eng.engine_stats();

  BenchRecord rec;
  rec.kernel = "qos-mix";
  rec.matrix = mix_name;
  rec.threads = threads;
  rec.products_per_sec =
      drain_ms > 0.0 ? 1e3 * static_cast<double>(delivered) / drain_ms : 0.0;
  rec.p50_ms = latency_percentile(latencies, 0.50);
  rec.p99_ms = latency_percentile(latencies, 0.99);
  rec.shed = static_cast<long long>(es.shed);
  rec.deadline_misses = static_cast<long long>(es.deadline_misses);
  rec.retries = static_cast<long long>(es.retries);
  rec.degraded_execs = static_cast<long long>(es.degraded_execs);
  json.add(std::move(rec));

  std::printf("\nqos mix (queue bound 8): %zu delivered, %zu shed, "
              "%zu past-deadline of %zu submitted\n",
              delivered, shed, missed, futures.size());
  std::printf("engine stats: shed=%llu deadline_misses=%llu retries=%llu "
              "degraded_execs=%llu\n",
              static_cast<unsigned long long>(es.shed),
              static_cast<unsigned long long>(es.deadline_misses),
              static_cast<unsigned long long>(es.retries),
              static_cast<unsigned long long>(es.degraded_execs));
}

}  // namespace

int main() {
  print_banner("engine throughput",
               "plan-cache serving: repeated-structure mix, cache on vs off");
  JsonReporter json("engine_throughput");
  const int threads = bench_threads();
  const int scale = bench_scale(16);
  const int small_scale = scale > 6 ? scale - 5 : 4;
  const std::string mix_name = "g500mix_s" + std::to_string(scale);

  // 3 large + 3 small recurring structures; smalls requested 4x per round.
  std::vector<Matrix> large;
  for (int s = 0; s < 3; ++s) {
    large.push_back(
        rmat_matrix<I, double>(RmatParams::g500(scale, 8, 900 + s)));
  }
  std::vector<Matrix> small;
  for (int s = 0; s < 3; ++s) {
    small.push_back(
        rmat_matrix<I, double>(RmatParams::g500(small_scale, 8, 950 + s)));
  }
  std::printf("\nmix: 3x g500 scale %d + 3x g500 scale %d (x%d/round), "
              "%d rounds (round 0 = cold)\n",
              scale, small_scale, kSmallPerRound, kRounds);
  std::printf("%-18s %12s %12s %12s %12s\n", "config", "prods/s", "steady/s",
              "p50 ms", "p99 ms");

  engine::EngineOptions base;
  base.plan.algorithm = Algorithm::kHash;
  base.plan.sort_output = SortOutput::kNo;
  base.threads = threads;

  engine::EngineOptions off = base;
  off.cache_enabled = false;
  Engine engine_off(off);
  const MixResult r_off = serve_mix(engine_off, large, small);
  report(json, "cache-off", mix_name, threads, r_off);

  Engine engine_on(base);
  const MixResult r_on = serve_mix(engine_on, large, small);
  report(json, "cache-on", mix_name, threads, r_on);

  const auto cs = engine_on.cache_stats();
  std::printf("\ncache: %llu hits / %llu misses / %llu evictions, "
              "%.1f MB retained (budget %.1f MB)\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.evictions),
              static_cast<double>(cs.retained_bytes) / 1e6,
              static_cast<double>(engine_on.cache().budget_bytes()) / 1e6);
  const double speedup =
      r_off.steady_products_per_sec > 0.0
          ? r_on.steady_products_per_sec / r_off.steady_products_per_sec
          : 0.0;
  std::printf("steady-state speedup (cache-on / cache-off): %.2fx\n",
              speedup);

  run_mixed_stream(json, mix_name, threads, base, scale);

  run_qos_mix(json, mix_name, threads, base, large, small);

  json.flush();
  return 0;
}
