// Shared benchmark-harness utilities: kernel timing with warm-up and
// median-of-N repetition, MFLOPS accounting matching the paper's convention,
// tabular output, and environment sizing knobs.
//
// Every bench binary runs with no arguments at CI-friendly defaults; set
//   SPGEMM_BENCH_FULL=1     paper-scale problem sizes (hours on a laptop)
//   SPGEMM_BENCH_TRIALS=N   timing repetitions per cell (default 3)
//   SPGEMM_BENCH_THREADS=N  OpenMP threads (default: OpenMP's choice)
//   SPGEMM_BENCH_SCALE=N    RMAT scale of single-input benches (CI smoke)
// to change the envelope.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/multiply.hpp"
#include "matrix/csr.hpp"
#include "telemetry/exporters.hpp"

namespace spgemm::bench {

/// One machine-readable measurement row of a bench binary.
struct BenchRecord {
  std::string kernel;   ///< legend label / kernel name
  std::string matrix;   ///< input description (generator + scale or file)
  int threads = 0;
  double total_ms = 0.0;
  double symbolic_ms = 0.0;
  double numeric_ms = 0.0;
  double mflops = 0.0;
  double reuse_hit_rate = 0.0;
  Offset flop = 0;
  Offset nnz_out = 0;
  /// Inspector-executor amortization (bench_abl_plan_execute): one-time
  /// plan cost, per-execute cost, and how many executes were averaged.
  /// Zero for one-shot rows.
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  long long executions = 0;
  /// Serving-throughput metrics (bench_engine_throughput and future serving
  /// benches): completed products per second over the measured window and
  /// per-product latency percentiles.  Zero for per-multiply rows.
  double products_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Extreme tail (bench_engine_throughput's mixed-stream rows): the
  /// latency a small request pays when it lands behind a large fan-out —
  /// the metric the work-conserving scheduler exists to fix.
  double p999_ms = 0.0;
  /// Average overlay workers kept busy per second of large-lane execution
  /// (overlay_busy_ms / lane_busy_ms from EngineStats).  Zero for rows
  /// without the lane scheduler.
  double overlay_occupancy = 0.0;
  /// Median over paired rounds of one configuration against another on
  /// the same engine (bench_engine_throughput's telemetry-overhead row:
  /// telemetry-on / telemetry-off throughput).  Zero for unpaired rows.
  double paired_ratio = 0.0;
  /// Resilience / QoS counters (bench_engine_throughput's qos row): requests
  /// dropped by admission control, deadline misses (failed-before-run plus
  /// delivered-late), memory-pressure ladder retries, and products served
  /// degraded.  Zero for rows without admission control.
  long long shed = 0;
  long long deadline_misses = 0;
  long long retries = 0;
  long long degraded_execs = 0;
  /// Probe-work shape (bench_abl_probing): accumulator probe rounds and the
  /// average keys one round resolves (> 1 only under batched probing, where
  /// duplicate-in-flight shortcuts retire keys without a table round).
  long long probe_rounds = 0;
  double keys_per_round = 0.0;
  /// Out-of-core metrics (bench_block_sharded): shard spills to disk, the
  /// fraction of shard accesses served from DRAM, and the plan-cache hit
  /// share of the run's engine requests.  Zero for monolithic rows.
  long long spills = 0;
  double in_core_rate = 0.0;
  double cache_hit_share = 0.0;
  /// Peak-RSS growth attributed to this row (peak_rss_bytes() delta around
  /// the measured region).  The OS counter is process-monotonic, so only
  /// the first row to reach a high-water mark sees a non-zero delta —
  /// benches that compare footprints run the smaller variant first.
  long long peak_rss_bytes = 0;
};

/// Percentile of a latency sample by nearest-rank (q in [0, 1]); the shared
/// convention of every serving bench so p50/p99 stay comparable across
/// benches.  Sorts a copy; fine at bench cardinalities.
inline double latency_percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

/// Collects BenchRecords and writes `BENCH_<name>.json` in the working
/// directory when flushed or destroyed — the machine-readable perf
/// trajectory next to the human-readable tables.  The file is an object
/// `{"records": [...], "telemetry": {...}}`: the measurement rows plus a
/// registry snapshot taken at flush, so every bench artifact carries the
/// process-wide counters (plan-cache traffic, phase histograms, ...) that
/// contextualise its numbers.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : name_(std::move(bench_name)) {}
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;
  ~JsonReporter() { flush(); }

  /// Adds or replaces the record for (kernel, matrix, threads).  Replacing
  /// matters under google-benchmark, which invokes each BM_ function
  /// several times (iteration estimation, then the measured run): only the
  /// final measurement survives.
  void add(BenchRecord rec) {
    for (BenchRecord& r : records_) {
      if (r.kernel == rec.kernel && r.matrix == rec.matrix &&
          r.threads == rec.threads) {
        r = std::move(rec);
        return;
      }
    }
    records_.push_back(std::move(rec));
  }

  /// Record a measured multiply directly from its stats.
  void add(const std::string& kernel, const std::string& matrix, int threads,
           double mflops, const SpGemmStats& stats) {
    BenchRecord rec;
    rec.kernel = kernel;
    rec.matrix = matrix;
    rec.threads = threads;
    rec.total_ms = stats.total_ms();
    rec.symbolic_ms = stats.symbolic_ms;
    rec.numeric_ms = stats.numeric_ms;
    rec.mflops = mflops;
    rec.reuse_hit_rate = stats.reuse_hit_rate();
    rec.flop = stats.flop;
    rec.nnz_out = stats.nnz_out;
    rec.probe_rounds = static_cast<long long>(stats.probes);
    rec.keys_per_round = stats.keys_per_round();
    add(std::move(rec));
  }

  void flush() {
    if (records_.empty() || flushed_) return;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\"records\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(
          f,
          "  {\"kernel\": \"%s\", \"matrix\": \"%s\", \"threads\": %d, "
          "\"total_ms\": %.4f, \"symbolic_ms\": %.4f, \"numeric_ms\": %.4f, "
          "\"mflops\": %.2f, \"reuse_hit_rate\": %.4f, \"flop\": %lld, "
          "\"nnz_out\": %lld, \"plan_ms\": %.4f, \"execute_ms\": %.4f, "
          "\"executions\": %lld, "
          "\"products_per_sec\": %.2f, \"p50_ms\": %.4f, "
          "\"p99_ms\": %.4f, \"p999_ms\": %.4f, "
          "\"overlay_occupancy\": %.4f, \"paired_ratio\": %.4f, "
          "\"probe_rounds\": %lld, "
          "\"keys_per_round\": %.4f, \"shed\": %lld, "
          "\"deadline_misses\": %lld, \"retries\": %lld, "
          "\"degraded_execs\": %lld, \"spills\": %lld, "
          "\"in_core_rate\": %.4f, \"cache_hit_share\": %.4f, "
          "\"peak_rss_bytes\": %lld}%s\n",
          json_escape(r.kernel).c_str(), json_escape(r.matrix).c_str(),
          r.threads, r.total_ms, r.symbolic_ms, r.numeric_ms, r.mflops,
          r.reuse_hit_rate, static_cast<long long>(r.flop),
          static_cast<long long>(r.nnz_out), r.plan_ms, r.execute_ms,
          r.executions, r.products_per_sec, r.p50_ms,
          r.p99_ms, r.p999_ms, r.overlay_occupancy, r.paired_ratio,
          r.probe_rounds,
          r.keys_per_round, r.shed,
          r.deadline_misses, r.retries, r.degraded_execs, r.spills,
          r.in_core_rate, r.cache_hit_share, r.peak_rss_bytes,
          i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"telemetry\": %s}\n",
                 telemetry::export_json_string().c_str());
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    flushed_ = true;
  }

 private:
  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<BenchRecord> records_;
  bool flushed_ = false;
};

inline bool full_scale() {
  return env::get_bool("SPGEMM_BENCH_FULL", false);
}

inline int trials() {
  return static_cast<int>(env::get_int("SPGEMM_BENCH_TRIALS", 3));
}

inline int bench_threads() {
  return static_cast<int>(env::get_int("SPGEMM_BENCH_THREADS", 0));
}

/// RMAT scale override for benches that take one headline input — lets CI
/// smoke-run a bench at a small scale without a separate code path.
inline int bench_scale(int default_scale) {
  return static_cast<int>(env::get_int("SPGEMM_BENCH_SCALE", default_scale));
}

/// One timed kernel configuration in a figure's legend.
struct KernelSpec {
  std::string label;       ///< as shown in the paper's legend
  Algorithm algorithm;
  SortOutput sort;
};

/// The paper's sorted-panel legend (Table 1 top, §5 "sorted" runs), with
/// MKL played by the SPA stand-in.
inline std::vector<KernelSpec> sorted_legend() {
  return {
      {"MKL*", Algorithm::kSpa, SortOutput::kYes},
      {"Heap", Algorithm::kHeap, SortOutput::kYes},
      {"Hash", Algorithm::kHash, SortOutput::kYes},
      {"HashVec", Algorithm::kHashVector, SortOutput::kYes},
  };
}

/// The unsorted-panel legend (MKL/MKL-inspector/Kokkos stand-ins + hash
/// family with sorting skipped).
inline std::vector<KernelSpec> unsorted_legend() {
  return {
      {"MKL* (unsorted)", Algorithm::kSpa, SortOutput::kNo},
      {"MKL-insp.* (unsorted)", Algorithm::kSpa1p, SortOutput::kNo},
      {"Kokkos* (unsorted)", Algorithm::kKkHash, SortOutput::kNo},
      {"Hash (unsorted)", Algorithm::kHash, SortOutput::kNo},
      {"HashVec (unsorted)", Algorithm::kHashVector, SortOutput::kNo},
  };
}

inline std::vector<KernelSpec> both_legends() {
  std::vector<KernelSpec> all = sorted_legend();
  const std::vector<KernelSpec> uns = unsorted_legend();
  all.insert(all.end(), uns.begin(), uns.end());
  return all;
}

/// Median-of-`trials` wall time of one multiply; returns the paper-style
/// MFLOPS (2*flop / time) and fills `stats_out` from the median run.
template <IndexType IT, ValueType VT>
double time_multiply_mflops(const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b,
                            const KernelSpec& spec,
                            SpGemmStats* stats_out = nullptr) {
  SpGemmOptions opts;
  opts.algorithm = spec.algorithm;
  opts.sort_output = spec.sort;
  opts.threads = bench_threads();

  // One warm-up run primes thread pools and the allocator arena.
  SpGemmStats warm;
  multiply(a, b, opts, &warm);

  std::vector<double> times;
  SpGemmStats stats;
  for (int t = 0; t < std::max(1, trials()); ++t) {
    Timer timer;
    multiply(a, b, opts, &stats);
    times.push_back(timer.millis());
  }
  std::sort(times.begin(), times.end());
  const double median_ms = times[times.size() / 2];
  if (stats_out != nullptr) *stats_out = stats;
  return median_ms > 0.0
             ? 2.0 * static_cast<double>(stats.flop) / (median_ms * 1e3)
             : 0.0;
}

/// Print a header naming the experiment and its paper anchor.
inline void print_banner(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("mode: %s   trials: %d\n",
              full_scale() ? "FULL (paper scale)" : "scaled (CI default)",
              trials());
  std::printf("* = stand-in implementation (see DESIGN.md substitutions)\n");
  std::printf("==============================================================\n");
}

/// Print one row of right-aligned numeric cells after a left label.
inline void print_row(const std::string& label,
                      const std::vector<double>& cells, const char* fmt) {
  std::printf("%-22s", label.c_str());
  for (const double v : cells) std::printf(fmt, v);
  std::printf("\n");
}

inline void print_header(const std::string& label,
                         const std::vector<std::string>& cols, int width) {
  std::printf("%-22s", label.c_str());
  for (const auto& c : cols) std::printf("%*s", width, c.c_str());
  std::printf("\n");
}

}  // namespace spgemm::bench
