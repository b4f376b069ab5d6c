// Lock-cheap metrics registry: counters, gauges, and fixed-bucket histograms,
// sharded per thread and folded on scrape.
//
// Design goals, in order:
//   1. Disabled cost: one relaxed atomic load + branch per event (same idiom
//      as the fault-injection gate).  No clock reads, no hashing.
//   2. Enabled cost: one thread-hashed relaxed fetch_add on a cache-line
//      aligned shard — no locks on the hot path.
//   3. Scrape is exact for counters/histogram totals: folding sums every
//      shard; concurrent writers only ever make the fold a valid
//      point-in-time-or-later value.
//
// Metric identity is (name, optional single label pair).  That is all the
// engine stack needs ("phase", "point", "kind"-style breakdowns) and keeps
// the registry far away from a full label-set implementation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace spgemm::telemetry {

namespace detail {

/// Global runtime gate.  Initialised at static-init time from the
/// SPGEMM_TELEMETRY / SPGEMM_TELEMETRY_DIR environment (see telemetry.cpp).
extern std::atomic<int> g_enabled;

inline constexpr std::size_t kShardCount = 16;  // power of two

/// Thread → shard.  Hashing the thread id is stable for a thread's lifetime,
/// so a thread always hits the same cache line.
inline std::size_t shard_index() noexcept {
  static thread_local const std::size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (kShardCount - 1);
  return idx;
}

}  // namespace detail

/// Whether telemetry events are being recorded.  One relaxed load.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed) != 0;
}

/// Flip the runtime gate (tests, benches).  Returns the previous value.
bool set_enabled(bool on) noexcept;

/// Monotonically increasing counter.  add() is a no-op while disabled.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Fold all shards.  Exact once writers have quiesced.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, detail::kShardCount> shards_;
};

/// Last-write-wins gauge (single slot: gauges are "current level" metrics, so
/// sharding would change semantics, and set() is already a single store).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }

  void add(double delta) noexcept {
    if (!enabled()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram.  Bucket upper bounds are set at construction; the
/// implicit final bucket is +Inf.  observe() is two relaxed fetch_adds plus a
/// short linear scan over the bounds (bounds lists are small, <= 32).
class Histogram {
 public:
  static constexpr std::size_t kMaxBuckets = 33;  // 32 finite bounds + +Inf

  explicit Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    if (bounds_.size() > kMaxBuckets - 1) bounds_.resize(kMaxBuckets - 1);
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept {
    if (!enabled()) return;
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    Shard& s = shards_[detail::shard_index()];
    s.buckets[b].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    double sum = s.sum.load(std::memory_order_relaxed);
    while (!s.sum.compare_exchange_weak(sum, sum + v,
                                        std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

  struct Folded {
    std::vector<std::uint64_t> buckets;  ///< per-bucket (non-cumulative)
    double sum = 0.0;
    std::uint64_t count = 0;
  };

  /// Fold all shards.  Bucket counts and count are exact after quiescence.
  [[nodiscard]] Folded fold() const {
    Folded f;
    f.buckets.assign(bounds_.size() + 1, 0);
    for (const Shard& s : shards_) {
      for (std::size_t b = 0; b <= bounds_.size(); ++b)
        f.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      f.count += s.count.load(std::memory_order_relaxed);
      f.sum += s.sum.load(std::memory_order_relaxed);
    }
    return f;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kMaxBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Shard, detail::kShardCount> shards_;
};

/// Default duration buckets in seconds: 1 µs · 2^k for k = 0..25 (~33 s).
/// Wide enough for kernel tiles through multi-second sharded products.
[[nodiscard]] std::vector<double> default_seconds_bounds();

/// Point-in-time snapshot of a registry (value types only; safe to hold
/// across exporter calls).
struct Snapshot {
  struct CounterSample {
    std::string name, help, label_key, label_value;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name, help, label_key, label_value;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name, help, label_key, label_value;
    std::vector<double> bounds;          ///< finite upper bounds
    std::vector<std::uint64_t> buckets;  ///< bounds.size()+1, non-cumulative
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Named metric registry.  Lookup/registration takes a mutex (call sites
/// cache the returned reference, typically in a function-local static);
/// recording on the returned metric is lock-free.  Metrics live for the
/// registry's lifetime — references never dangle.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, std::string_view help = "",
                   std::string_view label_key = {},
                   std::string_view label_value = {});

  Gauge& gauge(std::string_view name, std::string_view help = "",
               std::string_view label_key = {},
               std::string_view label_value = {});

  /// Histogram with explicit bucket bounds; bounds are fixed by the first
  /// registration of a (name, label) identity.
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds,
                       std::string_view label_key = {},
                       std::string_view label_value = {});

  /// Phase-duration histogram under the shared "spgemm_phase_seconds" family,
  /// labelled {phase="<phase>"}.  Used by TELEM_SPAN.
  Histogram& phase_histogram(std::string_view phase);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Entry {
    std::string name, help, label_key, label_value;
    char kind;  // 'c', 'g', 'h'
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  Entry& find_or_create(std::string_view name, std::string_view help,
                        std::string_view label_key,
                        std::string_view label_value, char kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;     // insertion order
  std::unordered_map<std::string, Entry*> by_key_;  // composite key
};

/// The process-wide registry every subsystem mirrors into.
Registry& registry();

/// Next per-request trace id (process-wide, starts at 1; 0 means "no id").
std::uint64_t next_trace_id() noexcept;

}  // namespace spgemm::telemetry
