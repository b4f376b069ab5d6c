// Telemetry subsystem contracts (src/telemetry/).
//
// What the observability layer must guarantee before anything trusts it:
//   * registry folds are EXACT after writers quiesce: counters hammered
//     from 8 threads sum to exactly the adds issued, histogram bucket
//     totals and counts match the observes issued;
//   * the trace ring is bounded-overwrite: capacity C with N > C records
//     retains exactly the last C, oldest first, and reports N - C drops;
//   * dump_trace emits well-formed Chrome trace_event JSON (parsed back
//     here with a dependency-free JSON parser) with lane spans and
//     packed-small/overlay spans on DISTINCT thread tracks;
//   * the Prometheus exposition passes a format lint: HELP/TYPE precede a
//     family's samples, histogram buckets are cumulative and ascending,
//     and the +Inf bucket equals the count;
//   * the disabled path changes NOTHING: products computed with telemetry
//     on are bit-identical to products computed with it off;
//   * fault-injection arms/triggers surface as labeled registry counters;
//   * TELEM_SPAN populates the phase histogram family for the two-phase
//     driver's phases, the one-phase driver's and the handle's
//     plan/execute;
//   * with SPGEMM_TELEMETRY_DIR set, concurrent flushes leave whole
//     artifact files and no temp file behind.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/fault_injection.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/rmat.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace spgemm;

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Engine = engine::SpGemmEngine<I, double>;

/// Every test runs against an explicit gate state and restores the
/// process-wide one afterwards (other suites assume the default).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = telemetry::set_enabled(true); }
  void TearDown() override {
    telemetry::set_enabled(prev_);
    fault::disarm_all();
  }
  bool prev_ = false;
};

// ---------------------------------------------------------------------------
// Registry fold exactness under concurrency.

TEST_F(TelemetryTest, CounterFoldsExactlyUnderEightThreadHammering) {
  telemetry::Registry reg;
  telemetry::Counter& c = reg.counter("hammer_total", "test");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);

  const telemetry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "hammer_total");
  EXPECT_EQ(snap.counters[0].value, kThreads * kPerThread);
}

TEST_F(TelemetryTest, HistogramFoldsExactlyUnderEightThreadHammering) {
  telemetry::Registry reg;
  // Bounds chosen so observe(1.0) lands in bucket 1 ((0.5, 1.5]) and the
  // sum (a whole number of 1.0s) folds exactly in double.
  telemetry::Histogram& h =
      reg.histogram("hammer_seconds", "test", {0.5, 1.5, 2.5});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(1.0);
    });
  }
  for (auto& t : threads) t.join();

  const telemetry::Histogram::Folded f = h.fold();
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(f.count, kTotal);
  EXPECT_EQ(f.sum, static_cast<double>(kTotal));
  ASSERT_EQ(f.buckets.size(), 4u);  // 3 finite bounds + Inf
  EXPECT_EQ(f.buckets[0], 0u);
  EXPECT_EQ(f.buckets[1], kTotal);
  EXPECT_EQ(f.buckets[2], 0u);
  EXPECT_EQ(f.buckets[3], 0u);
}

TEST_F(TelemetryTest, CounterIsNoOpWhileDisabled) {
  telemetry::Registry reg;
  telemetry::Counter& c = reg.counter("gated_total", "test");
  telemetry::set_enabled(false);
  c.add(5);
  EXPECT_EQ(c.value(), 0u);
  telemetry::set_enabled(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST_F(TelemetryTest, MetricIdentityIsNamePlusLabel) {
  telemetry::Registry reg;
  telemetry::Counter& a = reg.counter("family_total", "t", "phase", "x");
  telemetry::Counter& b = reg.counter("family_total", "t", "phase", "y");
  telemetry::Counter& a2 = reg.counter("family_total", "t", "phase", "x");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a2);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 4u);
}

// ---------------------------------------------------------------------------
// Trace ring bounded-overwrite contract.

TEST_F(TelemetryTest, TraceRingRetainsLastCapacityEventsOldestFirst) {
  telemetry::TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    telemetry::TraceEvent e;
    e.name = "e";
    e.ts_ns = i;
    ring.record(e);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const std::vector<telemetry::TraceEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 12 + i);  // the last 8, oldest first
  }
}

TEST_F(TelemetryTest, TraceRingIgnoresRecordsWhileDisabled) {
  telemetry::TraceRing ring(4);
  telemetry::set_enabled(false);
  telemetry::TraceEvent e;
  e.name = "e";
  ring.record(e);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser: enough to verify well-formedness
// and walk the trace structure, with no external dependency.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;
struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v;
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] const JsonObject& obj() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] const JsonArray& arr() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  /// Parses the whole input; sets ok=false on any syntax error or trailing
  /// garbage.
  JsonValue parse(bool& ok) {
    ok = true;
    JsonValue v = value(ok);
    skip_ws();
    if (pos_ != s_.size()) ok = false;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  JsonValue value(bool& ok) {
    skip_ws();
    if (pos_ >= s_.size()) {
      ok = false;
      return {};
    }
    const char c = s_[pos_];
    if (c == '{') return object(ok);
    if (c == '[') return array(ok);
    if (c == '"') return JsonValue{string(ok)};
    if (c == 't' || c == 'f') return boolean(ok);
    if (c == 'n') {
      if (s_.compare(pos_, 4, "null") == 0) {
        pos_ += 4;
        return JsonValue{nullptr};
      }
      ok = false;
      return {};
    }
    return number(ok);
  }
  JsonValue object(bool& ok) {
    auto out = std::make_shared<JsonObject>();
    if (!consume('{')) {
      ok = false;
      return {};
    }
    if (consume('}')) return JsonValue{out};
    do {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        ok = false;
        return {};
      }
      const std::string key = string(ok);
      if (!ok || !consume(':')) {
        ok = false;
        return {};
      }
      (*out)[key] = value(ok);
      if (!ok) return {};
    } while (consume(','));
    if (!consume('}')) ok = false;
    return JsonValue{out};
  }
  JsonValue array(bool& ok) {
    auto out = std::make_shared<JsonArray>();
    if (!consume('[')) {
      ok = false;
      return {};
    }
    if (consume(']')) return JsonValue{out};
    do {
      out->push_back(value(ok));
      if (!ok) return {};
    } while (consume(','));
    if (!consume(']')) ok = false;
    return JsonValue{out};
  }
  std::string string(bool& ok) {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          ok = false;
          return out;
        }
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u':
            if (pos_ + 4 > s_.size()) {
              ok = false;
              return out;
            }
            pos_ += 4;       // validated as hex by the format writer
            out.push_back('?');  // tests never compare escaped content
            break;
          default:
            ok = false;
            return out;
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= s_.size()) {
      ok = false;
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }
  JsonValue boolean(bool& ok) {
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue{true};
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue{false};
    }
    ok = false;
    return {};
  }
  JsonValue number(bool& ok) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      ok = false;
      return {};
    }
    try {
      return JsonValue{std::stod(s_.substr(start, pos_ - start))};
    } catch (...) {
      ok = false;
      return {};
    }
  }

  const std::string s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Chrome trace round-trip: run a mixed-size batch, dump, parse back.

TEST_F(TelemetryTest, DumpTraceEmitsWellFormedChromeJsonWithDistinctTracks) {
  engine::EngineOptions opts;
  opts.threads = 4;
  opts.plan.sort_output = SortOutput::kNo;
  Engine eng(opts);

  // One large (above the small-product cutoff) plus several smalls:
  // the work-conserving batch path runs a lane on track 0 and packs the
  // smalls on worker tracks 1+w.
  const Matrix big = rmat_matrix<I, double>(RmatParams::g500(9, 8, 41));
  std::vector<Matrix> small;
  for (int s = 0; s < 6; ++s) {
    small.push_back(rmat_matrix<I, double>(RmatParams::g500(5, 8, 50 + s)));
  }
  std::vector<Engine::Request> reqs;
  reqs.push_back({&big, &big});
  for (const Matrix& m : small) reqs.push_back({&m, &m});
  const auto products = eng.run_batch(reqs);
  ASSERT_EQ(products.size(), reqs.size());

  std::ostringstream os;
  eng.dump_trace(os);
  const std::string text = os.str();

  bool ok = false;
  JsonParser parser(text);
  const JsonValue root = parser.parse(ok);
  ASSERT_TRUE(ok) << "dump_trace produced unparseable JSON";
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.obj().count("traceEvents"));
  const JsonArray& events = root.obj().at("traceEvents").arr();
  ASSERT_FALSE(events.empty());

  std::vector<double> lane_tids;
  std::vector<double> packed_tids;
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const JsonObject& e = ev.obj();
    // Required Chrome trace_event fields on every event.
    ASSERT_TRUE(e.count("name"));
    ASSERT_TRUE(e.count("ph"));
    ASSERT_TRUE(e.count("pid"));
    ASSERT_TRUE(e.count("tid"));
    const std::string& ph = e.at("ph").str();
    if (ph == "X") {
      ASSERT_TRUE(e.count("ts"));
      ASSERT_TRUE(e.count("dur"));
      EXPECT_GE(e.at("ts").num(), 0.0);
      EXPECT_GE(e.at("dur").num(), 0.0);
    }
    const std::string& name = e.at("name").str();
    if (name == "lane") lane_tids.push_back(e.at("tid").num());
    if (name == "small" || name == "overlay") {
      packed_tids.push_back(e.at("tid").num());
    }
  }
  ASSERT_FALSE(lane_tids.empty()) << "no lane span in the trace";
  ASSERT_FALSE(packed_tids.empty()) << "no packed-small span in the trace";
  for (const double t : lane_tids) EXPECT_EQ(t, 0.0);
  for (const double t : packed_tids) {
    EXPECT_GE(t, 1.0) << "packed span not on a distinct worker track";
  }
}

// ---------------------------------------------------------------------------
// Prometheus exposition lint.

TEST_F(TelemetryTest, PrometheusExpositionPassesFormatLint) {
  // Populate a histogram family with a label so the lint sees the
  // interesting shapes (labels, buckets, shared-family declarations).
  telemetry::Histogram& h = telemetry::registry().histogram(
      "telemetry_test_seconds", "lint fixture", {0.001, 0.01, 0.1}, "phase",
      "lint");
  h.observe(0.005);
  h.observe(0.05);
  h.observe(5.0);
  telemetry::registry()
      .counter("telemetry_test_total", "lint fixture counter")
      .add(2);

  std::ostringstream os;
  telemetry::export_prometheus(os);
  std::istringstream in(os.str());

  std::map<std::string, std::string> declared_type;  // family -> TYPE
  std::string line;
  std::vector<double> lint_buckets;  // telemetry_test_seconds cumulative
  double lint_count = -1.0;
  bool saw_inf = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family, rest;
      ls >> hash >> kind >> family;
      if (kind == "TYPE") {
        ls >> rest;
        EXPECT_EQ(declared_type.count(family), 0u)
            << "duplicate TYPE for " << family;
        declared_type[family] = rest;
      }
      continue;
    }
    // Sample line: name{labels} value  |  name value
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << "malformed line: " << line;
    std::string name = line.substr(0, name_end);
    // Histogram sample suffixes resolve to the declared family name.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string family = name.substr(0, name.size() - s.size());
        if (declared_type.count(family)) name = family;
      }
    }
    EXPECT_TRUE(declared_type.count(name))
        << "sample before HELP/TYPE: " << line;

    if (line.rfind("telemetry_test_seconds_bucket{", 0) == 0) {
      const double v = std::stod(line.substr(line.rfind(' ') + 1));
      if (!lint_buckets.empty()) {
        EXPECT_GE(v, lint_buckets.back()) << "buckets not cumulative";
      }
      lint_buckets.push_back(v);
      saw_inf = saw_inf || line.find("le=\"+Inf\"") != std::string::npos;
    }
    if (line.rfind("telemetry_test_seconds_count{", 0) == 0) {
      lint_count = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  ASSERT_FALSE(lint_buckets.empty());
  EXPECT_TRUE(saw_inf) << "no +Inf bucket";
  EXPECT_GE(lint_count, 3.0);
  EXPECT_EQ(lint_buckets.back(), lint_count) << "+Inf bucket != count";
  EXPECT_EQ(declared_type.at("telemetry_test_seconds"), "histogram");
  EXPECT_EQ(declared_type.at("telemetry_test_total"), "counter");
}

// ---------------------------------------------------------------------------
// Disabled-path bit-identity: telemetry must never perturb results.

TEST_F(TelemetryTest, ProductsAreBitIdenticalWithTelemetryOnAndOff) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(8, 8, 7));
  engine::EngineOptions opts;
  opts.threads = 2;

  telemetry::set_enabled(false);
  Matrix c_off;
  {
    Engine eng(opts);
    c_off = eng.multiply(a, a).c;
  }
  telemetry::set_enabled(true);
  Matrix c_on;
  {
    Engine eng(opts);
    c_on = eng.multiply(a, a).c;
  }
  ASSERT_EQ(c_off.nnz(), c_on.nnz());
  EXPECT_EQ(c_off.rpts, c_on.rpts);
  EXPECT_EQ(c_off.cols, c_on.cols);
  EXPECT_EQ(c_off.vals, c_on.vals);  // bit-identical, not approximately
}

// ---------------------------------------------------------------------------
// Fault-injection registry wiring.

TEST_F(TelemetryTest, FaultArmAndTriggerSurfaceAsLabeledCounters) {
  const std::string point = "handle.plan.symbolic";
  auto labeled_value = [&](const char* name) -> std::uint64_t {
    const telemetry::Snapshot snap = telemetry::registry().snapshot();
    for (const auto& c : snap.counters) {
      if (c.name == name && c.label_key == "point" &&
          c.label_value == point) {
        return c.value;
      }
    }
    return 0;
  };
  const std::uint64_t armed_before =
      labeled_value("spgemm_fault_armed_total");
  const std::uint64_t trig_before =
      labeled_value("spgemm_fault_triggered_total");

  ASSERT_TRUE(fault::arm(point, 1, 1));
  EXPECT_EQ(labeled_value("spgemm_fault_armed_total"), armed_before + 1);

  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(5, 8, 3));
  SpGemmHandle<I, double> handle;
  SpGemmOptions opts;
  opts.threads = 1;
  EXPECT_THROW(handle.plan(a, a, opts), fault::InjectedFault);
  EXPECT_EQ(labeled_value("spgemm_fault_triggered_total"), trig_before + 1);
}

// ---------------------------------------------------------------------------
// TELEM_SPAN phase profiling.

/// Observations so far in spgemm_phase_seconds{phase=`phase`}.
std::uint64_t phase_count(const std::string& phase) {
  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == "spgemm_phase_seconds" && h.label_key == "phase" &&
        h.label_value == phase) {
      return h.count;
    }
  }
  return 0;
}

TEST_F(TelemetryTest, PhaseHistogramsPopulateAfterPlanAndExecute) {
#ifdef SPGEMM_TELEMETRY_DISABLED
  GTEST_SKIP() << "TELEM_SPAN compiled out (SPGEMM_TELEMETRY=OFF)";
#endif
  const std::uint64_t plan_before = phase_count("handle.plan");
  const std::uint64_t exec_before = phase_count("handle.execute");
  const std::uint64_t numeric_before = phase_count("handle.numeric");

  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(7, 8, 13));
  SpGemmHandle<I, double> handle;
  SpGemmOptions opts;
  opts.threads = 2;
  handle.plan(a, a, opts);
  Matrix c;
  handle.execute_into(a, a, c, PlusTimes{});

  EXPECT_GT(phase_count("handle.plan"), plan_before);
  EXPECT_GT(phase_count("handle.execute"), exec_before);
  EXPECT_GT(phase_count("handle.numeric"), numeric_before);
}

TEST_F(TelemetryTest, OnePhaseMultiplyObservesOneShotPhases) {
#ifdef SPGEMM_TELEMETRY_DISABLED
  GTEST_SKIP() << "TELEM_SPAN compiled out (SPGEMM_TELEMETRY=OFF)";
#endif
  // The one-phase driver reports the two-phase one-shot's phases minus
  // the symbolic one.
  const char* const phases[] = {"oneshot.multiply", "oneshot.setup",
                                "oneshot.numeric", "oneshot.placement"};
  std::map<std::string, std::uint64_t> before;
  for (const char* phase : phases) before[phase] = phase_count(phase);
  const std::uint64_t symbolic_before = phase_count("oneshot.symbolic");

  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(7, 8, 17));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kSpa1p;
  opts.threads = 2;
  multiply(a, a, opts);

  for (const char* phase : phases) {
    EXPECT_EQ(phase_count(phase), before[phase] + 1) << phase;
  }
  EXPECT_EQ(phase_count("oneshot.symbolic"), symbolic_before);
}

// ---------------------------------------------------------------------------
// Exported artifacts are whole.  Runs only where SPGEMM_TELEMETRY_DIR is set
// (CI's telemetry leg): flushes from several threads race each other and the
// periodic exporter while another thread keeps bumping a counter, and
// metrics.json is read back during the race and after it.

TEST_F(TelemetryTest, ConcurrentFlushesLeaveWholeArtifacts) {
  const std::string& dir = telemetry::export_dir();
  if (dir.empty()) GTEST_SKIP() << "SPGEMM_TELEMETRY_DIR is not set";
  const auto metrics_json_is_whole = [&dir] {
    std::ifstream in(dir + "/metrics.json");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    bool ok = false;
    JsonParser parser(text);
    const JsonValue root = parser.parse(ok);
    return ok && root.is_object() && root.obj().count("counters") == 1 &&
           root.obj().count("histograms") == 1;
  };
  telemetry::flush_export_now();
  ASSERT_TRUE(metrics_json_is_whole());

  telemetry::Counter& bumps = telemetry::registry().counter(
      "spgemm_test_flush_race_bumps_total",
      "Counter bumped while artifact flushes race (test only).");
  std::atomic<bool> done{false};
  std::thread bumper([&] {
    while (!done.load(std::memory_order_relaxed)) bumps.add(1);
  });
  constexpr int kFlushers = 4;
  std::atomic<int> running{kFlushers};
  std::vector<std::thread> flushers;
  for (int t = 0; t < kFlushers; ++t) {
    flushers.emplace_back([&running] {
      for (int k = 0; k < 50; ++k) telemetry::flush_export_now();
      running.fetch_sub(1);
    });
  }
  int reads = 0;
  int torn = 0;
  while (running.load() > 0) {
    ++reads;
    if (!metrics_json_is_whole()) ++torn;
  }
  for (std::thread& f : flushers) f.join();
  done.store(true, std::memory_order_relaxed);
  bumper.join();
  EXPECT_EQ(torn, 0) << "torn metrics.json in " << torn << " of " << reads
                     << " reads during the flushes";
  EXPECT_TRUE(metrics_json_is_whole()) << "metrics.json torn after the race";

  // Every temp file this process wrote was renamed into place.
  const std::string own_tmp = "." + std::to_string(::getpid()) + ".tmp";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_FALSE(name.ends_with(own_tmp)) << "leftover temp file " << name;
  }
}

TEST_F(TelemetryTest, ScopedSpanSkipsObserveWhileDisabled) {
  telemetry::Registry reg;
  telemetry::Histogram& h = reg.histogram("span_seconds", "test", {1.0});
  telemetry::set_enabled(false);
  { telemetry::ScopedSpan span(h); }
  EXPECT_EQ(h.fold().count, 0u);
  telemetry::set_enabled(true);
  { telemetry::ScopedSpan span(h); }
  EXPECT_EQ(h.fold().count, 1u);
}

}  // namespace
