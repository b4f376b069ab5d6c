// Telemetry subsystem implementation: global gate, registry, trace writer,
// exporters, and the env-driven periodic file exporter.
#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "../common/env.hpp"
#include "exporters.hpp"
#include "registry.hpp"
#include "span.hpp"
#include "trace.hpp"

namespace spgemm::telemetry {

namespace detail {

namespace {
int initial_enabled() {
  // Explicit SPGEMM_TELEMETRY wins; otherwise a configured export directory
  // implies the user wants data collected.
  const char* flag = std::getenv("SPGEMM_TELEMETRY");
  if (flag != nullptr) return env::get_bool("SPGEMM_TELEMETRY", false) ? 1 : 0;
  const char* dir = std::getenv("SPGEMM_TELEMETRY_DIR");
  return (dir != nullptr && dir[0] != '\0') ? 1 : 0;
}
}  // namespace

std::atomic<int> g_enabled{initial_enabled()};

}  // namespace detail

bool set_enabled(bool on) noexcept {
  return detail::g_enabled.exchange(on ? 1 : 0, std::memory_order_relaxed) !=
         0;
}

std::vector<double> default_seconds_bounds() {
  std::vector<double> b;
  b.reserve(26);
  double v = 1e-6;
  for (int k = 0; k < 26; ++k, v *= 2.0) b.push_back(v);
  return b;
}

// ---- Registry --------------------------------------------------------------

namespace {
std::string metric_key(std::string_view name, std::string_view label_key,
                       std::string_view label_value) {
  std::string k;
  k.reserve(name.size() + label_key.size() + label_value.size() + 2);
  k.append(name);
  k.push_back('\x1f');
  k.append(label_key);
  k.push_back('\x1f');
  k.append(label_value);
  return k;
}
}  // namespace

Registry::Entry& Registry::find_or_create(std::string_view name,
                                          std::string_view help,
                                          std::string_view label_key,
                                          std::string_view label_value,
                                          char kind) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string key = metric_key(name, label_key, label_value);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return *it->second;
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->label_key = std::string(label_key);
  entry->label_value = std::string(label_value);
  entry->kind = kind;
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  by_key_.emplace(key, raw);
  return *raw;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           std::string_view label_key,
                           std::string_view label_value) {
  Entry& e = find_or_create(name, help, label_key, label_value, 'c');
  if (!e.c) e.c = std::make_unique<Counter>();
  return *e.c;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       std::string_view label_key,
                       std::string_view label_value) {
  Entry& e = find_or_create(name, help, label_key, label_value, 'g');
  if (!e.g) e.g = std::make_unique<Gauge>();
  return *e.g;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds,
                               std::string_view label_key,
                               std::string_view label_value) {
  Entry& e = find_or_create(name, help, label_key, label_value, 'h');
  if (!e.h) e.h = std::make_unique<Histogram>(std::move(bounds));
  return *e.h;
}

Histogram& Registry::phase_histogram(std::string_view phase) {
  return histogram("spgemm_phase_seconds",
                   "Duration of instrumented phases (TELEM_SPAN scopes).",
                   default_seconds_bounds(), "phase", phase);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& ep : entries_) {
    const Entry& e = *ep;
    switch (e.kind) {
      case 'c':
        snap.counters.push_back(
            {e.name, e.help, e.label_key, e.label_value, e.c->value()});
        break;
      case 'g':
        snap.gauges.push_back(
            {e.name, e.help, e.label_key, e.label_value, e.g->value()});
        break;
      case 'h': {
        Histogram::Folded f = e.h->fold();
        snap.histograms.push_back({e.name, e.help, e.label_key, e.label_value,
                                   e.h->bounds(), std::move(f.buckets), f.sum,
                                   f.count});
        break;
      }
      default:
        break;
    }
  }
  return snap;
}

Registry& registry() {
  static Registry reg;
  return reg;
}

std::uint64_t next_trace_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void phase_observe(const char* phase, double seconds) {
  if (!enabled()) return;
  // The per-site static in TELEM_SPAN does not apply here (phase is a runtime
  // argument), so pay the registry lookup; callers are per-multiply, not
  // per-row, so this is off the hot path.
  registry().phase_histogram(phase).observe(seconds);
}

// ---- Chrome trace writer ---------------------------------------------------

namespace {
void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
}
}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<const TraceRing*>& rings) {
  std::vector<TraceEvent> events;
  for (const TraceRing* r : rings) {
    if (r == nullptr) continue;
    std::vector<TraceEvent> part = r->snapshot();
    events.insert(events.end(), part.begin(), part.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  const std::uint64_t base =
      events.empty() ? 0 : events.front().ts_ns;

  os << "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  // Track-naming metadata so chrome://tracing labels lane vs overlay rows.
  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> tracks;
  for (const TraceEvent& e : events) tracks[{e.pid, e.tid}] = true;
  for (const auto& [track, unused] : tracks) {
    (void)unused;
    if (!first) os << ",";
    first = false;
    const char* tname = track.second == 0 ? "lane" : "worker";
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << track.first
       << ",\"tid\":" << track.second << ",\"args\":{\"name\":\"" << tname;
    if (track.second != 0) os << "-" << (track.second - 1);
    os << "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    std::string line;
    line.reserve(160);
    line.append("{\"name\":\"");
    json_escape_into(line, e.name);
    line.append("\",\"cat\":\"");
    json_escape_into(line, e.cat);
    line.append("\",\"ph\":\"");
    line.push_back(e.ph);
    line.append("\",\"ts\":");
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.ts_ns - base) * 1e-3);
    line.append(buf);
    if (e.ph == 'X') {
      line.append(",\"dur\":");
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(e.dur_ns) * 1e-3);
      line.append(buf);
    }
    if (e.ph == 'i') line.append(",\"s\":\"t\"");
    std::snprintf(buf, sizeof(buf), ",\"pid\":%u,\"tid\":%u", e.pid, e.tid);
    line.append(buf);
    line.append(",\"args\":{");
    std::snprintf(buf, sizeof(buf), "\"trace_id\":%" PRIu64, e.trace_id);
    line.append(buf);
    if (e.arg_name != nullptr) {
      line.append(",\"");
      json_escape_into(line, e.arg_name);
      std::snprintf(buf, sizeof(buf), "\":%" PRIu64, e.arg);
      line.append(buf);
    }
    line.append("}}");
    os << line;
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

// ---- Exporters -------------------------------------------------------------

namespace {

void write_number(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

std::string prom_sample_labels(const std::string& label_key,
                               const std::string& label_value,
                               const char* extra_key = nullptr,
                               const std::string& extra_value = {}) {
  std::string out;
  const bool has_pair = !label_key.empty();
  const bool has_extra = extra_key != nullptr;
  if (!has_pair && !has_extra) return out;
  out.push_back('{');
  if (has_pair) {
    out.append(label_key);
    out.append("=\"");
    out.append(label_value);
    out.push_back('"');
  }
  if (has_extra) {
    if (has_pair) out.push_back(',');
    out.append(extra_key);
    out.append("=\"");
    out.append(extra_value);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

template <typename Sample>
void prom_family_header(std::ostream& os, const Sample& s, const char* type,
                        std::vector<std::string>& declared) {
  if (std::find(declared.begin(), declared.end(), s.name) != declared.end())
    return;
  declared.push_back(s.name);
  os << "# HELP " << s.name << " "
     << (s.help.empty() ? std::string("(no help)") : s.help) << "\n";
  os << "# TYPE " << s.name << " " << type << "\n";
}

std::string format_le(double bound) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", bound);
  return std::string(buf);
}

}  // namespace

void export_prometheus(std::ostream& os, const Snapshot& snap) {
  std::vector<std::string> declared;
  for (const auto& c : snap.counters) {
    prom_family_header(os, c, "counter", declared);
    os << c.name << prom_sample_labels(c.label_key, c.label_value) << " "
       << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    prom_family_header(os, g, "gauge", declared);
    os << g.name << prom_sample_labels(g.label_key, g.label_value) << " ";
    write_number(os, g.value);
    os << "\n";
  }
  for (const auto& h : snap.histograms) {
    prom_family_header(os, h, "histogram", declared);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cum += h.buckets[b];
      const std::string le =
          b < h.bounds.size() ? format_le(h.bounds[b]) : std::string("+Inf");
      os << h.name << "_bucket"
         << prom_sample_labels(h.label_key, h.label_value, "le", le) << " "
         << cum << "\n";
    }
    os << h.name << "_sum"
       << prom_sample_labels(h.label_key, h.label_value) << " ";
    write_number(os, h.sum);
    os << "\n";
    os << h.name << "_count"
       << prom_sample_labels(h.label_key, h.label_value) << " " << h.count
       << "\n";
  }
}

void export_prometheus(std::ostream& os) {
  export_prometheus(os, registry().snapshot());
}

namespace {
void json_labels(std::ostream& os, const std::string& key,
                 const std::string& value) {
  os << "\"labels\":{";
  if (!key.empty()) os << "\"" << key << "\":\"" << value << "\"";
  os << "}";
}
}  // namespace

void export_json(std::ostream& os, const Snapshot& snap) {
  os << "{\"counters\":[";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const auto& c = snap.counters[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << c.name << "\",";
    json_labels(os, c.label_key, c.label_value);
    os << ",\"value\":" << c.value << "}";
  }
  os << "],\"gauges\":[";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto& g = snap.gauges[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << g.name << "\",";
    json_labels(os, g.label_key, g.label_value);
    os << ",\"value\":";
    write_number(os, g.value);
    os << "}";
  }
  os << "],\"histograms\":[";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << h.name << "\",";
    json_labels(os, h.label_key, h.label_value);
    os << ",\"count\":" << h.count << ",\"sum\":";
    write_number(os, h.sum);
    os << ",\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) os << ",";
      os << "{\"le\":";
      if (b < h.bounds.size()) {
        write_number(os, h.bounds[b]);
      } else {
        os << "\"+Inf\"";
      }
      os << ",\"count\":" << h.buckets[b] << "}";
    }
    os << "]}";
  }
  os << "]}";
}

void export_json(std::ostream& os) { export_json(os, registry().snapshot()); }

std::string export_json_string() {
  std::ostringstream oss;
  export_json(oss);
  return oss.str();
}

// ---- Periodic file exporter ------------------------------------------------

const std::string& export_dir() {
  static const std::string dir = env::get_string("SPGEMM_TELEMETRY_DIR", "");
  return dir;
}

namespace {

/// Serializes this process's artifact writes: the periodic flusher, every
/// flush_export_now() caller and the engines' trace dumps.  Constant-
/// initialized, so it outlives the exporter's final flush at exit.
std::mutex g_write_mu;

/// Write dir/name through a temp file named for this process, then rename
/// it into place, so neither a scraper nor another process exporting to
/// the same directory ever sees a half-written file.  The caller holds
/// g_write_mu.
void write_file_atomically(const std::string& dir, const std::string& name,
                           const std::function<void(std::ostream&)>& body) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  const std::string tmp =
      dir + "/." + name + "." + std::to_string(::getpid()) + ".tmp";
  std::ofstream os(tmp, std::ios::trunc);
  if (!os) return;
  body(os);
  os.close();
  if (os) std::filesystem::rename(tmp, dir + "/" + name, ec);
  if (!os || ec) std::filesystem::remove(tmp, ec);
}

void write_snapshot_files(const std::string& dir) {
  const std::lock_guard<std::mutex> lk(g_write_mu);
  const Snapshot snap = registry().snapshot();
  write_file_atomically(dir, "metrics.prom", [&snap](std::ostream& os) {
    export_prometheus(os, snap);
  });
  write_file_atomically(dir, "metrics.json", [&snap](std::ostream& os) {
    export_json(os, snap);
  });
}

/// Background flusher.  Process-wide singleton; joined at static destruction.
class FileExporter {
 public:
  explicit FileExporter(std::string dir, std::int64_t interval_ms)
      : dir_(std::move(dir)),
        interval_ms_(interval_ms < 100 ? 100 : interval_ms),
        worker_([this] { loop(); }) {}

  ~FileExporter() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
    write_snapshot_files(dir_);  // final flush at exit
  }

  void flush_now() { write_snapshot_files(dir_); }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_; });
      if (stop_) break;
      lk.unlock();
      write_snapshot_files(dir_);
      lk.lock();
    }
  }

  std::string dir_;
  std::int64_t interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread worker_;
};

std::mutex g_exporter_mu;
FileExporter* g_exporter = nullptr;  // owned by the static below once started

FileExporter* exporter_instance() {
  std::lock_guard<std::mutex> lk(g_exporter_mu);
  if (g_exporter == nullptr && !export_dir().empty()) {
    // Touch the registry before constructing the exporter: function-local
    // statics are destroyed in reverse construction order, and the exporter's
    // destructor takes a final snapshot — the registry must outlive it.
    registry();
    static FileExporter exporter(
        export_dir(), env::get_int("SPGEMM_TELEMETRY_INTERVAL_MS", 5000));
    g_exporter = &exporter;
  }
  return g_exporter;
}

}  // namespace

bool ensure_periodic_exporter() { return exporter_instance() != nullptr; }

void flush_export_now() {
  FileExporter* e = exporter_instance();
  if (e != nullptr) e->flush_now();
}

void write_export_file(const std::string& name,
                       const std::function<void(std::ostream&)>& body) {
  if (export_dir().empty()) return;
  const std::lock_guard<std::mutex> lk(g_write_mu);
  write_file_atomically(export_dir(), name, body);
}

}  // namespace spgemm::telemetry
