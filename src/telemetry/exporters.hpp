// Snapshot exporters: Prometheus text exposition format, JSON, and the
// env-driven periodic file exporter (SPGEMM_TELEMETRY_DIR).
#pragma once

#include <functional>
#include <ostream>
#include <string>

#include "registry.hpp"

namespace spgemm::telemetry {

/// Prometheus text exposition format (# HELP / # TYPE per metric family,
/// cumulative histogram buckets with a +Inf terminator).
void export_prometheus(std::ostream& os, const Snapshot& snap);
void export_prometheus(std::ostream& os);  ///< of the global registry

/// JSON snapshot: {"counters":[...],"gauges":[...],"histograms":[...]}.
void export_json(std::ostream& os, const Snapshot& snap);
void export_json(std::ostream& os);  ///< of the global registry

/// JSON snapshot of the global registry as a string (bench embedding).
std::string export_json_string();

/// Directory from SPGEMM_TELEMETRY_DIR ("" when unset).
const std::string& export_dir();

/// Start the process-wide periodic file exporter if SPGEMM_TELEMETRY_DIR is
/// set and it is not already running.  Writes metrics.prom + metrics.json to
/// the directory every SPGEMM_TELEMETRY_INTERVAL_MS (default 5000) ms.
/// Returns true when exporting is active.  Idempotent, thread-safe.
bool ensure_periodic_exporter();

/// Synchronously write metrics.prom + metrics.json to export_dir() (no-op
/// when unset).  Engines call this when they stop so short-lived processes
/// still leave a snapshot behind.
void flush_export_now();

/// Write export_dir()/name from `body` (no-op when unset).  Like the
/// metrics files it goes through a per-process temp file and a rename, and
/// the process's artifact writes run one at a time, so no reader sees a
/// torn file.
void write_export_file(const std::string& name,
                       const std::function<void(std::ostream&)>& body);

}  // namespace spgemm::telemetry
