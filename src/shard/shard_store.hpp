// ShardStore — a budgeted resident set of CSR shards with disk spill.
//
// The out-of-core tier's working memory: shards (keyed by a caller-composed
// 64-bit id) live in DRAM while the resident set fits the byte budget;
// beyond it, the least-recently-used unpinned shard is written to a spill
// file and its DRAM copy dropped.  pin() brings a shard back (read from its
// spill file) and holds it resident until the Pin dies — the driver pins
// exactly the shards of the block product it is executing, so eviction can
// never pull a buffer out from under a running kernel.
//
// Shards are immutable once put(): a spill file, once written, stays valid
// for the lifetime of the entry, so re-evicting a previously spilled shard
// is free (drop the DRAM copy, keep the file).
//
// Read-back is one portable stdio path: the file's length is checked
// against the sizes its header declares, then each array is fread straight
// into the shard's buffers.  A truncated or corrupt spill therefore fails
// before anything is allocated from the header.
//
// Error contract: every I/O failure surfaces as a typed SpGemmError —
// kInternal for write/read failures and truncated files (including the two
// injected fault points "shard.spill.write" and "shard.load.map", the
// read-back), kOutOfMemory when re-materialising a shard exhausts memory.
// Nothing is silently dropped.
//
// Threading: NOT thread-safe.  The store belongs to the sharded driver's
// orchestration thread; engine workers only ever see pinned (immutable,
// resident) shards.
#pragma once

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "matrix/csr.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace spgemm::shard {

namespace detail {
/// Process-wide telemetry mirrors of the ShardStore I/O counters.
struct ShardStoreTelemetry {
  telemetry::Counter& spills;
  telemetry::Counter& loads;
  static ShardStoreTelemetry& get() {
    auto& reg = telemetry::registry();
    static ShardStoreTelemetry t{
        reg.counter("spgemm_shard_spills_total",
                    "Shards written out to spill files."),
        reg.counter("spgemm_shard_loads_total",
                    "Shards re-materialised from spill files.")};
    return t;
  }
};
}  // namespace detail

struct ShardStoreOptions {
  /// Resident-set budget in bytes; 0 means unbounded (never spill).
  std::size_t memory_budget_bytes = 0;
  /// Spill directory; empty falls back to $SPGEMM_SHARD_DIR, then the
  /// system temp directory.  The store creates (and on destruction removes)
  /// a process-unique subdirectory underneath.
  std::string spill_dir;
  /// Optional trace destination: spill/load instants are recorded here on
  /// track (trace_pid, 0).  The sharded driver points this at its engine's
  /// synchronous-caller ring so shard I/O shows up beside the block
  /// products it serves.  Null = no tracing.
  telemetry::TraceRing* trace = nullptr;
  int trace_pid = 0;
};

struct ShardStoreStats {
  std::uint64_t spills = 0;          ///< shard write-outs to disk
  std::uint64_t loads = 0;           ///< shard re-materialisations from disk
  std::size_t resident_bytes = 0;    ///< current DRAM footprint
  std::size_t peak_resident_bytes = 0;
  std::size_t spilled_bytes = 0;     ///< bytes currently on disk only
};

template <IndexType IT, ValueType VT>
class ShardStore {
 public:
  using Matrix = CsrMatrix<IT, VT>;

  explicit ShardStore(ShardStoreOptions opts = {}) : opts_(std::move(opts)) {}

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  ~ShardStore() {
    if (!dir_.empty()) {
      std::error_code ec;  // best-effort cleanup; destructor must not throw
      std::filesystem::remove_all(dir_, ec);
    }
  }

  /// Insert (or replace) a shard.  The new shard is resident; older shards
  /// may be evicted to honour the budget.
  void put(std::uint64_t key, Matrix m) {
    erase(key);
    Entry e;
    e.bytes = matrix_bytes(m);
    e.mat = std::move(m);
    e.resident = true;
    e.lru = ++clock_;
    stats_.resident_bytes += e.bytes;
    stats_.peak_resident_bytes =
        std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
    entries_.emplace(key, std::move(e));
    enforce_budget();
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return entries_.count(key) != 0;
  }

  /// RAII residency guarantee: while alive, the shard stays in DRAM.
  class Pin {
   public:
    Pin() = default;
    Pin(ShardStore* store, std::uint64_t key, const Matrix* mat)
        : store_(store), key_(key), mat_(mat) {}
    Pin(Pin&& o) noexcept { *this = std::move(o); }
    Pin& operator=(Pin&& o) noexcept {
      release();
      store_ = std::exchange(o.store_, nullptr);
      key_ = o.key_;
      mat_ = std::exchange(o.mat_, nullptr);
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    const Matrix& operator*() const { return *mat_; }
    const Matrix* operator->() const { return mat_; }
    [[nodiscard]] const Matrix* get() const { return mat_; }

   private:
    void release() {
      if (store_ != nullptr) {
        store_->unpin(key_);
        store_ = nullptr;
        mat_ = nullptr;
      }
    }
    ShardStore* store_ = nullptr;
    std::uint64_t key_ = 0;
    const Matrix* mat_ = nullptr;
  };

  /// Pin a shard resident, loading it from its spill file if evicted.
  /// Throws SpGemmError(kBadInput) for unknown keys, kInternal/kOutOfMemory
  /// on load failure.
  Pin pin(std::uint64_t key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "ShardStore: pin of unknown shard key");
    }
    Entry& e = it->second;
    // Pin BEFORE any budget enforcement: a shard loaded while over budget
    // must never be the eviction victim of its own load.
    e.lru = ++clock_;
    ++e.pins;
    if (!e.resident) {
      try {
        load(e);
      } catch (...) {
        --e.pins;
        throw;
      }
      enforce_budget();  // loading may push the resident set over budget
    }
    return Pin(this, key, &e.mat);
  }

  /// Drop a shard and any spill file it owns.
  void erase(std::uint64_t key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    Entry& e = it->second;
    if (e.resident) {
      stats_.resident_bytes -= e.bytes;
    } else {
      stats_.spilled_bytes -= e.bytes;
    }
    if (!e.file.empty()) {
      std::error_code ec;
      std::filesystem::remove(e.file, ec);
    }
    entries_.erase(it);
  }

  [[nodiscard]] const ShardStoreStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t budget() const {
    return opts_.memory_budget_bytes;
  }

  /// DRAM footprint of one shard's arrays (what the budget meters).
  static std::size_t matrix_bytes(const Matrix& m) {
    return m.rpts.size() * sizeof(Offset) + m.cols.size() * sizeof(IT) +
           m.vals.size() * sizeof(VT);
  }

 private:
  struct Entry {
    Matrix mat;
    std::size_t bytes = 0;
    bool resident = false;
    int pins = 0;
    std::uint64_t lru = 0;
    std::filesystem::path file;  ///< non-empty once a spill copy exists
  };

  // On-disk layout: FileHeader, then rpts, cols, vals back to back.
  struct FileHeader {
    std::uint64_t nrows = 0;
    std::uint64_t ncols = 0;
    std::uint64_t nnz = 0;
    std::uint64_t sorted = 0;
  };

  void unpin(std::uint64_t key) {
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.pins > 0) {
      --it->second.pins;
      if (it->second.pins == 0) enforce_budget();
    }
  }

  void enforce_budget() {
    if (opts_.memory_budget_bytes == 0) return;
    while (stats_.resident_bytes > opts_.memory_budget_bytes) {
      Entry* victim = nullptr;
      for (auto& [key, e] : entries_) {
        if (!e.resident || e.pins > 0) continue;
        if (victim == nullptr || e.lru < victim->lru) victim = &e;
      }
      if (victim == nullptr) return;  // everything left is pinned
      evict(*victim);
    }
  }

  /// Spill/load instant on the configured trace ring (self-gated: costs a
  /// relaxed load when telemetry is off or no ring is attached).
  void trace_io(const char* name, std::size_t bytes) {
    if (opts_.trace == nullptr || !telemetry::enabled()) return;
    telemetry::TraceEvent e;
    e.name = name;
    e.cat = "shard";
    e.ph = 'i';
    e.ts_ns = monotonic_ns();
    e.pid = static_cast<std::uint32_t>(opts_.trace_pid);
    e.tid = 0;
    e.arg_name = "bytes";
    e.arg = static_cast<std::uint64_t>(bytes);
    opts_.trace->record(e);
  }

  void evict(Entry& e) {
    if (e.file.empty()) {
      spill(e);
      ++stats_.spills;
      detail::ShardStoreTelemetry::get().spills.add(1);
      trace_io("shard.spill", e.bytes);
    }
    e.mat = Matrix();  // drop the DRAM copy (spill file stays valid)
    e.resident = false;
    stats_.resident_bytes -= e.bytes;
    stats_.spilled_bytes += e.bytes;
  }

  std::filesystem::path spill_root() {
    if (!dir_.empty()) return dir_;
    std::filesystem::path base =
        !opts_.spill_dir.empty()
            ? std::filesystem::path(opts_.spill_dir)
            : std::filesystem::path(
                  env::get_string("SPGEMM_SHARD_DIR",
                                  std::filesystem::temp_directory_path()
                                      .string()));
    static std::atomic<std::uint64_t> instance{0};
    dir_ = base / ("spgemm-shards-" + std::to_string(::getpid()) + "-" +
                   std::to_string(instance.fetch_add(1)));
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      dir_.clear();
      throw SpGemmError(ErrorCode::kInternal,
                        "ShardStore: cannot create spill directory: " +
                            ec.message());
    }
    return dir_;
  }

  void spill(Entry& e) {
    try {
      SPGEMM_FAULT_RAISE("shard.spill.write");
      const std::filesystem::path path =
          spill_root() / (std::to_string(next_file_++) + ".shard");
      std::FILE* f = std::fopen(path.c_str(), "wb");
      if (f == nullptr) {
        throw SpGemmError(ErrorCode::kInternal,
                          "ShardStore: cannot open spill file " +
                              path.string() + ": " + std::strerror(errno));
      }
      FileHeader h;
      h.nrows = static_cast<std::uint64_t>(e.mat.nrows);
      h.ncols = static_cast<std::uint64_t>(e.mat.ncols);
      h.nnz = static_cast<std::uint64_t>(e.mat.nnz());
      h.sorted = e.mat.claims_sorted() ? 1 : 0;
      bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
      ok = ok && write_array(f, e.mat.rpts.data(), e.mat.rpts.size());
      ok = ok && write_array(f, e.mat.cols.data(), e.mat.cols.size());
      ok = ok && write_array(f, e.mat.vals.data(), e.mat.vals.size());
      ok = std::fclose(f) == 0 && ok;
      if (!ok) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        throw SpGemmError(ErrorCode::kInternal,
                          "ShardStore: short write spilling shard to " +
                              path.string());
      }
      e.file = path;
    } catch (const fault::InjectedFault& f) {
      throw SpGemmError(ErrorCode::kInternal, f.what());
    } catch (const std::bad_alloc&) {
      throw SpGemmError(ErrorCode::kOutOfMemory,
                        "ShardStore: out of memory during spill");
    }
  }

  void load(Entry& e) {
    try {
      SPGEMM_FAULT_RAISE("shard.load.map");
      Matrix m = read_file(e.file);
      e.mat = std::move(m);
      e.resident = true;
      ++stats_.loads;
      detail::ShardStoreTelemetry::get().loads.add(1);
      trace_io("shard.load", e.bytes);
      stats_.resident_bytes += e.bytes;
      stats_.spilled_bytes -= e.bytes;
      stats_.peak_resident_bytes =
          std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
    } catch (const fault::InjectedFault& f) {
      throw SpGemmError(ErrorCode::kInternal, f.what());
    } catch (const std::bad_alloc&) {
      throw SpGemmError(ErrorCode::kOutOfMemory,
                        "ShardStore: out of memory re-materialising shard");
    }
  }

  /// True when a file of `size` bytes can hold the arrays `h` declares.
  /// Divides rather than multiplies, so a corrupt header cannot overflow.
  static bool holds(const FileHeader& h, std::uintmax_t size) {
    if (size < sizeof(h)) return false;
    const std::uintmax_t body = size - sizeof(h);
    if (h.nrows >= body / sizeof(Offset)) return false;
    const std::uintmax_t rest = body - (h.nrows + 1) * sizeof(Offset);
    return h.nnz <= rest / (sizeof(IT) + sizeof(VT));
  }

  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  Matrix read_file(const std::filesystem::path& path) {
    const std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "rb"));
    if (!f) {
      throw SpGemmError(ErrorCode::kInternal,
                        "ShardStore: cannot open spill file " +
                            path.string() + ": " + std::strerror(errno));
    }
    // Check the header against the file's length before sizing anything
    // from it.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    FileHeader h;
    if (ec || std::fread(&h, sizeof(h), 1, f.get()) != 1 || !holds(h, size)) {
      throw SpGemmError(ErrorCode::kInternal,
                        "ShardStore: truncated spill file " + path.string());
    }
    Matrix m;
    m.nrows = static_cast<IT>(h.nrows);
    m.ncols = static_cast<IT>(h.ncols);
    m.sortedness = h.sorted != 0 ? Sortedness::kSorted : Sortedness::kUnsorted;
    m.rpts.resize(static_cast<std::size_t>(h.nrows) + 1);
    m.cols.resize(static_cast<std::size_t>(h.nnz));
    m.vals.resize(static_cast<std::size_t>(h.nnz));
    if (!read_array(f.get(), m.rpts.data(), m.rpts.size()) ||
        !read_array(f.get(), m.cols.data(), m.cols.size()) ||
        !read_array(f.get(), m.vals.data(), m.vals.size())) {
      throw SpGemmError(ErrorCode::kInternal,
                        "ShardStore: short read from spill file " +
                            path.string());
    }
    return m;
  }

  template <class T>
  static bool write_array(std::FILE* f, const T* data, std::size_t count) {
    return count == 0 || std::fwrite(data, sizeof(T), count, f) == count;
  }
  template <class T>
  static bool read_array(std::FILE* f, T* data, std::size_t count) {
    return count == 0 || std::fread(data, sizeof(T), count, f) == count;
  }

  ShardStoreOptions opts_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  ShardStoreStats stats_;
  std::uint64_t clock_ = 0;
  std::uint64_t next_file_ = 0;
  std::filesystem::path dir_;
};

}  // namespace spgemm::shard
