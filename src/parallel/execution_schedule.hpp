// ExecutionSchedule — a persistent, flop-balanced tile schedule.
//
// One object owns everything the tiled two-phase passes need to know about
// WHO runs WHICH rows: each thread's RowPartition range (the paper's Fig. 6
// flop-balanced split), cut into tiles by parallel/tiles.hpp, and the widest
// row and the flop of each range, which size that thread's accumulator and
// capture scratch (Fig. 7).  Every pass of the two-phase row pipeline
// (core/spgemm_twophase.hpp) — the one-shot product, the handle's plan and
// execute, multiply_rap — traverses a schedule cut by the same
// PlanCore::configure, so they can never disagree on tile cuts, ownership,
// or accumulator sizing.
//
// Assignment is static: thread t runs exactly its own tiles, in row order.
// Its rows are therefore one contiguous range, and every pass stages them
// as one block that placement copies out in one go.  Row-level work is
// deterministic per row, so the tile cuts can never change the numeric
// result.
//
// A schedule is built once (per plan) and traversed many times.  Its only
// per-pass state is the seat count the serving engine attaches.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "parallel/rows_to_threads.hpp"
#include "parallel/tiles.hpp"

namespace spgemm::parallel {

class ExecutionSchedule {
 public:
  ExecutionSchedule() = default;

  /// Cut each thread's partition range into tiles of ~`target_flop` scalar
  /// multiplications (0 = row cap only) and at most `row_cap` rows, and
  /// record each range's sizing bounds.
  void build(const RowPartition& part, std::size_t row_cap,
             Offset target_flop) {
    tiles_.clear();
    const int nthreads = part.threads();
    owner_begin_.assign(static_cast<std::size_t>(nthreads) + 1, 0);
    owned_max_row_flop_.assign(static_cast<std::size_t>(nthreads), 0);
    owned_flop_.assign(static_cast<std::size_t>(nthreads), 0);
    for (int t = 0; t < nthreads; ++t) {
      const auto ut = static_cast<std::size_t>(t);
      cut_tiles(part.flop_prefix.data(), part.offsets[ut],
                part.offsets[ut + 1], target_flop, row_cap, tiles_);
      owner_begin_[ut + 1] = tiles_.size();
      owned_max_row_flop_[ut] = part.max_row_flop(t);
      owned_flop_[ut] = part.flop_prefix[part.offsets[ut + 1]] -
                        part.flop_prefix[part.offsets[ut]];
    }
  }

  [[nodiscard]] int threads() const {
    return static_cast<int>(owner_begin_.size()) - 1;
  }

  /// Widest row flop a thread's accumulator must hold: its own rows only.
  [[nodiscard]] Offset sizing_max_row_flop(int tid) const {
    return owned_max_row_flop_[static_cast<std::size_t>(tid)];
  }

  /// Flop bound for sizing a thread's capture scratch: its own rows' flop.
  /// Shared by every pass of the row pipeline so capture eligibility can
  /// never diverge between one-shot and planned products.
  [[nodiscard]] Offset capture_flop_bound(int tid) const {
    return owned_flop_[static_cast<std::size_t>(tid)];
  }

  // ---- Pass occupancy (engine execution lanes) ---------------------------
  //
  // The serving engine packs small products onto the seats a large
  // product's pass is NOT holding right now.  With a seat sink attached,
  // each pass start sets it to the pass's worker count and each worker's
  // worker_done() gives one seat back and wakes whoever waits on the sink
  // (std::atomic::wait), so the engine's helpers widen as lane workers
  // drain.  Occupancy is per pass, not per plan.

  /// Give back the calling worker's seat: its share of the current pass is
  /// finished.  Called once per worker per pass by the row pipeline.
  void worker_done() const {
    if (seat_sink_ == nullptr) return;
    seat_sink_->fetch_sub(1, std::memory_order_relaxed);
    seat_sink_->notify_all();
  }

  /// Charge every worker's seat ahead of a pass.
  void reset_occupancy() const {
    if (seat_sink_ != nullptr) {
      seat_sink_->store(threads(), std::memory_order_relaxed);
    }
  }

  /// Count this schedule's held seats in an engine-owned counter (nullptr
  /// detaches).  The sink must outlive every pass run while it is attached.
  void set_seat_sink(std::atomic<int>* sink) { seat_sink_ = sink; }

  /// Visit thread `tid`'s tiles in row order: void(const TileRange&).
  template <typename Visit>
  void for_each_tile(int tid, Visit&& visit) const {
    const auto t = static_cast<std::size_t>(tid);
    for (std::size_t i = owner_begin_[t]; i < owner_begin_[t + 1]; ++i) {
      visit(tiles_[i]);
    }
  }

 private:
  std::vector<TileRange> tiles_;          ///< all tiles, global row order
  std::vector<std::size_t> owner_begin_;  ///< tiles_[b[t]..b[t+1]) owned by t
  std::vector<Offset> owned_max_row_flop_;
  std::vector<Offset> owned_flop_;  ///< flop share of each thread's range
  std::atomic<int>* seat_sink_ = nullptr;  ///< engine lane seat count
};

}  // namespace spgemm::parallel
