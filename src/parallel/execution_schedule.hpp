// ExecutionSchedule — a persistent, locality-aware tile schedule.
//
// One object owns everything the tiled two-phase drivers need to know about
// WHO runs WHICH rows: the flop-balanced tile plan (parallel/tiles.hpp cuts
// inside each thread's RowPartition range, so tile ownership is aligned with
// the Fig. 6 partition), the assignment policy, and the per-pass claim state.
// Every pass of the two-phase row pipeline (core/spgemm_twophase.hpp) —
// the one-shot product, the handle's plan and execute, multiply_rap —
// traverses a schedule cut by the same PlanCore::configure, so they can
// never disagree on tile cuts, ownership, or accumulator sizing.
//
// Three assignment policies (SpGemmOptions::tile_schedule):
//   * kStatic   — each thread runs exactly its owned tiles, in row order.
//     No coordination at all; best cache/NUMA affinity on uniform matrices.
//   * kDynamic  — one global atomic cursor over all tiles in row order.
//     Any thread may run any tile; best tail behaviour on extreme skew, no
//     locality.
//   * kStealing — each thread runs its owned tiles front-to-back (the static
//     order, so its statically-affine rows stay cache/NUMA-hot) and only
//     when its own deque drains does it steal — from the BACK of the
//     nearest neighbour's deque, nearest victim first.  Back-stealing takes
//     the tiles the owner would reach last, which are the coldest in the
//     owner's cache; ring-nearest victims keep stolen rows close in NUMA
//     distance.  Under perfect balance this degenerates to the static
//     schedule (zero steals, zero contention beyond one relaxed flag per
//     tile).
//
// A schedule is built once (per plan) and traversed many times: call
// begin_pass() before each traversal to reset the claim cursors; steals()
// reports how many tiles ran on a thread other than their owner during the
// last pass.  Every tile is visited exactly once per pass under every
// policy, and row-level work is deterministic per row, so the assignment
// policy can never change the numeric result — only who computes it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "parallel/rows_to_threads.hpp"
#include "parallel/schedule.hpp"
#include "parallel/tiles.hpp"

namespace spgemm::parallel {

class ExecutionSchedule {
 public:
  ExecutionSchedule() = default;

  /// Cut each thread's partition range into tiles of ~`target_flop` scalar
  /// multiplications (0 = row cap only) and at most `row_cap` rows, and
  /// record ownership.  The claim state is allocated here; begin_pass() must
  /// run before the first traversal.
  void build(const RowPartition& part, TileSchedule policy,
             std::size_t row_cap, Offset target_flop) {
    policy_ = policy;
    tiles_.clear();
    const int nthreads = part.threads();
    owner_begin_.assign(static_cast<std::size_t>(nthreads) + 1, 0);
    owned_max_row_flop_.assign(static_cast<std::size_t>(nthreads), 0);
    owned_flop_.assign(static_cast<std::size_t>(nthreads), 0);
    global_max_row_flop_ = 0;
    total_flop_ = part.total_flop();
    for (int t = 0; t < nthreads; ++t) {
      const auto ut = static_cast<std::size_t>(t);
      cut_tiles(part.flop_prefix.data(), part.offsets[ut],
                part.offsets[ut + 1], target_flop, row_cap, tiles_);
      owner_begin_[ut + 1] = tiles_.size();
      // The thread ranges tile [0, nrows), so these per-range scans are one
      // pass over the matrix and their maxima cover the global maximum.
      owned_max_row_flop_[ut] = part.max_row_flop(t);
      owned_flop_[ut] = part.flop_prefix[part.offsets[ut + 1]] -
                        part.flop_prefix[part.offsets[ut]];
      if (owned_max_row_flop_[ut] > global_max_row_flop_) {
        global_max_row_flop_ = owned_max_row_flop_[ut];
      }
    }
    if (!shared_) shared_ = std::make_unique<Shared>();
    if (policy_ == TileSchedule::kStealing) {
      if (taken_count_ < tiles_.size()) {
        taken_ = std::make_unique<std::atomic<std::uint8_t>[]>(tiles_.size());
        taken_count_ = tiles_.size();
      }
    }
    begin_pass();
  }

  [[nodiscard]] TileSchedule policy() const { return policy_; }
  [[nodiscard]] std::size_t tile_count() const { return tiles_.size(); }
  [[nodiscard]] int threads() const {
    return static_cast<int>(owner_begin_.size()) - 1;
  }
  [[nodiscard]] const TileRange& tile(std::size_t i) const {
    return tiles_[i];
  }
  [[nodiscard]] std::size_t owned_count(int tid) const {
    const auto t = static_cast<std::size_t>(tid);
    return owner_begin_[t + 1] - owner_begin_[t];
  }

  /// Worst-case per-row flop a thread's accumulator must hold: under the
  /// static policy a thread only ever sees its owned rows; under dynamic or
  /// stealing it may run any tile, so sizing must cover the global maximum.
  [[nodiscard]] Offset sizing_max_row_flop(int tid) const {
    return policy_ == TileSchedule::kStatic
               ? owned_max_row_flop_[static_cast<std::size_t>(tid)]
               : global_max_row_flop_;
  }
  [[nodiscard]] Offset global_max_row_flop() const {
    return global_max_row_flop_;
  }

  /// Flop bound for sizing a thread's capture scratch: under the static
  /// policy a thread captures at most its owned rows' flop; under dynamic
  /// or stealing it may run any tile, so only the total flop bounds it.
  /// Shared by every pass of the row pipeline so capture eligibility can
  /// never diverge between one-shot and planned products.
  [[nodiscard]] Offset capture_flop_bound(int tid) const {
    return policy_ == TileSchedule::kStatic
               ? owned_flop_[static_cast<std::size_t>(tid)]
               : total_flop_;
  }

  /// Reset the claim state ahead of one full traversal of the schedule.
  void begin_pass() {
    if (!shared_) return;
    shared_->next.store(0, std::memory_order_relaxed);
    shared_->steals.store(0, std::memory_order_relaxed);
    reset_occupancy();
    if (policy_ == TileSchedule::kStealing) {
      for (std::size_t i = 0; i < tiles_.size(); ++i) {
        taken_[i].store(0, std::memory_order_relaxed);
      }
    }
  }

  /// Tiles run by a thread other than their owner during the last pass.
  [[nodiscard]] std::uint64_t steals() const {
    return shared_ ? shared_->steals.load(std::memory_order_relaxed) : 0;
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
  /// finished.  Called once per worker per pass by the plan/execute
  /// drivers.  Const because the numeric replay traverses a frozen (const)
  /// plan; the sink is claim state, not schedule shape.
  void worker_done() const {
    if (seat_sink_ == nullptr) return;
    seat_sink_->fetch_sub(1, std::memory_order_relaxed);
    seat_sink_->notify_all();
  }

  /// Charge every worker's seat ahead of a pass that does not re-claim
  /// tiles (the numeric replay walks frozen per-thread tile lists and never
  /// calls begin_pass(), but still occupies its workers).
  void reset_occupancy() const {
    if (seat_sink_ != nullptr) {
      seat_sink_->store(threads(), std::memory_order_relaxed);
    }
  }

  /// Count this schedule's held seats in an engine-owned counter (nullptr
  /// detaches).  The sink must outlive every pass run while it is attached.
  void set_seat_sink(std::atomic<int>* sink) { seat_sink_ = sink; }

  /// Traverse thread `tid`'s share of the current pass.
  /// Visit: void(std::size_t tile_index, const TileRange&, bool stolen).
  /// Claim flags use relaxed ordering: they only decide which thread runs a
  /// tile, and all cross-thread visibility of the tile's output is
  /// established by the OpenMP barrier that ends the parallel region.
  template <typename Visit>
  void for_each_tile(int tid, Visit&& visit) {
    const auto t = static_cast<std::size_t>(tid);
    switch (policy_) {
      case TileSchedule::kStatic:
        for (std::size_t i = owner_begin_[t]; i < owner_begin_[t + 1]; ++i) {
          visit(i, tiles_[i], false);
        }
        break;
      case TileSchedule::kDynamic:
        for (std::size_t i = shared_->next.fetch_add(
                 1, std::memory_order_relaxed);
             i < tiles_.size();
             i = shared_->next.fetch_add(1, std::memory_order_relaxed)) {
          visit(i, tiles_[i], false);
        }
        break;
      case TileSchedule::kStealing: {
        // Run the owned deque front-to-back (static affinity order).
        for (std::size_t i = owner_begin_[t]; i < owner_begin_[t + 1]; ++i) {
          if (claim(i)) visit(i, tiles_[i], false);
        }
        // Drained: steal one tile at a time from the back of the nearest
        // victim that still has work, then look again from the nearest.
        // Claim flags only ever transition to taken, so this thief's last
        // back-scan position per victim is a valid upper bound for its next
        // scan — the stolen tail is never rescanned, keeping the thief's
        // total scan work linear in the victims' deque lengths.
        const int nthreads = threads();
        std::vector<std::size_t> back(owner_begin_.begin() + 1,
                                      owner_begin_.end());
        bool stole = true;
        while (stole) {
          stole = false;
          for (int d = 1; d < nthreads && !stole; ++d) {
            for (int dir = 0; dir < 2 && !stole; ++dir) {
              const int v = dir == 0 ? (tid + d) % nthreads
                                     : (tid - d % nthreads + nthreads) %
                                           nthreads;
              if (v == tid || (dir == 1 && v == (tid + d) % nthreads)) {
                continue;  // wrapped onto self / same victim twice
              }
              const auto uv = static_cast<std::size_t>(v);
              std::size_t i = back[uv];
              while (i-- > owner_begin_[uv]) {
                if (claim(i)) {
                  back[uv] = i;
                  shared_->steals.fetch_add(1, std::memory_order_relaxed);
                  visit(i, tiles_[i], true);
                  stole = true;
                  break;
                }
              }
              if (!stole) back[uv] = owner_begin_[uv];  // victim drained
            }
          }
        }
        break;
      }
    }
  }

 private:
  /// Shared mutable pass state lives behind one pointer so the schedule
  /// stays movable (it is persisted inside SpGemmHandle's plan).
  struct Shared {
    std::atomic<std::size_t> next{0};      ///< dynamic-policy global cursor
    std::atomic<std::uint64_t> steals{0};  ///< stolen tiles this pass
  };

  bool claim(std::size_t i) {
    // Test-and-test-and-set: probing an already-taken tile costs a shared
    // read, not a cache-line-invalidating RMW (steal scans walk past many
    // taken flags).
    if (taken_[i].load(std::memory_order_relaxed) != 0) return false;
    return taken_[i].exchange(1, std::memory_order_relaxed) == 0;
  }

  TileSchedule policy_ = TileSchedule::kStatic;
  std::vector<TileRange> tiles_;          ///< all tiles, global row order
  std::vector<std::size_t> owner_begin_;  ///< tiles_[b[t]..b[t+1]) owned by t
  std::vector<Offset> owned_max_row_flop_;
  std::vector<Offset> owned_flop_;  ///< flop share of each thread's range
  Offset global_max_row_flop_ = 0;
  Offset total_flop_ = 0;
  std::unique_ptr<Shared> shared_;
  std::atomic<int>* seat_sink_ = nullptr;  ///< engine lane seat count
  std::unique_ptr<std::atomic<std::uint8_t>[]> taken_;  ///< stealing only
  std::size_t taken_count_ = 0;  ///< grow-only claim-flag capacity
};

}  // namespace spgemm::parallel
