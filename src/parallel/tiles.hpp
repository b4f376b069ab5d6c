// Row-tile cutting for the ExecutionSchedule
// (parallel/execution_schedule.hpp).
//
// A tile is a contiguous row range processed symbolic-then-numeric back to
// back by one thread.  Tiles are cut from the exclusive flop prefix of the
// row partition so that each holds roughly `target_flop` scalar
// multiplications (a dense row cannot stall its owner for long) and never
// more than `row_cap` rows (a run of empty rows cannot balloon one tile's
// bookkeeping).  The ExecutionSchedule cuts each thread's own row range
// here, and that thread alone runs the tiles, in row order.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "parallel/lowbnd.hpp"

namespace spgemm::parallel {

/// One schedulable unit of work: a contiguous row range.
struct TileRange {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;

  [[nodiscard]] std::size_t rows() const { return row_end - row_begin; }
  bool operator==(const TileRange&) const = default;
};

/// Append tiles covering [row_begin, row_end) to `out`.  Each tile targets
/// ~`target_flop` scalar multiplications (0 = no flop bound) and holds at
/// most `row_cap` rows (0 = no row bound) but always at least one row, so a
/// row whose flop exceeds the target gets a tile of its own.  `flop_prefix`
/// is the exclusive flop prefix of the whole matrix (size nrows+1).
inline void cut_tiles(const Offset* flop_prefix, std::size_t row_begin,
                      std::size_t row_end, Offset target_flop,
                      std::size_t row_cap, std::vector<TileRange>& out) {
  std::size_t row = row_begin;
  while (row < row_end) {
    std::size_t next = row_end;
    if (target_flop > 0) {
      const Offset target = flop_prefix[row] + target_flop;
      next = lowbnd(flop_prefix, row_end + 1, target);
    }
    if (row_cap > 0 && next > row + row_cap) next = row + row_cap;
    if (next <= row) next = row + 1;  // always advance: >= 1 row per tile
    if (next > row_end) next = row_end;
    out.push_back({row, next});
    row = next;
  }
}

}  // namespace spgemm::parallel
