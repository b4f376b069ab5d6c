// Umbrella header: the whole public API.
//
//   #include "spgemm/spgemm.hpp"
//
// The library is organized as five tiers, all running the same two-phase
// kernel machinery underneath:
//
//   1. One-shot: multiply(a, b, opts) / multiply_over<SR>(a, b, opts).
//      Pick a kernel (or let the Table 4 recipe decide) and get C = A*B;
//      these are the only one-shot entry points (kernels have none of
//      their own — each two-phase kernel is an accumulator policy).
//      Two-phase kernels run the row pipeline's one-shot pass
//      (core/spgemm_twophase.hpp): symbolic and numeric back to back per
//      tile of an ExecutionSchedule (parallel/execution_schedule.hpp), A/B
//      rows cache-hot between the phases.  Tier 2's handle and
//      multiply_rap run the same row loops, kernel policies and schedule,
//      so one-shot and planned products are bit-identical.
//
//   2. Inspector-executor: SpGemmHandle<IT, VT> (core/spgemm_handle.hpp).
//      plan(a, b) pays the symbolic phase, flop-balanced partition,
//      ExecutionSchedule and slot-stream capture ONCE; execute(a, b) then
//      serves every later multiply of the same structures with changing
//      values as a numeric-only replay — no symbolic probes, no
//      allocation, values written straight to their final offsets.  This
//      is the MKL inspector-executor / KokkosKernels-handle model the
//      paper benchmarks, applied to all two-phase kernels and any
//      semiring.  Producers that maintain structure fingerprints
//      incrementally (core/structure_hash.hpp) validate stabilized
//      iterations in O(1) via ensure_planned_hashed.
//
//   3. Serving engine: engine::SpGemmEngine (engine/spgemm_engine.hpp).
//      Many INDEPENDENT products, many callers, one worker pool: submit()
//      returns a std::future<Product>, run_batch() serves a whole span,
//      and a fingerprint-keyed PlanCache (engine/plan_cache.hpp) retains
//      SpGemmHandles under a byte budget so every repeated structure —
//      from any caller — replays its plan instead of re-running the
//      symbolic phase.  Admission is ordered by the cost model's flop
//      count: large products fan out across the pool through their
//      handle's ExecutionSchedule, small ones are packed whole onto
//      single workers.
//
//   4. Out-of-core: shard::ShardedSpGemm (shard/sharded_spgemm.hpp).
//      Products whose working state exceeds DRAM (or a caller-set byte
//      budget) run as a 2D walk over block-CSR shards
//      (shard/block_csr.hpp): each C block is served by the engine while
//      a ShardStore (shard/shard_store.hpp) spills cold shards to disk
//      and pins hot ones, the blocking chosen by the memory model.  Each
//      C block is one engine request over assembled panels, bit-identical
//      to the monolithic product.
//
//   5. Applications (apps/): AMG Galerkin products with handle-based
//      re-assembly (GalerkinReassembler, optionally serving all levels
//      through one shared engine), Markov clustering with replan-on-drift
//      (optionally streaming its expansions through an engine), triangle
//      counting (materialized or through the masked product) and
//      multi-source BFS — each built on tiers 1-4.
//
// Individual headers remain includable on their own for faster builds.
#pragma once

#include "common/cpu_features.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/multiply.hpp"
#include "core/recipe.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_masked.hpp"
#include "engine/plan_cache.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/csr.hpp"
#include "matrix/generators.hpp"
#include "matrix/io_matrix_market.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"
#include "matrix/stats.hpp"
#include "matrix/suitesparse_proxy.hpp"
#include "matrix/triangular.hpp"
#include "model/cost_model.hpp"
#include "model/memory_model.hpp"
#include "shard/block_csr.hpp"
#include "shard/shard_store.hpp"
#include "shard/sharded_spgemm.hpp"
