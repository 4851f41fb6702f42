#pragma once

// Execution context handed to every force kernel.
//
// The ComputeContext is the node-level half of the paper's execution
// hierarchy: where the Gordon Bell runs give each MPI rank a Kokkos team
// (GPU thread block), ember gives each driver object a ComputeContext
// that carries
//
//   * the persistent worker pool (ExecutionPolicy{nthreads}),
//   * an optional atom sub-range, so callers can restrict a force pass
//     to a block of atoms (pipelining / overlap experiments),
//   * one Scratch slot per worker: a private force accumulator for
//     scatter-style kernels (SNAP, Tersoff write onto neighbors),
//     partial energy/virial/FLOP sums, and a type-erased per-thread
//     cache where potentials park expensive state (SNAP's per-thread
//     Bispectrum with its U/Y/adjoint buffers — allocated once per thread,
//     not once per atom).
//
// Determinism contract: prepare_* / merge_forces / reduce_ev only use
// statically-partitioned pool sweeps and fixed-order reductions, so a
// run at a fixed thread count is bitwise reproducible.
//
// A default-constructed context is serial and allocation-free on the
// hot path; potentials must keep their serial branch identical to the
// pre-threading code.

#include <algorithm>
#include <any>
#include <memory>
#include <utility>
#include <vector>

#include "common/vec3.hpp"
#include "parallel/thread_pool.hpp"

namespace ember::md {

class System;

class ComputeContext {
 public:
  struct Scratch {
    std::vector<Vec3> f;   // private force array (scatter kernels, tid > 0)
    double energy = 0.0;   // partial sums reduced by reduce_ev()
    double virial = 0.0;
    double flops = 0.0;
    std::any cache;        // potential-specific per-thread state
  };

  struct Reduced {
    double energy = 0.0;
    double virial = 0.0;
    double flops = 0.0;
  };

  explicit ComputeContext(ExecutionPolicy policy = {})
      : policy_{std::max(1, policy.nthreads)},
        scratch_(static_cast<std::size_t>(policy_.nthreads)) {}

  [[nodiscard]] int nthreads() const { return policy_.nthreads; }
  [[nodiscard]] bool serial() const { return policy_.serial(); }
  [[nodiscard]] const ExecutionPolicy& policy() const { return policy_; }

  // The worker pool (created on first use; a 1-thread pool never spawns).
  [[nodiscard]] parallel::ThreadPool& pool() const {
    if (!pool_) {
      pool_ = std::make_unique<parallel::ThreadPool>(policy_.nthreads);
    }
    return *pool_;
  }

  // ---- atom sub-range ----
  // Force kernels honor [begin, end) instead of [0, nlocal) when set.
  void set_atom_range(int begin, int end) {
    range_begin_ = begin;
    range_end_ = end;
  }
  void clear_atom_range() { range_begin_ = range_end_ = -1; }
  [[nodiscard]] std::pair<int, int> atom_range(int nlocal) const {
    if (range_begin_ < 0) return {0, nlocal};
    return {range_begin_, std::min(range_end_, nlocal)};
  }

  // ---- per-thread scratch ----
  [[nodiscard]] Scratch& scratch(int tid) const { return scratch_[tid]; }

  // Typed accessor for the per-thread cache slot; `make` runs on first
  // use (or after another potential reused the slot with another type).
  template <typename T, typename Factory>
  [[nodiscard]] T& cache(int tid, Factory&& make) const {
    Scratch& s = scratch_[tid];
    T* p = std::any_cast<T>(&s.cache);
    if (p == nullptr) {
      s.cache = make();
      p = std::any_cast<T>(&s.cache);
    }
    return *p;
  }

  // Reset the partial energy/virial/FLOP sums of every slot.
  void zero_partials() const {
    for (auto& s : scratch_) s.energy = s.virial = s.flops = 0.0;
  }

  // Zero (and size) the private force arrays of workers 1..T-1; worker 0
  // always writes the System force array directly. Each worker clears its
  // own slot so the O(T * ntotal) memset parallelizes.
  void prepare_scatter(int ntotal) const;

  // sys.f[i] += sum over worker slots 1..T-1 in ascending worker order;
  // parallel over atom blocks, deterministic.
  void merge_forces(System& sys) const;

  // Fixed-order tree reduction of the per-thread partial sums.
  [[nodiscard]] Reduced reduce_ev() const;

 private:
  ExecutionPolicy policy_;
  mutable std::unique_ptr<parallel::ThreadPool> pool_;
  mutable std::vector<Scratch> scratch_;
  int range_begin_ = -1;
  int range_end_ = -1;
};

}  // namespace ember::md
