#pragma once

// Cell-list construction of full neighbor lists with periodic shifts.
//
// The list stores, for every local atom i, the indices of all atoms j with
// |r_j + shift - r_i| < cutoff (j may equal another local atom or, in
// parallel runs, a ghost). Shift vectors make minimum-image arithmetic
// unnecessary in force kernels: rij = x[j] + shift(ij) - x[i].
//
// A skin distance is added so the list stays valid while atoms move less
// than skin/2; needs_rebuild() tracks the displacement criterion.
//
// Builds accept an optional ComputeContext: cell binning and the per-atom
// neighbor searches are then distributed over the context's thread pool
// (contiguous atom blocks into per-thread row buffers, stitched into the
// CSR arrays by a serial prefix sum + parallel copy). The emitted list is
// identical to the serial one entry for entry.

#include <functional>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "md/system.hpp"

namespace ember::md {

class ComputeContext;

class NeighborList {
 public:
  struct Entry {
    int j;       // neighbor atom index (local or ghost)
    Vec3 shift;  // periodic image shift to add to x[j]
  };

  NeighborList() = default;
  NeighborList(double cutoff, double skin) : cutoff_(cutoff), skin_(skin) {}

  [[nodiscard]] double cutoff() const { return cutoff_; }
  [[nodiscard]] double skin() const { return skin_; }

  // Rebuild the full list for all local atoms of sys. Neighbors are found
  // through periodic image shifts along the dimensions sys.box() marks
  // periodic; an open dimension is searched over the atoms' extent with no
  // wrap. When use_ghosts is true the atoms past nlocal (a parallel rank's
  // pre-shifted ghost copies) are candidates too; it does not change how
  // the list is built.
  void build(const System& sys, bool use_ghosts = false,
             const ComputeContext* ctx = nullptr);

  // Batched build over several independent replicas laid out back to back
  // in one System: replica r occupies atoms [offsets[r], offsets[r+1])
  // and lives in its own periodic box. Atoms of different replicas never
  // appear as neighbors of each other (the deck's multi-replica lockstep
  // scheme: one combined list, one force pass, zero cross-talk).
  void build_batched(const System& combined, std::span<const Box> boxes,
                     std::span<const int> offsets,
                     const ComputeContext* ctx = nullptr);

  [[nodiscard]] bool needs_rebuild(const System& sys) const;

  // Neighbors of local atom i.
  [[nodiscard]] std::span<const Entry> neighbors(int i) const {
    const int begin = first_[i];
    return {entries_.data() + begin,
            static_cast<std::size_t>(first_[i + 1] - begin)};
  }

  [[nodiscard]] int num_atoms() const {
    return static_cast<int>(first_.size()) - 1;
  }
  [[nodiscard]] std::size_t total_pairs() const { return entries_.size(); }
  [[nodiscard]] double average_neighbors() const {
    return num_atoms() > 0 ? static_cast<double>(entries_.size()) / num_atoms()
                           : 0.0;
  }

 private:
  // Test-only backdoor: tests/check corrupts entries through this to
  // prove the checked build detects asymmetric/out-of-range lists.
  friend struct NeighborListTestAccess;

  // Per-atom neighbor search: appends the row of atom i to `out`.
  using RowSearch = std::function<void(int i, std::vector<Entry>&)>;

  // Rows for the atoms [begin, end) over the candidates [begin, cand_end)
  // using `box`; appends CSR rows for those atoms (callers proceed in index
  // order). Bins into cells unless a periodic dimension is shorter than
  // three list radii, which falls back to a search over all candidates.
  void build_periodic_range(const System& sys, const Box& box, int begin,
                            int end, int cand_end, const ComputeContext* ctx);
  void build_brute_force_range(const System& sys, const Box& box, int begin,
                               int end, int cand_end,
                               const ComputeContext* ctx);
  void build_cells_range(const System& sys, const Box& box, int begin,
                         int end, int cand_end, const ComputeContext* ctx);
  // Run `search` for every atom of [begin, end) and stitch the rows into
  // first_/entries_ — serially, or over the context's pool.
  void emit_rows(int begin, int end, const ComputeContext* ctx,
                 const RowSearch& search);

  double cutoff_ = 0.0;
  double skin_ = 0.5;
  std::vector<int> first_;       // CSR offsets, size nlocal+1
  std::vector<Entry> entries_;
  std::vector<Vec3> x_at_build_;  // positions when the list was built
  Vec3 box_at_build_{};           // box lengths when the list was built
};

}  // namespace ember::md
