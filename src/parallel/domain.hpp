#pragma once

// Spatial domain decomposition over a rank grid.
//
// The global orthorhombic box is split into nx x ny x nz equal sub-domains
// (the paper's production run used a 30 x 30 x 31 grid over 27,900 ranks,
// chosen to minimize the surface-to-volume ratio of the halo regions —
// choose() applies the same criterion).

#include <array>

#include "common/error.hpp"
#include "common/vec3.hpp"
#include "md/box.hpp"

namespace ember::parallel {

struct RankGrid {
  int nx = 1, ny = 1, nz = 1;

  [[nodiscard]] int size() const { return nx * ny * nz; }
  // Ranks along dimension d.
  [[nodiscard]] int n(int d) const { return d == 0 ? nx : d == 1 ? ny : nz; }

  // Factorization of nranks minimizing the total halo surface for a box
  // with the given aspect ratio (defaults to cubic).
  static RankGrid choose(int nranks, const Vec3& box_lengths = {1, 1, 1});

  [[nodiscard]] int rank_of(int cx, int cy, int cz) const {
    const auto wrap = [](int c, int n) { return ((c % n) + n) % n; };
    cx = wrap(cx, nx);
    cy = wrap(cy, ny);
    cz = wrap(cz, nz);
    return (cz * ny + cy) * nx + cx;
  }

  [[nodiscard]] std::array<int, 3> coords_of(int rank) const {
    return {rank % nx, (rank / nx) % ny, rank / (nx * ny)};
  }
};

class Domain {
 public:
  Domain(const md::Box& global_box, const RankGrid& grid, int rank);

  [[nodiscard]] const RankGrid& grid() const { return grid_; }
  [[nodiscard]] Vec3 lo() const { return lo_; }
  [[nodiscard]] Vec3 hi() const { return hi_; }
  [[nodiscard]] Vec3 lengths() const { return hi_ - lo_; }

  // The box a rank's atoms live in: the global lengths, periodic exactly
  // where the global box is and the grid does not split. A split
  // dimension is reached through ghost copies instead of image shifts.
  [[nodiscard]] md::Box rank_box() const;

  // Owner rank of a position already wrapped into the global box.
  [[nodiscard]] int owner_of(const Vec3& pos) const;

  [[nodiscard]] bool owns(const Vec3& pos) const {
    return owner_of(pos) == rank_;
  }

 private:
  md::Box global_;
  RankGrid grid_;
  int rank_;
  Vec3 lo_;
  Vec3 hi_;
};

}  // namespace ember::parallel
