#include "domain.hpp"

#include <algorithm>
#include <cmath>

namespace ember::parallel {

RankGrid RankGrid::choose(int nranks, const Vec3& box_lengths) {
  EMBER_REQUIRE(nranks >= 1, "need at least one rank");
  RankGrid best;
  double best_surface = std::numeric_limits<double>::infinity();
  for (int nx = 1; nx <= nranks; ++nx) {
    if (nranks % nx != 0) continue;
    const int rem = nranks / nx;
    for (int ny = 1; ny <= rem; ++ny) {
      if (rem % ny != 0) continue;
      const int nz = rem / ny;
      // Per-domain surface area (halo volume is proportional to it).
      const double lx = box_lengths.x / nx;
      const double ly = box_lengths.y / ny;
      const double lz = box_lengths.z / nz;
      const double surface = 2.0 * (lx * ly + ly * lz + lz * lx);
      if (surface < best_surface) {
        best_surface = surface;
        best = {nx, ny, nz};
      }
    }
  }
  return best;
}

Domain::Domain(const md::Box& global_box, const RankGrid& grid, int rank)
    : global_(global_box), grid_(grid), rank_(rank) {
  EMBER_REQUIRE(rank >= 0 && rank < grid.size(), "rank outside the grid");
  const auto c = grid.coords_of(rank);
  for (int d = 0; d < 3; ++d) {
    const double w = global_.length(d) / grid.n(d);
    lo_[d] = c[d] * w;
    hi_[d] = (c[d] + 1) * w;
  }
}

md::Box Domain::rank_box() const {
  std::array<bool, 3> periodic{};
  for (int d = 0; d < 3; ++d) {
    periodic[d] = global_.periodic(d) && grid_.n(d) == 1;
  }
  return md::Box(global_.length(0), global_.length(1), global_.length(2),
                 periodic);
}

int Domain::owner_of(const Vec3& pos) const {
  int c[3];
  for (int d = 0; d < 3; ++d) {
    const double w = global_.length(d) / grid_.n(d);
    c[d] = std::clamp(static_cast<int>(pos[d] / w), 0, grid_.n(d) - 1);
  }
  return grid_.rank_of(c[0], c[1], c[2]);
}

}  // namespace ember::parallel
