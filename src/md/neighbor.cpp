#include "neighbor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "md/compute_context.hpp"
#include "obs/metrics.hpp"

namespace ember::md {

namespace {
// Threaded builds only engage for a non-serial context.
bool threaded(const ComputeContext* ctx) { return ctx != nullptr && !ctx->serial(); }
}  // namespace

void NeighborList::build(const System& sys, bool use_ghosts,
                         const ComputeContext* ctx) {
  EMBER_REQUIRE(cutoff_ > 0.0, "neighbor list cutoff not set");
  first_.assign(sys.nlocal() + 1, 0);
  entries_.clear();
  build_periodic_range(sys, sys.box(), 0, sys.nlocal(),
                       use_ghosts ? sys.ntotal() : sys.nlocal(), ctx);

  x_at_build_.assign(sys.x.begin(), sys.x.begin() + sys.nlocal());
  box_at_build_ = sys.box().lengths();

  static obs::Counter& builds = obs::Registry::global().counter("neigh.builds");
  static obs::Gauge& pairs = obs::Registry::global().gauge("neigh.pairs");
  builds.inc();
  pairs.set(static_cast<double>(entries_.size()));
}

void NeighborList::build_batched(const System& combined,
                                 std::span<const Box> boxes,
                                 std::span<const int> offsets,
                                 const ComputeContext* ctx) {
  EMBER_REQUIRE(cutoff_ > 0.0, "neighbor list cutoff not set");
  EMBER_REQUIRE(offsets.size() == boxes.size() + 1 &&
                    offsets.front() == 0 &&
                    offsets.back() == combined.nlocal(),
                "batched offsets must tile the combined system");
  first_.assign(combined.nlocal() + 1, 0);
  entries_.clear();
  for (std::size_t r = 0; r < boxes.size(); ++r) {
    build_periodic_range(combined, boxes[r], offsets[r], offsets[r + 1],
                         offsets[r + 1], ctx);
  }
  x_at_build_.assign(combined.x.begin(),
                     combined.x.begin() + combined.nlocal());
  box_at_build_ = combined.box().lengths();
}

void NeighborList::build_periodic_range(const System& sys, const Box& box,
                                        int begin, int end, int cand_end,
                                        const ComputeContext* ctx) {
  // The cell stencil reaches one cell each way, so a periodic dimension
  // needs three cells to keep every image distinct; an open dimension
  // bins the candidates' extent and fits any size.
  const double rlist = cutoff_ + skin_;
  bool cells_ok = true;
  for (int d = 0; d < 3; ++d) {
    cells_ok = cells_ok && (!box.periodic(d) || box.length(d) / rlist >= 3.0);
  }
  if (cells_ok) {
    build_cells_range(sys, box, begin, end, cand_end, ctx);
  } else {
    build_brute_force_range(sys, box, begin, end, cand_end, ctx);
  }
}

bool NeighborList::needs_rebuild(const System& sys) const {
  if (static_cast<int>(x_at_build_.size()) != sys.nlocal()) return true;
  // A barostat changes the box: every stored shift is invalid.
  const Vec3 db = sys.box().lengths() - box_at_build_;
  if (db.norm2() != 0.0) return true;
  const double limit2 = 0.25 * skin_ * skin_;
  for (int i = 0; i < sys.nlocal(); ++i) {
    // Use minimum image: positions may have been rewrapped since build.
    const Vec3 d = sys.box().minimum_image(x_at_build_[i], sys.x[i]);
    if (d.norm2() > limit2) return true;
  }
  return false;
}

void NeighborList::emit_rows(int begin, int end, const ComputeContext* ctx,
                             const RowSearch& search) {
  if (!threaded(ctx)) {
    // Serial: append rows directly in atom order, exactly like the
    // pre-threading builders did.
    std::vector<Entry> row;
    for (int i = begin; i < end; ++i) {
      row.clear();
      search(i, row);
      entries_.insert(entries_.end(), row.begin(), row.end());
      first_[i + 1] = static_cast<int>(entries_.size());
    }
    return;
  }

  // Threaded: each worker searches one contiguous atom block into a
  // private buffer (parallel_blocks partitions deterministically from
  // (range, nthreads) alone), then a serial prefix sum sizes the CSR
  // arrays and the same partition copies the buffers into place. The
  // resulting list is identical to the serial one entry for entry.
  const int nth = ctx->nthreads();
  std::vector<std::vector<Entry>> bufs(nth);
  std::vector<int> rowlen(end - begin, 0);
  ctx->pool().parallel_blocks(begin, end, [&](int tid, int b, int e) {
    auto& buf = bufs[tid];
    buf.clear();
    std::vector<Entry> row;
    for (int i = b; i < e; ++i) {
      row.clear();
      search(i, row);
      rowlen[i - begin] = static_cast<int>(row.size());
      buf.insert(buf.end(), row.begin(), row.end());
    }
  });
  for (int i = begin; i < end; ++i) {
    first_[i + 1] = first_[i] + rowlen[i - begin];
  }
  entries_.resize(static_cast<std::size_t>(first_[end]));
  ctx->pool().parallel_blocks(begin, end, [&](int tid, int b, int e) {
    if (b >= e) return;
    std::copy(bufs[tid].begin(), bufs[tid].end(),
              entries_.begin() + first_[b]);
  });
}

void NeighborList::build_brute_force_range(const System& sys, const Box& box,
                                           int begin, int end, int cand_end,
                                           const ComputeContext* ctx) {
  const double rlist = cutoff_ + skin_;
  const double r2 = rlist * rlist;
  // Number of periodic images to search per dimension.
  int span[3];
  for (int d = 0; d < 3; ++d) {
    span[d] = box.periodic(d)
                  ? static_cast<int>(std::ceil(rlist / box.length(d)))
                  : 0;
  }
  emit_rows(begin, end, ctx, [&](int i, std::vector<Entry>& out) {
    for (int j = begin; j < cand_end; ++j) {
      for (int sx = -span[0]; sx <= span[0]; ++sx) {
        for (int sy = -span[1]; sy <= span[1]; ++sy) {
          for (int sz = -span[2]; sz <= span[2]; ++sz) {
            if (j == i && sx == 0 && sy == 0 && sz == 0) continue;
            const Vec3 shift{sx * box.length(0), sy * box.length(1),
                             sz * box.length(2)};
            const Vec3 d = sys.x[j] + shift - sys.x[i];
            if (d.norm2() < r2) {
              out.push_back({j, shift});
            }
          }
        }
      }
    }
  });
}

void NeighborList::build_cells_range(const System& sys, const Box& box,
                                     int begin, int end, int cand_end,
                                     const ComputeContext* ctx) {
  const double rlist = cutoff_ + skin_;
  const double r2 = rlist * rlist;
  const int n = cand_end - begin;

  // A periodic dimension bins [0, L) and reaches across its faces through
  // image shifts; an open one bins the candidates' extent (owners plus any
  // pre-shifted ghosts) and its stencil stops at the edge.
  Vec3 origin{};
  Vec3 extent = box.lengths();
  for (int d = 0; d < 3; ++d) {
    if (box.periodic(d) || n == 0) continue;
    double lo = sys.x[begin][d];
    double hi = lo;
    for (int i = begin + 1; i < cand_end; ++i) {
      lo = std::min(lo, sys.x[i][d]);
      hi = std::max(hi, sys.x[i][d]);
    }
    origin[d] = lo - 1e-9;
    extent[d] = hi - lo + 2e-9;
  }

  int nc[3];
  for (int d = 0; d < 3; ++d) {
    nc[d] = std::max(1, static_cast<int>(std::floor(extent[d] / rlist)));
  }
  const auto cell_of = [&](const Vec3& r, int out[3]) {
    for (int d = 0; d < 3; ++d) {
      const int c = static_cast<int>((r[d] - origin[d]) / extent[d] * nc[d]);
      out[d] = std::clamp(c, 0, nc[d] - 1);
    }
  };

  // Bucket the candidates into cells (counting sort). Assigning cell
  // indices is the FP-heavy part of binning and parallelizes over atoms;
  // the histogram + scatter stay serial (write conflicts).
  const int ncells = nc[0] * nc[1] * nc[2];
  std::vector<int> count(ncells + 1, 0);
  std::vector<int> cell_idx(n);
  const auto assign_cells = [&](int /*tid*/, int b, int e) {
    for (int i = b; i < e; ++i) {
      int c[3];
      cell_of(sys.x[begin + i], c);
      cell_idx[i] = (c[2] * nc[1] + c[1]) * nc[0] + c[0];
    }
  };
  if (threaded(ctx)) {
    ctx->pool().parallel_for(0, n, 4096, assign_cells);
  } else {
    assign_cells(0, 0, n);
  }
  for (int i = 0; i < n; ++i) ++count[cell_idx[i] + 1];
  for (int c = 0; c < ncells; ++c) count[c + 1] += count[c];
  std::vector<int> order(n);
  {
    std::vector<int> cursor(count.begin(), count.end() - 1);
    for (int i = 0; i < n; ++i) order[cursor[cell_idx[i]]++] = begin + i;
  }

  emit_rows(begin, end, ctx, [&](int i, std::vector<Entry>& out) {
    int ci[3];
    cell_of(sys.x[i], ci);
    // The row's stencil per dimension: the cell index and image shift of
    // offsets -1, 0, +1, or cell -1 past the end of an open dimension.
    int cell[3][3];
    double image[3][3];
    for (int d = 0; d < 3; ++d) {
      for (int o = 0; o < 3; ++o) {
        int c = ci[d] + o - 1;
        double shift = 0.0;
        if (c < 0 || c >= nc[d]) {
          if (!box.periodic(d)) {
            c = -1;
          } else if (c < 0) {
            c += nc[d];
            shift = -box.length(d);
          } else {
            c -= nc[d];
            shift = box.length(d);
          }
        }
        cell[d][o] = c;
        image[d][o] = shift;
      }
    }
    for (int oz = 0; oz < 3; ++oz) {
      if (cell[2][oz] < 0) continue;
      for (int oy = 0; oy < 3; ++oy) {
        if (cell[1][oy] < 0) continue;
        for (int ox = 0; ox < 3; ++ox) {
          if (cell[0][ox] < 0) continue;
          const int c = (cell[2][oz] * nc[1] + cell[1][oy]) * nc[0] +
                        cell[0][ox];
          const Vec3 shift{image[0][ox], image[1][oy], image[2][oz]};
          const bool unshifted = shift.norm2() == 0.0;
          for (int s = count[c]; s < count[c + 1]; ++s) {
            const int j = order[s];
            if (j == i && unshifted) continue;
            const Vec3 d = sys.x[j] + shift - sys.x[i];
            if (d.norm2() < r2) out.push_back({j, shift});
          }
        }
      }
    }
  });
}

}  // namespace ember::md
