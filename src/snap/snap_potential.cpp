#include "snap_potential.hpp"

#include <algorithm>
#include <any>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ember::snap {

namespace {
// Initial capacity of the per-atom neighbor scratch; generous for the
// paper's carbon systems (~26 neighbors at 2J=8 cutoffs) so steady state
// never reallocates.
constexpr std::size_t kNeighborReserve = 128;

[[noreturn]] void model_error(const std::string& path, int line,
                              const std::string& what) {
  throw Error(path + ":" + std::to_string(line) + ": " + what);
}

// Whole-token numeric parse: false on an empty token, trailing characters
// or (for doubles) a non-finite value.
template <typename T>
bool parse_token(const std::string& tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}
}  // namespace

void SnapModel::effective_beta(std::span<const double> b,
                               std::vector<double>& out) const {
  out.assign(beta.begin(), beta.end());
  if (!alpha.empty()) {
    const std::size_t n = beta.size();
    for (std::size_t l = 0; l < n; ++l) {
      double sum = 0.0;
      const double* row = alpha.data() + l * n;
      for (std::size_t m = 0; m < n; ++m) sum += row[m] * b[m];
      out[l] += sum;
    }
  }
}

double SnapModel::site_energy(std::span<const double> b) const {
  double e = beta0;
  const std::size_t n = beta.size();
  for (std::size_t l = 0; l < n; ++l) e += beta[l] * b[l];
  if (!alpha.empty()) {
    for (std::size_t l = 0; l < n; ++l) {
      double sum = 0.0;
      const double* row = alpha.data() + l * n;
      for (std::size_t m = 0; m < n; ++m) sum += row[m] * b[m];
      e += 0.5 * b[l] * sum;
    }
  }
  return e;
}

void SnapModel::save(const std::string& path) const {
  std::ofstream os(path);
  EMBER_REQUIRE(os.good(), "cannot open " + path + " for writing");
  os.precision(17);
  os << "# ember SNAP model\n";
  os << "twojmax " << params.twojmax << '\n';
  os << "rcut " << params.rcut << '\n';
  os << "rmin0 " << params.rmin0 << '\n';
  os << "rfac0 " << params.rfac0 << '\n';
  os << "wself " << params.wself << '\n';
  os << "switch " << (params.switch_flag ? 1 : 0) << '\n';
  os << "bzero " << (params.bzero_flag ? 1 : 0) << '\n';
  os << "beta0 " << beta0 << '\n';
  os << "ncoeff " << beta.size() << '\n';
  for (const double b : beta) os << b << '\n';
  os << "nquad " << alpha.size() << '\n';
  for (const double a : alpha) os << a << '\n';
  EMBER_REQUIRE(os.good(), "model write failed");
}

SnapModel SnapModel::load(const std::string& path) {
  std::ifstream is(path);
  EMBER_REQUIRE(is.good(), "cannot open " + path);
  SnapModel m;
  std::size_t ncoeff = 0;
  std::size_t nquad = 0;
  // Coefficient block being filled by the lines after `ncoeff`/`nquad`.
  std::vector<double>* block = nullptr;
  std::size_t block_size = 0;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t && t[0] != '#';) tok.push_back(t);
    if (tok.empty()) continue;

    if (block != nullptr && block->size() < block_size) {
      for (const std::string& t : tok) {
        double v = 0.0;
        if (!parse_token(t, v)) {
          model_error(path, lineno, "bad coefficient '" + t + "'");
        }
        if (block->size() == block_size) {
          model_error(path, lineno, "more coefficients than declared");
        }
        block->push_back(v);
      }
      continue;
    }

    const std::string& key = tok[0];
    if (tok.size() != 2) {
      model_error(path, lineno, "expected '" + key + " <value>'");
    }
    const std::string& val = tok[1];
    const auto value = [&](auto& out) {
      if (!parse_token(val, out)) {
        model_error(path, lineno, "bad value '" + val + "' for " + key);
      }
    };
    const auto flag = [&](bool& out) {
      int v = 0;
      value(v);
      if (v != 0 && v != 1) model_error(path, lineno, key + " must be 0 or 1");
      out = v == 1;
    };
    if (key == "twojmax") value(m.params.twojmax);
    else if (key == "rcut") value(m.params.rcut);
    else if (key == "rmin0") value(m.params.rmin0);
    else if (key == "rfac0") value(m.params.rfac0);
    else if (key == "wself") value(m.params.wself);
    else if (key == "switch") flag(m.params.switch_flag);
    else if (key == "bzero") flag(m.params.bzero_flag);
    else if (key == "kernel") {
      // Older files name a kernel variant; there is one kernel now, so
      // the line is accepted and ignored.
      if (val != "naive" && val != "symmetric" && val != "simd") {
        model_error(path, lineno, "unknown kernel '" + val + "'");
      }
    } else if (key == "beta0") value(m.beta0);
    else if (key == "ncoeff") {
      value(ncoeff);
      block = &m.beta;
      block_size = ncoeff;
    } else if (key == "nquad") {
      value(nquad);
      block = &m.alpha;
      block_size = nquad;
    } else {
      model_error(path, lineno, "unknown key '" + key + "'");
    }
  }
  if (ncoeff == 0 || m.beta.size() != ncoeff || m.alpha.size() != nquad) {
    model_error(path, lineno, "model file truncated");
  }
  return m;
}

SnapPotential::Worker::Worker(const SnapModel& model, Bispectrum kernel)
    : bi(std::move(kernel)) {
  const int w = bi.lane_width();
  rij.resize(w);
  jlist.resize(w);
  for (int l = 0; l < w; ++l) {
    rij[l].reserve(kNeighborReserve);
    jlist[l].reserve(kNeighborReserve);
  }
  beta_eff.reserve(model.beta.size());
  if (model.quadratic()) {
    coeff.assign(bi.index().z_triples().size() * w, 0.0);
  }
  de.reserve(kNeighborReserve);
}

SnapPotential::SnapPotential(SnapModel model)
    : model_(std::move(model)), w0_(model_, Bispectrum(model_.params)) {
  const Bispectrum& bi = w0_.bi;
  EMBER_REQUIRE(static_cast<int>(model_.beta.size()) == bi.num_b(),
                "SNAP model has wrong number of coefficients");
  EMBER_REQUIRE(model_.alpha.empty() ||
                    model_.alpha.size() ==
                        model_.beta.size() * model_.beta.size(),
                "quadratic coefficient block must be num_b x num_b");
  if (!model_.quadratic()) {
    const auto& triples = bi.index().z_triples();
    const std::size_t w = static_cast<std::size_t>(bi.lane_width());
    y_coeff_.resize(triples.size() * w);
    for (std::size_t t = 0; t < triples.size(); ++t) {
      const double c = model_.beta[triples[t].idxb] * triples[t].beta_scale;
      for (std::size_t l = 0; l < w; ++l) y_coeff_[t * w + l] = c;
    }
  }
}

namespace {
// Kernel-stage counters, populated only while obs::kernel_timing_enabled()
// ("trace on").
struct SnapStageMetrics {
  obs::Counter& ui_seconds;
  obs::Counter& yi_seconds;
  obs::Counter& dei_seconds;
  obs::Counter& atoms;
  obs::Counter& neighbors;
  static SnapStageMetrics& get() {
    auto& r = obs::Registry::global();
    static SnapStageMetrics m{
        r.counter("snap.ui_seconds"), r.counter("snap.yi_seconds"),
        r.counter("snap.dei_seconds"), r.counter("snap.atoms"),
        r.counter("snap.neighbors")};
    return m;
  }
};
}  // namespace

void SnapPotential::compute_range(Worker& wk, const md::System& sys,
                                  const md::NeighborList& nl, int begin,
                                  int end, std::span<Vec3> f,
                                  md::ComputeContext::Scratch& s) const {
  const double rc2 = cutoff() * cutoff();
  Bispectrum& bi = wk.bi;
  const int w = bi.lane_width();
  const bool quadratic = model_.quadratic();
  const std::size_t ntriples = bi.index().z_triples().size();
  // Stage timing is opt-in ("trace on" / set_kernel_timing): the flag is
  // read once per chunk, stage seconds accumulate in chunk-local doubles
  // and hit the sharded counters once per chunk, so the cost when off is
  // a single branch per stage.
  const bool detail = obs::kernel_timing_enabled();
  double ui_s = 0.0, yi_s = 0.0, dei_s = 0.0;
  long atoms = 0, neighbors = 0;
  WallTimer stage;

  for (int i0 = begin; i0 < end; i0 += w) {
    const int na = std::min(w, end - i0);

    // ui: one atom per lane. Quadratic models need the descriptors before
    // Y (dE/dB depends on B itself), so each atom's B and effective
    // coefficients beta + alpha B (LAMMPS quadraticflag) go into its
    // coefficient lane right after its U.
    for (int l = 0; l < na; ++l) {
      const int i = i0 + l;
      std::vector<Vec3>& rij = wk.rij[l];
      std::vector<int>& jlist = wk.jlist[l];
      rij.clear();
      jlist.clear();
      for (const auto& en : nl.neighbors(i)) {
        const Vec3 d = sys.x[en.j] + en.shift - sys.x[i];
        if (d.norm2() < rc2) {
          rij.push_back(d);
          jlist.push_back(en.j);
        }
      }
      if (detail) stage.reset();
      bi.compute_ui(rij, {}, l);
      if (detail) ui_s += stage.seconds();
      atoms += 1;
      neighbors += static_cast<long>(rij.size());
      if (quadratic) {
        if (detail) stage.reset();
        bi.compute_zi();
        bi.compute_bi();
        model_.effective_beta(bi.blist(), wk.beta_eff);
        const auto& triples = bi.index().z_triples();
        for (std::size_t t = 0; t < ntriples; ++t) {
          wk.coeff[t * w + l] =
              wk.beta_eff[triples[t].idxb] * triples[t].beta_scale;
        }
        s.energy += model_.site_energy(bi.blist());
        if (detail) yi_s += stage.seconds();
      }
    }
    // Padded lanes of a short block: zero U, so their Y is zero.
    for (int l = na; l < w; ++l) bi.clear_lane(l);

    // yi: the whole block in one contraction over the yi list.
    if (detail) stage.reset();
    bi.compute_yi_block(quadratic ? std::span<const double>(wk.coeff)
                                  : std::span<const double>(y_coeff_));
    if (!quadratic) {
      for (int l = 0; l < na; ++l) {
        s.energy += bi.energy_from_yi(model_.beta0, model_.beta, l);
      }
    }
    if (detail) {
      yi_s += stage.seconds();
      stage.reset();
    }

    // dei: per atom, the reverse sweep of its cached U recursion seeded
    // with its Y lane, over the neighbors its lane cached (one neighbor
    // per lane of the dispatched kernel table).
    for (int l = 0; l < na; ++l) {
      const int i = i0 + l;
      const std::vector<Vec3>& rij = wk.rij[l];
      const std::vector<int>& jlist = wk.jlist[l];
      const int nn = static_cast<int>(rij.size());
      wk.de.resize(nn);
      bi.compute_deidrj_all(wk.de, l);
      for (int m = 0; m < nn; ++m) {
        const Vec3 de = wk.de[m];  // dE_i/dr_k
        f[jlist[m]] -= de;
        f[i] += de;
        s.virial += -dot(rij[m], de);
      }
      s.flops += bi.flops_adjoint_atom(nn);
    }
    if (detail) dei_s += stage.seconds();
  }

  if (detail) {
    SnapStageMetrics& m = SnapStageMetrics::get();
    m.ui_seconds.add(ui_s);
    m.yi_seconds.add(yi_s);
    m.dei_seconds.add(dei_s);
    m.atoms.add(static_cast<double>(atoms));
    m.neighbors.add(static_cast<double>(neighbors));
  }
}

md::EnergyVirial SnapPotential::compute(const md::ComputeContext& ctx,
                                        md::System& sys,
                                        const md::NeighborList& nl) {
  const auto [abegin, aend] = ctx.atom_range(sys.nlocal());
  ctx.zero_partials();
  // Scatter kernel (dE_i/dr_j lands on the neighbor): worker 0 writes
  // sys.f, workers >= 1 write private arrays merged deterministically.
  ctx.prepare_scatter(sys.ntotal());

  ctx.pool().parallel_for(abegin, aend, /*grain=*/8,
                          [&](int tid, int bb, int ee) {
    auto& s = ctx.scratch(tid);
    if (tid == 0) {
      compute_range(w0_, sys, nl, bb, ee, sys.f, s);
      return;
    }
    // Workers >= 1 run siblings of worker 0's kernel: same table, one
    // shared index. A slot left by another potential is replaced.
    const auto make = [&] { return Worker(model_, w0_.bi.sibling()); };
    auto* wk = &ctx.cache<Worker>(tid, make);
    if (&wk->bi.index() != &w0_.bi.index()) {
      s.cache = make();
      wk = std::any_cast<Worker>(&s.cache);
    }
    compute_range(*wk, sys, nl, bb, ee, s.f, s);
  });

  ctx.merge_forces(sys);
  const auto red = ctx.reduce_ev();
  last_flops_ = red.flops;
  return {red.energy, red.virial};
}

}  // namespace ember::snap
