#pragma once

// Bench-side instruments: the benchmark measures each layer from outside,
// by wrapping the calls it makes into that layer's public interface. No
// instrumentation is added inside src/.
//
//   TimedPotential  delegating md::PairPotential: times every compute()
//                   and sums SnapPotential::last_flops().
//   TimedWriter     delegating io::Writer: times submit() per request
//                   kind and drain().
//
// Both record an obs::ScopedSpan ("bench" category) around the delegated
// call; spans only land in the trace while the global TraceSession runs.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "io/writer.hpp"
#include "md/potential.hpp"
#include "obs/trace.hpp"
#include "snap/snap_potential.hpp"

namespace perfbench {

// Seconds on the monotonic clock. CLOCK_MONOTONIC is system-wide, so a
// timestamp taken in a forked rank compares with one from the launcher.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// q-quantile (q in [0, 1]) with linear interpolation between order
// statistics; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

class TimedPotential final : public ember::md::PairPotential {
 public:
  explicit TimedPotential(std::shared_ptr<ember::md::PairPotential> inner)
      : inner_(std::move(inner)),
        snap_(dynamic_cast<ember::snap::SnapPotential*>(inner_.get())) {}

  [[nodiscard]] double cutoff() const override { return inner_->cutoff(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

  using ember::md::PairPotential::compute;
  ember::md::EnergyVirial compute(const ember::md::ComputeContext& ctx,
                                  ember::md::System& sys,
                                  const ember::md::NeighborList& nl) override {
    const ember::obs::ScopedSpan span("pair.compute", "bench");
    const double t0 = now_s();
    const ember::md::EnergyVirial ev = inner_->compute(ctx, sys, nl);
    call_s.push_back(now_s() - t0);
    const auto [begin, end] = ctx.atom_range(sys.nlocal());
    atoms += end - begin;
    if (snap_ != nullptr) flops += snap_->last_flops();
    return ev;
  }

  void clear() {
    call_s.clear();
    atoms = 0;
    flops = 0.0;
  }

  std::vector<double> call_s;  // wall seconds of each compute()
  long atoms = 0;              // atoms computed, summed over calls
  double flops = 0.0;          // analytic FLOPs (SNAP only)

 private:
  std::shared_ptr<ember::md::PairPotential> inner_;
  ember::snap::SnapPotential* snap_;  // null for other potentials
};

class TimedWriter final : public ember::io::Writer {
 public:
  explicit TimedWriter(std::unique_ptr<ember::io::Writer> inner)
      : inner_(std::move(inner)) {}

  void submit(ember::io::Request req) override {
    const bool traj = req.kind == ember::io::Request::Kind::Trajectory;
    const ember::obs::ScopedSpan span(
        traj ? "io.submit.trajectory" : "io.submit.checkpoint", "bench");
    const double t0 = now_s();
    inner_->submit(std::move(req));
    (traj ? traj_submit_s : ckpt_submit_s).push_back(now_s() - t0);
  }

  void drain() override {
    const ember::obs::ScopedSpan span("io.drain", "bench");
    const double t0 = now_s();
    inner_->drain();
    drain_s += now_s() - t0;
  }

  [[nodiscard]] bool async() const override { return inner_->async(); }

  std::vector<double> traj_submit_s;
  std::vector<double> ckpt_submit_s;
  double drain_s = 0.0;

 private:
  std::unique_ptr<ember::io::Writer> inner_;
};

// Flat byte archive for shipping a measurement record out of a forked
// rank (comm::Context::run_gather returns bytes). One `fields` method per
// record lists its members once; Packer and Unpacker both walk it.
class Packer {
 public:
  template <typename T>
  void operator()(const T& value) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      put(&value, sizeof(T));
    } else {
      using Item = typename T::value_type;
      const std::uint64_t n = value.size();
      put(&n, sizeof(n));
      if constexpr (std::is_trivially_copyable_v<Item>) {
        put(value.data(), n * sizeof(Item));
      } else {
        for (const auto& item : value) (*this)(item);
      }
    }
  }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

 private:
  void put(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::byte> buf_;
};

class Unpacker {
 public:
  explicit Unpacker(const std::vector<std::byte>& buf) : buf_(buf) {}

  template <typename T>
  void operator()(T& value) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      get(&value, sizeof(T));
    } else {
      using Item = typename T::value_type;
      std::uint64_t n = 0;
      get(&n, sizeof(n));
      EMBER_REQUIRE(n <= buf_.size() - pos_, "benchmark record truncated");
      value.resize(n);
      if constexpr (std::is_trivially_copyable_v<Item>) {
        get(value.data(), n * sizeof(Item));
      } else {
        for (auto& item : value) (*this)(item);
      }
    }
  }

 private:
  void get(void* p, std::size_t n) {
    EMBER_REQUIRE(n <= buf_.size() - pos_, "benchmark record truncated");
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  const std::vector<std::byte>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
