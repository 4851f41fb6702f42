// Full-StepLoop carbon MD benchmark.
//
//   perfbench_md --workload <snap_md|tersoff_dump|tersoff_ranks>
//                --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Each workload is a closed loop from one process: the benchmark builds
// its inputs from the seed, drives the public driver API
// (md::Simulation, parallel::ParallelSimulation), and times the calls it
// makes. It sets no kernel, ISA or writer knob, so it measures what a
// default run gets. The untraced run (--trace 0) reports the end-to-end
// metrics; the traced run (--trace 1) wraps the potential and the writer
// (instruments.hpp), records bench-side spans, reads the program's own
// counters and reports the per-layer metrics. The last stdout line is the
// result object; the full record (input properties, machine stamp, every
// metric with its tag) goes to <dir>/record.json. README.md lists the
// metrics and what each should move.

#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "comm/transport.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "fit/trainer.hpp"
#include "instruments.hpp"
#include "io/embt1.hpp"
#include "io/formats.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_sim.hpp"
#include "recorder.hpp"
#include "ref/pair_tersoff.hpp"
#include "snap/snap_potential.hpp"

namespace {

using namespace ember;
using perfbench::median;
using perfbench::now_s;
using perfbench::quantile;

// ---------------------------------------------------------------- workloads

enum class PotentialKind { Snap, Tersoff };

struct Workload {
  const char* name;
  PotentialKind potential;
  int cells;              // diamond unit cells per box edge (8 atoms each)
  int threads;            // pool threads per process
  int ranks;              // 1: md::Simulation; >1: socket ParallelSimulation
  long dump_every;        // EMBT1 trajectory frame every N steps
  long checkpoint_every;  // 0: one checkpoint saved after the loop
  long hash_steps;        // fixed steps after each set-up repetition
  // Timed steps per requested second: about what the reference host (4x
  // Xeon @ 2.1 GHz) runs. The loop length is a fixed function of --seconds,
  // so every run at one seed does the same work and writes the same frames.
  double steps_per_second;
};

constexpr Workload kWorkloads[] = {
    {"snap_md", PotentialKind::Snap, 5, 2, 1, 5, 0, 2, 5.0},
    {"tersoff_dump", PotentialKind::Tersoff, 10, 1, 1, 1, 25, 10, 80.0},
    {"tersoff_ranks", PotentialKind::Tersoff, 6, 1, 2, 50, 0, 20, 600.0},
};

constexpr double kTemperature = 5000.0;  // Langevin target [K]
constexpr double kDamp = 0.1;            // Langevin relaxation [ps]
constexpr double kDt = 0.0005;           // 0.5 fs [ps]
constexpr double kSkin = 0.3;            // neighbor skin [A]
constexpr double kPerturb = 0.05;        // lattice perturbation sigma [A]
constexpr int kSetupReps = 5;            // set-ups per run (median reported)
constexpr int kBlocks = 10;              // timed blocks per loop
constexpr double kTemperatureBand = 0.25;  // |T / target - 1| allowed
constexpr double kPairAgreement = 0.05;    // |bench pair s / Pair bucket - 1|
constexpr int kProbeThreads[] = {1, 2, 4};
constexpr int kTrainingConfigs = 16;       // SNAP fit set size
constexpr double kReadBudget = 0.3;        // read-side seconds per block

// Every generated input derives from the run seed through its own stream.
enum Stream : std::uint64_t { kLattice = 1, kVelocities, kLangevin, kTraining };

struct Inputs {
  md::System system;  // perturbed, thermalized diamond carbon
  snap::SnapModel model;  // SNAP workloads only
  std::uint64_t langevin_seed = 0;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  const Rng root(seed);
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = w.cells;
  Inputs in;
  in.system = md::build_lattice(spec, units::MASS_CARBON);
  Rng lattice_rng = root.split(kLattice);
  md::perturb(in.system, kPerturb, lattice_rng);
  // Velocities above the target: the lattice takes up part of the kinetic
  // energy as potential energy, so the loop starts near 5000 K.
  Rng velocity_rng = root.split(kVelocities);
  in.system.thermalize(1.5 * kTemperature, velocity_rng);
  in.langevin_seed = root.split(kLangevin).next_u64();
  if (w.potential == PotentialKind::Snap) {
    // A linear 2J=8 model fitted (FitSNAP-lite) to the Tersoff oracle on
    // the program's standard carbon training set, drawn from the seed.
    // rcut 3.1 A gives ~25-28 neighbors, close to the paper's ~26. (A
    // random-beta model collapses at 5000 K: T runs away past 10^4 K.)
    snap::SnapParams p;
    p.twojmax = 8;
    p.rcut = 3.1;
    p.bzero_flag = true;
    fit::Trainer trainer(p, fit::FitOptions{200.0, 1.0, 1e-9});
    ref::PairTersoff oracle;
    for (md::System& c : fit::standard_carbon_configs(
             kTrainingConfigs, root.split(kTraining).next_u64())) {
      trainer.add_config(std::move(c), oracle);
    }
    in.model = trainer.fit();
  }
  return in;
}

std::shared_ptr<md::PairPotential> make_potential(const Workload& w,
                                                  const Inputs& in) {
  if (w.potential == PotentialKind::Snap) {
    return std::make_shared<snap::SnapPotential>(in.model);
  }
  return std::make_shared<ref::PairTersoff>();
}

// FNV-1a over ids, positions and velocities in id order: bitwise state.
std::uint64_t state_hash(const md::System& sys) {
  std::vector<int> order(static_cast<std::size_t>(sys.nlocal()));
  for (int i = 0; i < sys.nlocal(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return sys.id[a] < sys.id[b]; });
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) h = (h ^ c[k]) * 1099511628211ULL;
  };
  for (const int i : order) {
    mix(&sys.id[i], sizeof(long));
    mix(&sys.x[i], sizeof(Vec3));
    mix(&sys.v[i], sizeof(Vec3));
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Tracing covers the global span session and the SNAP stage counters.
void set_tracing(bool on) {
  if (on) {
    obs::TraceSession::global().start();
  } else {
    obs::TraceSession::global().stop();
  }
  obs::set_kernel_timing(on);
}

// ------------------------------------------------------- measurement record

// What one rank measures; every rank ships one to rank 0.
struct RankStats {
  double pair_s = 0.0;  // bench-timed pair seconds over the loop
  double comm_s = 0.0;  // Transport::comm_seconds() over the loop
  double messages = 0.0;
  double bytes = 0.0;
  double nlocal = 0.0;
  double nghost = 0.0;
  double rss_mb = 0.0;
};

// One entry per set-up repetition.
struct SetupLog {
  std::vector<double> setup_s, potential_s, first_force_s;
  std::vector<std::uint64_t> hashes;  // final state after the fixed steps

  void append(const SetupLog& o) {
    const auto cat = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    cat(setup_s, o.setup_s);
    cat(potential_s, o.potential_s);
    cat(first_force_s, o.first_force_s);
    cat(hashes, o.hashes);
  }
};

// Everything the process that drives the loop measured. For socket ranks
// rank 0 fills it and ships it back through Context::run_gather.
struct RunRecord {
  SetupLog setup;
  // timed loop
  long natoms = 0, first_step = 0, steps = 0;
  std::vector<double> step_s, block_rate;
  std::vector<std::uint8_t> block_traced;
  std::array<double, kNumTimerCategories> buckets{};
  double loop_s = 0.0, pair_imbalance = 0.0;
  // final state
  long natoms_final = 0;
  double total_energy = 0.0, temperature = 0.0;
  std::vector<std::byte> final_state;  // checkpoint bytes, global system
  // traced run: bench-timed pair calls and writer calls over the loop
  std::vector<double> pair_call_s, traj_submit_s, ckpt_submit_s;
  double pair_flops = 0.0, drain_s = 0.0;
  long pair_atoms = 0;
  // program-reported counters over the loop
  double io_stall_s = 0.0, snap_ui_s = 0.0, snap_yi_s = 0.0, snap_dei_s = 0.0,
         snap_atoms = 0.0, snap_neighbors = 0.0;
  std::vector<RankStats> ranks;
  std::string trace_json;  // Chrome trace of every rank (traced run)
  // read side: each block's trajectory, decoded and analyzed after it
  long expected_frames = 0, decoded_frames = 0, analyzed_frames = 0;
  double traj_bytes = 0.0;
  std::vector<double> decode_fps, analyze_fps;  // one median per block

  template <typename A>
  void fields(A& a) {
    a(setup.setup_s), a(setup.potential_s), a(setup.first_force_s);
    a(setup.hashes);
    a(natoms), a(first_step), a(steps), a(step_s), a(block_rate);
    a(block_traced), a(buckets), a(loop_s), a(pair_imbalance);
    a(natoms_final), a(total_energy), a(temperature), a(final_state);
    a(pair_call_s), a(traj_submit_s), a(ckpt_submit_s), a(pair_flops);
    a(drain_s), a(pair_atoms), a(io_stall_s), a(snap_ui_s), a(snap_yi_s);
    a(snap_dei_s), a(snap_atoms), a(snap_neighbors), a(ranks), a(trace_json);
    a(expected_frames), a(decoded_frames), a(analyzed_frames), a(traj_bytes);
    a(decode_fps), a(analyze_fps);
  }
};

// Each timed block dumps into its own trajectory file, read right after it.
struct Paths {
  std::string dir;
  [[nodiscard]] std::string trajectory(int block) const {
    return dir + "/block" + std::to_string(block) + io::kEmbt1Extension;
  }
  [[nodiscard]] std::string checkpoint() const { return dir + "/last.ckpt"; }
  [[nodiscard]] std::string trace() const { return dir + "/trace.json"; }
};

// Registry counters the loop reads before and after (program-reported).
struct CounterSnapshot {
  double stall, ui, yi, dei, dei_cached, atoms, neighbors;
  static CounterSnapshot take() {
    auto& r = obs::Registry::global();
    return {r.counter("io.stall_seconds").value(),
            r.counter("snap.ui_seconds").value(),
            r.counter("snap.yi_seconds").value(),
            r.counter("snap.dei_seconds").value(),
            r.counter("snap.dei_cached_seconds").value(),
            r.counter("snap.atoms").value(),
            r.counter("snap.neighbors").value()};
  }
};

// The Chrome trace-event array of this process's recorded spans, one
// pid per rank ("[...]" text; ranks are merged by the caller).
std::string trace_events_json(int pid) {
  obs::Json events = obs::Json::array();
  for (const obs::SpanEvent& e : obs::TraceSession::global().snapshot()) {
    obs::Json ev = obs::Json::object();
    ev.set("name", e.name).set("cat", e.cat).set("ph", "X");
    ev.set("ts", static_cast<double>(e.start_ns) * 1e-3, "%.3f");
    ev.set("dur", static_cast<double>(e.dur_ns) * 1e-3, "%.3f");
    ev.set("pid", pid).set("tid", e.tid);
    if (e.arg_key != nullptr) {
      ev.set("args", obs::Json::object().set(e.arg_key, e.arg_val));
    }
    events.push(std::move(ev));
  }
  return events.dump(0);
}

std::string merge_traces(const std::vector<std::string>& arrays) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const std::string& a : arrays) {
    const std::string inner = a.size() >= 2 ? a.substr(1, a.size() - 2) : "";
    if (inner.find_first_not_of(" \n") == std::string::npos) continue;
    if (!first) out += ",";
    out += inner;
    first = false;
  }
  return out + "]}\n";
}

// Steps per timed block: a whole number of dump intervals, at least one.
long block_steps(const Workload& w, double seconds) {
  const double dumps = seconds * w.steps_per_second / kBlocks /
                       static_cast<double>(w.dump_every);
  return w.dump_every * std::max(1L, std::lround(dumps));
}

md::IoPlan io_plan(const Workload& w, const std::string& trajectory,
                   const std::string& checkpoint) {
  md::IoPlan plan;
  plan.dump_every = w.dump_every;
  plan.dump_path = trajectory;
  plan.dump_format = io::Format::Embt1;
  plan.checkpoint_every = w.checkpoint_every;
  plan.checkpoint_path = checkpoint;
  return plan;
}

// Decode and analyze passes over one block's trajectory, repeated until
// kReadBudget seconds have passed (at least one of each); the block's rates
// are medians over its passes. The file is removed afterwards.
void read_block(const std::string& path, RunRecord& rec) {
  rec.traj_bytes += static_cast<double>(std::filesystem::file_size(path));
  std::vector<double> decode, analyze;
  long frames = 0, analyzed = 0;
  const double t_end = now_s() + kReadBudget;
  while (decode.empty() || now_s() < t_end) {
    {
      const obs::ScopedSpan span("traj.decode", "bench");
      const double t0 = now_s();
      io::TrajectoryReader reader(path);
      frames = 0;
      while (reader.next()) ++frames;
      decode.push_back(static_cast<double>(frames) / (now_s() - t0));
    }
    {
      const obs::ScopedSpan span("analysis.analyze_trajectory", "bench");
      const double t0 = now_s();
      analyzed = static_cast<long>(analysis::analyze_trajectory(path).size());
      analyze.push_back(static_cast<double>(analyzed) / (now_s() - t0));
    }
  }
  rec.decoded_frames += frames;
  rec.analyzed_frames += analyzed;
  rec.decode_fps.push_back(median(decode));
  rec.analyze_fps.push_back(median(analyze));
  std::filesystem::remove(path);
}

// What a driver adds around each timed block.
struct BlockHooks {
  std::function<void()> begin;  // just before the block's clock starts
  std::function<void()> end;    // just after it stops
  bool reads = true;            // this process reads the block's trajectory
  std::function<void()> after_read;
};

// The timed loop on either driver, and the output after it: kBlocks blocks
// of block_steps steps, each dumping into its own trajectory file, drained
// (on disk) before the block's clock stops, then read back untimed. In the
// traced run every second block is traced. Per-step wall times come from
// step-callback timestamps; an md.step span covers each step from one
// callback to the next.
template <typename Sim>
void measure_loop(Sim& sim, const Workload& w, const Paths& paths,
                  long block_steps, bool traced_run,
                  const std::shared_ptr<perfbench::TimedPotential>& timed_pot,
                  const BlockHooks& hooks, RunRecord& rec) {
  std::shared_ptr<perfbench::TimedWriter> timed_writer;
  if (traced_run) {
    // The library's default writer (StepLoop creates a Sync writer when
    // none is set), wrapped.
    timed_writer = std::make_shared<perfbench::TimedWriter>(
        io::make_writer(io::Mode::Sync));
    sim.set_writer(timed_writer);
  }
  if (timed_pot) timed_pot->clear();
  sim.reset_timers();
  rec.first_step = sim.step();
  rec.steps = block_steps * kBlocks;
  for (long s = rec.first_step + 1; s <= rec.first_step + rec.steps; ++s) {
    if (s % w.dump_every == 0) ++rec.expected_frames;
  }
  const CounterSnapshot c0 = CounterSnapshot::take();
  std::optional<obs::ScopedSpan> step_span;
  double prev = 0.0;
  const auto on_step = [&](auto& s) {
    const double t = now_s();
    rec.step_s.push_back(t - prev);
    prev = t;
    step_span.reset();
    step_span.emplace("md.step", "bench", "step", s.step() + 1);
  };
  for (int b = 0; b < kBlocks; ++b) {
    const bool traced = traced_run && b % 2 == 1;
    sim.set_io_plan(io_plan(w, paths.trajectory(b), paths.checkpoint()));
    if (hooks.begin) hooks.begin();
    set_tracing(traced);
    const double t0 = now_s();
    prev = t0;
    step_span.emplace("md.step", "bench", "step", sim.step() + 1);
    sim.run(block_steps, on_step);
    sim.writer().drain();
    step_span.reset();
    const double dt = now_s() - t0;
    if (hooks.end) hooks.end();
    rec.block_rate.push_back(static_cast<double>(rec.natoms * block_steps) /
                             dt * 1e-6);
    rec.block_traced.push_back(traced ? 1 : 0);
    rec.loop_s += dt;
    if (hooks.reads) read_block(paths.trajectory(b), rec);
    set_tracing(false);
    if (hooks.after_read) hooks.after_read();
  }
  for (const TimerCategory c : kTimerCategories) {
    rec.buckets[static_cast<std::size_t>(c)] = sim.timers().total(c);
  }
  rec.pair_imbalance = sim.timers().imbalance(TimerCategory::Pair);
  const CounterSnapshot c1 = CounterSnapshot::take();
  rec.io_stall_s = c1.stall - c0.stall;
  rec.snap_ui_s = c1.ui - c0.ui;
  rec.snap_yi_s = c1.yi - c0.yi;
  rec.snap_dei_s = c1.dei + c1.dei_cached - c0.dei - c0.dei_cached;
  rec.snap_atoms = c1.atoms - c0.atoms;
  rec.snap_neighbors = c1.neighbors - c0.neighbors;
  if (timed_pot) {
    rec.pair_call_s = timed_pot->call_s;
    rec.pair_flops = timed_pot->flops;
    rec.pair_atoms = timed_pot->atoms;
  }
  if (w.checkpoint_every == 0) sim.save_checkpoint(paths.checkpoint());
  if (timed_writer) {
    rec.traj_submit_s = timed_writer->traj_submit_s;
    rec.ckpt_submit_s = timed_writer->ckpt_submit_s;
    rec.drain_s = timed_writer->drain_s;
  }
}

// --------------------------------------------------------- serial workloads

RunRecord run_serial(const Workload& w, const Inputs& in, const Paths& paths,
                     double seconds, bool traced) {
  RunRecord rec;
  rec.natoms = in.system.nlocal();
  std::unique_ptr<md::Simulation> sim;
  std::shared_ptr<perfbench::TimedPotential> timed_pot;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sim.reset();
    const obs::ScopedSpan span("bench.setup", "bench");
    const double t0 = now_s();
    std::shared_ptr<md::PairPotential> pot = make_potential(w, in);
    const double t1 = now_s();
    if (traced) {
      timed_pot = std::make_shared<perfbench::TimedPotential>(pot);
      pot = timed_pot;
    }
    sim = std::make_unique<md::Simulation>(in.system, pot, kDt, kSkin,
                                           in.langevin_seed,
                                           ExecutionPolicy{w.threads});
    sim->integrator().set_langevin(md::LangevinParams{kTemperature, kDamp});
    sim->setup();
    const double t2 = now_s();
    rec.setup.setup_s.push_back(t2 - t0);
    rec.setup.potential_s.push_back(t1 - t0);
    if (timed_pot && !timed_pot->call_s.empty()) {
      rec.setup.first_force_s.push_back(timed_pot->call_s.front());
    }
    sim->run(w.hash_steps);
    rec.setup.hashes.push_back(state_hash(sim->system()));
  }
  measure_loop(*sim, w, paths, block_steps(w, seconds), traced, timed_pot,
               BlockHooks{}, rec);

  const md::System& sys = sim->system();
  rec.natoms_final = sys.nlocal();
  rec.total_energy = sim->total_energy();
  rec.temperature = sys.temperature();
  rec.final_state = io::checkpoint_bytes(sys);
  rec.ranks.push_back({perfbench::sum(rec.pair_call_s), 0.0, 0.0, 0.0,
                       static_cast<double>(sys.nlocal()), 0.0, 0.0});
  if (traced) rec.trace_json = merge_traces({trace_events_json(0)});
  return rec;
}

// ---------------------------------------------------------- socket ranks

constexpr int kTagStats = 900;
constexpr int kTagTrace = 901;

RunRecord run_ranks(const Workload& w, const Inputs& in, const Paths& paths,
                    double seconds, bool traced) {
  SetupLog earlier;  // repetitions so far, as the launcher received them
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep == kSetupReps - 1;
    const double t0 = now_s();
    const auto ctx = comm::make_context({comm::TransportKind::Socket, w.ranks});
    const auto bytes = ctx->run_gather([&](comm::Transport& tr) {
      RunRecord rec;
      const double tp = now_s();
      std::shared_ptr<md::PairPotential> pot = make_potential(w, in);
      const double potential_s = now_s() - tp;
      std::shared_ptr<perfbench::TimedPotential> timed_pot;
      if (traced) {
        timed_pot = std::make_shared<perfbench::TimedPotential>(pot);
        pot = timed_pot;
      }
      parallel::ParallelSimulation sim(tr, in.system, pot, kDt, kSkin,
                                       in.langevin_seed,
                                       ExecutionPolicy{w.threads});
      sim.integrator().set_langevin(md::LangevinParams{kTemperature, kDamp});
      sim.setup();
      const double t_setup = now_s();
      rec.setup.setup_s.push_back(t_setup - t0);
      rec.setup.potential_s.push_back(potential_s);
      if (timed_pot && !timed_pot->call_s.empty()) {
        rec.setup.first_force_s.push_back(timed_pot->call_s.front());
      }
      sim.run(w.hash_steps);
      rec.setup.hashes.push_back(state_hash(sim.gather_global()));
      if (!last) {
        perfbench::Packer p;
        rec.fields(p);
        return p.take();
      }

      rec.natoms = in.system.nlocal();
      // Comm is counted inside the timed blocks only: rank 0 reads each
      // block's trajectory while the others wait at a barrier.
      RankStats mine;
      double comm_mark = 0.0;
      comm::Transport::Traffic traffic_mark;
      BlockHooks hooks;
      hooks.begin = [&] {
        comm_mark = tr.comm_seconds();
        traffic_mark = tr.traffic();
      };
      hooks.end = [&] {
        const comm::Transport::Traffic t = tr.traffic();
        mine.comm_s += tr.comm_seconds() - comm_mark;
        mine.messages += static_cast<double>(t.messages - traffic_mark.messages);
        mine.bytes += t.bytes - traffic_mark.bytes;
      };
      hooks.reads = tr.rank() == 0;
      hooks.after_read = [&] { tr.barrier(); };
      measure_loop(sim, w, paths, block_steps(w, seconds), traced, timed_pot,
                   hooks, rec);
      mine.pair_s = perfbench::sum(rec.pair_call_s);
      mine.nlocal = sim.local().nlocal();
      mine.nghost = sim.local().nghost();
      mine.rss_mb = peak_rss_mb();

      const parallel::GlobalState g = sim.global_state();
      const md::System global = sim.gather_global();
      std::string trace = traced ? trace_events_json(tr.rank()) : "";
      if (tr.rank() != 0) {
        tr.send_value(0, kTagStats, mine);
        tr.send(0, kTagTrace, std::vector<char>(trace.begin(), trace.end()));
        return std::vector<std::byte>{};
      }
      rec.ranks.push_back(mine);
      std::vector<std::string> traces{trace};
      for (int r = 1; r < tr.size(); ++r) {
        rec.ranks.push_back(tr.recv_value<RankStats>(r, kTagStats));
        const auto t = tr.recv<char>(r, kTagTrace);
        traces.emplace_back(t.begin(), t.end());
      }
      rec.natoms_final = g.natoms;
      rec.total_energy = g.total_energy();
      rec.temperature = g.temperature;
      rec.final_state = io::checkpoint_bytes(global);
      if (traced) rec.trace_json = merge_traces(traces);
      perfbench::Packer p;
      rec.fields(p);
      return p.take();
    });
    RunRecord rec;
    perfbench::Unpacker u(bytes);
    rec.fields(u);
    earlier.append(rec.setup);
    if (last) {
      rec.setup = earlier;
      return rec;
    }
  }
  throw Error("no set-up repetitions");
}

// ------------------------------------------------------ frozen-state probes

// Median wall seconds of pair calls on a frozen configuration, per thread
// count.
std::map<int, double> pool_probe(const Workload& w, const Inputs& in,
                                 const md::System& frozen) {
  std::map<int, double> out;
  for (const int threads : kProbeThreads) {
    auto pot = make_potential(w, in);
    const md::ComputeContext ctx{ExecutionPolicy{threads}};
    md::System sys = frozen;
    md::NeighborList nl(pot->cutoff(), kSkin);
    nl.build(sys, false, &ctx);
    std::vector<double> calls;
    const double t_end = now_s() + 0.6;
    while (calls.size() < 3 || now_s() < t_end) {
      const obs::ScopedSpan span("pool.probe.compute", "bench");
      sys.zero_forces();
      const double t0 = now_s();
      (void)pot->compute(ctx, sys, nl);
      calls.push_back(now_s() - t0);
    }
    out[threads] = median(calls);
  }
  return out;
}

// Median NeighborList::build time on a frozen configuration at the
// workload's thread count.
double neighbor_probe(const Workload& w, const md::System& frozen,
                      double cutoff) {
  const md::ComputeContext ctx{ExecutionPolicy{w.threads}};
  md::NeighborList nl(cutoff, kSkin);
  std::vector<double> builds;
  const double t_end = now_s() + 0.3;
  while (builds.size() < 5 || now_s() < t_end) {
    const obs::ScopedSpan span("neigh.build", "bench");
    const double t0 = now_s();
    nl.build(frozen, false, &ctx);
    builds.push_back(now_s() - t0);
  }
  return median(builds);
}

double average_neighbors(const md::System& sys, double cutoff) {
  md::NeighborList nl(cutoff, 0.0);
  nl.build(sys);
  return nl.average_neighbors();
}

// ------------------------------------------------------------------ gates

struct Gates {
  int attempted = 0;
  int failed = 0;
  void check(const char* name, bool ok, const std::string& detail) {
    ++attempted;
    if (!ok) ++failed;
    std::printf("  gate %-22s %s  %s\n", name, ok ? "ok  " : "FAIL",
                detail.c_str());
  }
};

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* source;  // "bench-timed" | "program-reported"
  const char* moves;   // end-to-end metric @ workload it should move
};

double share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

// Everything a run produced, as the reporting functions see it.
struct Outcome {
  const Workload& w;
  const Inputs& in;
  const RunRecord& rec;
  const md::System& final_sys;
  [[nodiscard]] double bytes_per_frame() const {
    return share(rec.traj_bytes, static_cast<double>(rec.decoded_frames));
  }
};

void check_gates(const Outcome& o, const Paths& paths, Gates& gates) {
  const RunRecord& rec = o.rec;
  gates.check("energy_finite", std::isfinite(rec.total_energy),
              fmt("E_total = %.6g eV", rec.total_energy));
  gates.check(
      "temperature_band",
      std::abs(rec.temperature / kTemperature - 1.0) <= kTemperatureBand,
      fmt("T = %.0f K, target %.0f K +- %.0f%%", rec.temperature, kTemperature,
          100 * kTemperatureBand));
  gates.check("atom_count_conserved", rec.natoms_final == rec.natoms,
              fmt("%.0f -> %.0f atoms", static_cast<double>(rec.natoms),
                  static_cast<double>(rec.natoms_final)));
  bool same_hash = true;
  for (const std::uint64_t h : rec.setup.hashes) same_hash &= h == rec.setup.hashes[0];
  gates.check("state_hash_repeatable", same_hash,
              fmt("%.0f set-ups x %.0f steps",
                  static_cast<double>(rec.setup.hashes.size()),
                  static_cast<double>(o.w.hash_steps)));
  gates.check("trajectory_frames",
              rec.decoded_frames == rec.expected_frames &&
                  rec.analyzed_frames == rec.expected_frames,
              fmt("dumps %.0f, decoded %.0f, analyzed %.0f",
                  static_cast<double>(rec.expected_frames),
                  static_cast<double>(rec.decoded_frames),
                  static_cast<double>(rec.analyzed_frames)));
  const md::System ckpt = io::read_checkpoint(paths.checkpoint());
  gates.check("checkpoint_readback", ckpt.nlocal() == rec.natoms,
              fmt("%.0f atoms read back", ckpt.nlocal()));
}

// The q-quantile of each block's step times, median over blocks: a slow
// stretch of the host that covers a few blocks does not move it.
double block_median(const std::vector<double>& step_s, double q) {
  const std::size_t per_block = step_s.size() / kBlocks;
  std::vector<double> per;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const auto first = step_s.begin() + static_cast<long>(b * per_block);
    per.push_back(quantile({first, first + static_cast<long>(per_block)}, q));
  }
  return median(per);
}

std::vector<Metric> end_to_end_metrics(const Outcome& o) {
  const RunRecord& rec = o.rec;
  double rss = peak_rss_mb();
  if (o.w.ranks > 1) {
    for (const RankStats& r : rec.ranks) rss += r.rss_mb;
  }
  const char* bt = "bench-timed";
  return {
      {"matom_steps_per_s", median(rec.block_rate), "Matom-steps/s", bt, ""},
      {"step_ms_p50", 1e3 * block_median(rec.step_s, 0.5), "ms", bt, ""},
      {"step_ms_p90", 1e3 * block_median(rec.step_s, 0.9), "ms", bt, ""},
      {"setup_s", median(rec.setup.setup_s), "s", bt, ""},
      {"peak_rss_mb", rss, "MB", bt, ""},
      {"analyze_frames_per_s", median(rec.analyze_fps), "frames/s", bt, ""},
      {"traj_bytes_per_atom_frame",
       o.bytes_per_frame() / static_cast<double>(rec.natoms), "B/atom-frame",
       bt, ""},
  };
}

// Per-layer metrics of the traced run, plus its cross-check gate: the
// bench-timed pair seconds must match the program's Pair bucket.
std::vector<Metric> per_layer_metrics(const Outcome& o, Gates& gates) {
  const RunRecord& rec = o.rec;
  const auto bucket = [&](TimerCategory c) {
    return rec.buckets[static_cast<std::size_t>(c)];
  };
  const double wall = rec.loop_s;
  double bucket_sum = 0.0;
  for (const double b : rec.buckets) bucket_sum += b;
  const double pair_bench = perfbench::sum(rec.pair_call_s);
  const double pair_timer = bucket(TimerCategory::Pair);
  gates.check("pair_timer_agreement",
              pair_timer > 0 &&
                  std::abs(pair_bench / pair_timer - 1.0) <= kPairAgreement,
              fmt("bench %.4f s vs Pair bucket %.4f s (tol %.0f%%)",
                  pair_bench, pair_timer, 100 * kPairAgreement));

  std::vector<double> traced_rate, plain_rate;
  for (std::size_t b = 0; b < rec.block_rate.size(); ++b) {
    (rec.block_traced[b] ? traced_rate : plain_rate)
        .push_back(rec.block_rate[b]);
  }
  const double snap_stage = rec.snap_ui_s + rec.snap_yi_s + rec.snap_dei_s;
  const std::map<int, double> pool = pool_probe(o.w, o.in, o.final_sys);
  const double cutoff = make_potential(o.w, o.in)->cutoff();
  const double nb_ms = 1e3 * neighbor_probe(o.w, o.final_sys, cutoff);
  double max_wait = 0.0, msgs = 0.0, bytes = 0.0, pair_max = 0.0,
         pair_mean = 0.0, nlocal = 0.0, nghost = 0.0;
  for (const RankStats& r : rec.ranks) {
    max_wait = std::max(max_wait, r.comm_s / wall);
    msgs += r.messages;
    bytes += r.bytes;
    pair_max = std::max(pair_max, r.pair_s);
    pair_mean += r.pair_s / static_cast<double>(rec.ranks.size());
    nlocal += r.nlocal;
    nghost += r.nghost;
  }
  const double steps = static_cast<double>(rec.steps);
  const double decode_fps = median(rec.decode_fps);
  const double classify_ms =
      1e3 * (1.0 / median(rec.analyze_fps) - 1.0 / decode_fps);
  const char* snap_md = "matom_steps_per_s,step_ms_p50@snap_md";
  const char* dump = "matom_steps_per_s,step_ms_p90@tersoff_dump";
  const char* ranks = "matom_steps_per_s,step_ms_p90@tersoff_ranks";
  const char* pool_md = "matom_steps_per_s@snap_md";
  const char* read = "analyze_frames_per_s@tersoff_dump";
  const char* all = "matom_steps_per_s@all";
  const char* bt = "bench-timed";
  const char* pr = "program-reported";
  return {
      {"md.pair_share", share(pair_timer, wall), "fraction", pr, all},
      {"md.neigh_share", share(bucket(TimerCategory::Neigh), wall), "fraction",
       pr, all},
      {"md.comm_share", share(bucket(TimerCategory::Comm), wall), "fraction",
       pr, all},
      {"md.other_share", share(bucket(TimerCategory::Other), wall), "fraction",
       pr, all},
      {"md.output_share", share(bucket(TimerCategory::Dump), wall), "fraction",
       pr, all},
      {"md.bucket_coverage", share(bucket_sum, wall), "fraction", pr, all},
      {"pair.call_ms_p50", 1e3 * median(rec.pair_call_s), "ms", bt, snap_md},
      {"pair.call_ms_p90", 1e3 * quantile(rec.pair_call_s, 0.9), "ms", bt,
       snap_md},
      {"pair.grind_us",
       share(1e6 * pair_bench, static_cast<double>(rec.pair_atoms)), "us", bt,
       snap_md},
      {"snap.gflops", share(1e-9 * rec.pair_flops, pair_bench), "GFLOP/s", bt,
       snap_md},
      {"snap.ui_share", share(rec.snap_ui_s, snap_stage), "fraction", pr,
       snap_md},
      {"snap.yi_share", share(rec.snap_yi_s, snap_stage), "fraction", pr,
       snap_md},
      {"snap.dei_share", share(rec.snap_dei_s, snap_stage), "fraction", pr,
       snap_md},
      {"snap.avg_neighbors", share(rec.snap_neighbors, rec.snap_atoms), "count",
       pr, snap_md},
      {"pool.pair_speedup_2t", share(pool.at(1), pool.at(2)), "x", bt, pool_md},
      {"pool.pair_speedup_4t", share(pool.at(1), pool.at(4)), "x", bt, pool_md},
      {"pool.pair_imbalance", rec.pair_imbalance, "ratio", pr, pool_md},
      {"neigh.build_ms", nb_ms, "ms", bt, dump},
      {"io.traj_submit_ms_p50", 1e3 * median(rec.traj_submit_s), "ms", bt,
       dump},
      {"io.traj_submit_ms_p90", 1e3 * quantile(rec.traj_submit_s, 0.9), "ms",
       bt, dump},
      {"io.ckpt_submit_ms_p50", 1e3 * median(rec.ckpt_submit_s), "ms", bt,
       dump},
      {"io.drain_ms", 1e3 * rec.drain_s, "ms", bt, dump},
      {"io.bytes_per_frame", o.bytes_per_frame(), "B", bt,
       "traj_bytes_per_atom_frame@tersoff_dump"},
      {"io.stall_s", rec.io_stall_s, "s", pr, dump},
      {"traj.decode_frames_per_s", decode_fps, "frames/s", bt, read},
      {"analysis.classify_ms_per_frame", classify_ms, "ms", bt, read},
      {"comm.wait_share", max_wait, "fraction", pr, ranks},
      {"comm.msgs_per_step", msgs / steps, "count", pr, ranks},
      {"comm.bytes_per_step", bytes / steps, "B", pr, ranks},
      {"rank.pair_imbalance", share(pair_max, pair_mean), "ratio", bt, ranks},
      {"rank.ghost_ratio", share(nghost, nlocal), "ratio", pr, ranks},
      {"setup.potential_s", median(rec.setup.potential_s), "s", bt, "setup_s@all"},
      {"setup.first_force_s", median(rec.setup.first_force_s), "s", bt,
       "setup_s@all"},
      {"trace.overhead_frac",
       1.0 - share(median(traced_rate), median(plain_rate)), "fraction", bt,
       "none (traced vs untraced blocks)"},
  };
}

// The input properties a later change might depend on.
obs::Json input_properties(const Outcome& o, std::uint64_t seed) {
  const Workload& w = o.w;
  obs::Json j = obs::Json::object();
  j.set("workload", w.name).set("seed", std::to_string(seed));
  j.set("atoms", o.rec.natoms);
  j.set("atoms_per_rank", static_cast<double>(o.rec.natoms) / w.ranks, "%.1f");
  const double cutoff = make_potential(w, o.in)->cutoff();
  j.set("avg_neighbors", average_neighbors(o.final_sys, cutoff), "%.2f");
  double ghosts = 0.0;
  for (const RankStats& r : o.rec.ranks) ghosts += r.nghost;
  j.set("ghost_ratio", ghosts / static_cast<double>(o.rec.natoms), "%.4f");
  j.set("bytes_per_frame", o.bytes_per_frame(), "%.1f");
  j.set("potential", make_potential(w, o.in)->name());
  if (w.potential == PotentialKind::Snap) {
    // The ISA the SNAP kernel dispatched to under this run's defaults.
    snap::SnapPotential probe(o.in.model);
    j.set("snap_simd_isa", snap::simd::to_string(probe.kernel().simd_isa()));
    j.set("snap_twojmax", o.in.model.params.twojmax);
  }
  j.set("threads", w.threads).set("ranks", w.ranks);
  j.set("temperature_K", kTemperature, "%.0f").set("dt_fs", kDt * 1e3, "%.2f");
  j.set("steps", o.rec.steps).set("blocks", kBlocks);
  j.set("step_samples", static_cast<std::int64_t>(o.rec.step_s.size()));
  j.set("setup_repetitions", kSetupReps);
  j.set("loop_seconds", o.rec.loop_s, "%.3f");
  obs::Json blocks = obs::Json::array();
  for (const double r : o.rec.block_rate) blocks.push(obs::Json::num(r));
  j.set("block_matom_steps_per_s", std::move(blocks));
  return j;
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  EMBER_REQUIRE(end != s && *end == '\0', std::string("not a number: ") + s);
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_md --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, out_dir = ".bench_build/runs/latest";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key == "--workload") {
        workload_name = argv[i + 1];
      } else if (key == "--seed") {
        seed = parse_u64(argv[i + 1]);
      } else if (key == "--seconds") {
        seconds = static_cast<double>(parse_u64(argv[i + 1]));
      } else if (key == "--trace") {
        traced = parse_u64(argv[i + 1]) != 0;
      } else if (key == "--out") {
        out_dir = argv[i + 1];
      } else {
        return usage();
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) wp = &w;
  }
  if (wp == nullptr || argc % 2 == 0) return usage();
  const Workload& w = *wp;

  std::filesystem::create_directories(out_dir);
  const Paths paths{out_dir};
  (void)obs::TraceSession::global();  // session epoch shared by forked ranks

  Gates gates;
  std::vector<Metric> metrics;
  bench::Recorder recorder("perfbench_md");
  try {
    const Inputs in = make_inputs(w, seed);
    const RunRecord rec = w.ranks > 1
                              ? run_ranks(w, in, paths, seconds, traced)
                              : run_serial(w, in, paths, seconds, traced);
    const md::System final_sys =
        io::system_from_checkpoint_bytes(rec.final_state);
    const Outcome o{w, in, rec, final_sys};

    const double steps_per_s = median(rec.block_rate) * 1e6 / rec.natoms;
    std::printf("%s seed=%llu trace=%d: %ld atoms, %ld steps in %.2f s; "
                "%.2f timesteps/s, %.4f ns/day\n",
                w.name, static_cast<unsigned long long>(seed), traced ? 1 : 0,
                rec.natoms, rec.steps, rec.loop_s, steps_per_s,
                steps_per_s * kDt * 1e-3 * 86400.0);
    check_gates(o, paths, gates);
    metrics = traced ? per_layer_metrics(o, gates) : end_to_end_metrics(o);
    if (traced) {
      std::ofstream(paths.trace()) << rec.trace_json;
      std::printf("  chrome trace: %s\n", paths.trace().c_str());
    }

    recorder.record_run(w.ranks > 1 ? "socket" : "none", w.ranks, w.threads);
    recorder.root().set("inputs", input_properties(o, seed));
    obs::Json mj = obs::Json::object();
    for (const Metric& m : metrics) {
      obs::Json e = obs::Json::object();
      e.set("value", m.value).set("unit", m.unit).set("source", m.source);
      if (*m.moves != '\0') e.set("moves", m.moves);
      mj.set(m.name, std::move(e));
      std::printf("  %-32s %14.6g %-14s %s%s%s\n", m.name.c_str(), m.value,
                  m.unit, m.source, *m.moves ? "  -> " : "", m.moves);
    }
    recorder.root().set(traced ? "per_layer" : "end_to_end", std::move(mj));
    recorder.root().set("gates", obs::Json::object()
                                     .set("attempted", gates.attempted)
                                     .set("failed", gates.failed));
    std::ofstream(out_dir + "/record.json") << recorder.dump();
    std::filesystem::remove(paths.checkpoint());
  } catch (const std::exception& e) {
    gates.check("run_completed", false, e.what());
    metrics.clear();
  }

  obs::Json result = obs::Json::object();
  result.set("correct", gates.failed == 0);
  result.set("attempted", gates.attempted);
  result.set("failed", gates.failed);
  obs::Json mj = obs::Json::object();
  for (const Metric& m : metrics) {
    mj.set(m.name, obs::Json::object().set("value", m.value).set("unit", m.unit));
  }
  result.set("metrics", std::move(mj));
  std::printf("%s\n", result.dump(0).c_str());
  std::fflush(stdout);
  return gates.failed == 0 ? 0 : 1;
}
