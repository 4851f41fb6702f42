#pragma once

// Per-rank parallel MD driver: LAMMPS-style spatial decomposition over the
// in-process message-passing layer.
//
// The timestep is the shared md::StepLoop pipeline; this driver fills in
// the communication stages:
//   check_rebuild     -> allreduce of the displacement criterion   [Comm]
//   exchange          -> wrap + migrate atoms to their owners,
//                        rebuild the ghost halo (an up and a down
//                        leg per split dimension, with corner
//                        propagation)                              [Comm]
//   build_neighbors   -> the serial stage: owners + ghosts         [Neigh]
//   forward_positions -> owner positions into ghost copies         [Comm]
//   reverse_forces    -> ghost forces back onto their owners       [Comm]
//   write_checkpoint  -> gather-on-root, rank 0 writes             (collective)
//
// Ghosts exist only across rank boundaries. A rank's System lives in
// Domain::rank_box(), periodic in every dimension the grid does not split:
// the neighbor list reaches those images through shifts, and those
// dimensions have no halo legs. A 1-rank run holds no ghosts and steps
// bit for bit like md::Simulation.
//
// Timing uses the unified Pair / Neigh / Comm / Other taxonomy; the
// paper's Fig. 4 labels ("SNAP", "MPI Comm") are applied in the bench
// layer via md::fig4_label.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "md/step_loop.hpp"
#include "parallel/domain.hpp"

namespace ember::parallel {

struct GlobalState {
  long natoms = 0;
  double potential_energy = 0.0;  // [eV]
  double kinetic_energy = 0.0;    // [eV]
  double temperature = 0.0;       // [K]
  double virial = 0.0;
  [[nodiscard]] double total_energy() const {
    return potential_energy + kinetic_energy;
  }
};

class ParallelSimulation : private md::StepStages {
 public:
  // Every rank passes the same global initial System; atoms are scattered
  // by ownership. The potential object must be rank-private.
  ParallelSimulation(comm::Transport& comm, const md::System& global,
                     std::shared_ptr<md::PairPotential> pot, double dt_ps,
                     double skin = 0.5, std::uint64_t seed = 12345,
                     ExecutionPolicy policy = {});

  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

  // Per-rank thread pool for the force/neighbor/integration sweeps (the
  // paper's rank = GPU, team = thread block hierarchy). Default: serial.
  void set_execution_policy(ExecutionPolicy policy) {
    loop_.set_execution_policy(policy);
  }
  [[nodiscard]] const md::ComputeContext& context() const {
    return loop_.context();
  }

  [[nodiscard]] md::System& local() { return loop_.system(); }
  [[nodiscard]] md::Integrator& integrator() { return loop_.integrator(); }
  [[nodiscard]] const TimerSet& timers() const { return loop_.timers(); }
  void reset_timers() { loop_.reset_timers(); }
  [[nodiscard]] const Domain& domain() const { return domain_; }
  [[nodiscard]] long step() const { return loop_.step(); }

  void setup() { loop_.setup(); }

  using StepCallback = std::function<void(ParallelSimulation&)>;
  void run(long nsteps, const StepCallback& callback = {});

  // Collective diagnostics (all ranks must call together).
  GlobalState global_state();

  // Reassemble the full system on every rank (collective; test helper).
  md::System gather_global();

  // Collective checkpoint: gather the global system on rank 0, which
  // writes a standard single-System file readable by read_checkpoint;
  // all ranks synchronize before returning.
  void save_checkpoint(const std::string& path) {
    loop_.save_checkpoint(path);
  }

  // Scheduled output (gather-on-root dumps + periodic checkpoints). The
  // writer is rank-private: with process-backed transports each rank
  // must construct its own writer after the fork.
  void set_io_plan(md::IoPlan plan) { loop_.set_io_plan(std::move(plan)); }
  void set_writer(std::shared_ptr<io::Writer> writer) {
    loop_.set_writer(std::move(writer));
  }
  [[nodiscard]] io::Writer& writer() { return loop_.writer(); }

 private:
  [[nodiscard]] bool communicates() const override { return true; }
  [[nodiscard]] bool check_rebuild(md::StepLoop& loop) override;
  void exchange(md::StepLoop& loop, bool initial) override;
  void forward_positions(md::StepLoop& loop) override;
  void reverse_forces(md::StepLoop& loop) override;
  void dump(md::StepLoop& loop, const md::IoPlan& plan,
            bool truncate) override;
  void write_checkpoint(md::StepLoop& loop, const std::string& path) override;

  // Checked-build invariants (EMBER_CHECKED=ON): every exchange must
  // conserve the global atom count and the per-leg ghost bookkeeping must
  // match the halo actually held; the drift tripwire watches the global
  // (allreduced) total energy so every rank trips identically.
  void verify_exchange(md::StepLoop& loop, bool initial) override;
  [[nodiscard]] double total_energy(md::StepLoop& loop) override;

  void scatter(const md::System& global);
  void migrate();
  void exchange_ghosts();
  [[nodiscard]] md::System gather(bool on_all_ranks);

  comm::Transport& comm_;
  md::Box global_box_;
  Domain domain_;
  md::StepLoop loop_;

  // Halo legs, two per dimension the grid splits (dim-major, up then
  // down). The partners and the position shift are fixed by the grid;
  // each exchange refills the atoms sent (local or ghost) and the ghost
  // range received.
  struct Leg {
    int dim = 0;
    bool up = true;
    int send_to = -1;
    int recv_from = -1;
    Vec3 send_shift{};
    std::vector<int> send_idx;
    int ghost_begin = 0;
    int ghost_count = 0;
  };
  std::vector<Leg> legs_;

  // Global atom count captured by the first checked exchange (collective,
  // so every rank settles on the same baseline); -1 = not yet captured.
  long checked_natoms_ = -1;
};

}  // namespace ember::parallel
