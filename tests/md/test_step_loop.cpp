// The unified timestep pipeline (md::StepLoop): all three drivers —
// Simulation, 1-replica BatchedSimulation, 1-rank ParallelSimulation —
// must advance the same initial system identically, the timer taxonomy
// must be uniform, and checkpoint/restart must round-trip through every
// driver's stage hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string_view>
#include <vector>

#include "comm/transport.hpp"
#include "../comm/transport_test_util.hpp"
#include "md/batched.hpp"
#include "md/io.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "md/step_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_sim.hpp"
#include "ref/pair_lj.hpp"

namespace ember::md {
namespace {

System make_argon(int reps, double temperature, std::uint64_t seed) {
  LatticeSpec spec;
  spec.kind = LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = reps;
  System sys = build_lattice(spec, 39.948);
  Rng rng(seed);
  sys.thermalize(temperature, rng);
  return sys;
}

std::shared_ptr<PairPotential> lj() {
  return std::make_shared<ref::PairLJ>(0.0104, 3.4, 6.5);
}

// ---- cross-driver parity --------------------------------------------------

class CrossDriverParity : public ::testing::TestWithParam<int> {};

TEST_P(CrossDriverParity, DriversAgreeOnTrajectoryAndEnergy) {
  const ExecutionPolicy policy{GetParam()};
  const System init = make_argon(3, 35.0, 101);
  constexpr long kSteps = 60;

  Simulation serial(init, lj(), 0.002, 0.4, 7, policy);
  serial.run(kSteps);

  // One-replica batch: the combined system IS the system, the batched
  // list build degenerates to the serial one — bitwise agreement.
  BatchedSimulation batch(std::vector<System>{init}, lj(), 0.002, 0.4, 7,
                          policy);
  batch.run(kSteps);
  const System rep = batch.replica(0);
  ASSERT_EQ(rep.nlocal(), serial.system().nlocal());
  for (int i = 0; i < rep.nlocal(); ++i) {
    const Vec3 w = serial.system().box().wrap(serial.system().x[i]);
    EXPECT_DOUBLE_EQ(rep.x[i].x, w.x) << "atom " << i;
    EXPECT_DOUBLE_EQ(rep.x[i].y, w.y) << "atom " << i;
    EXPECT_DOUBLE_EQ(rep.x[i].z, w.z) << "atom " << i;
    EXPECT_DOUBLE_EQ(rep.v[i].x, serial.system().v[i].x);
    EXPECT_DOUBLE_EQ(rep.v[i].y, serial.system().v[i].y);
    EXPECT_DOUBLE_EQ(rep.v[i].z, serial.system().v[i].z);
  }
  EXPECT_DOUBLE_EQ(batch.energy_virial().energy, serial.potential_energy());

  // One-rank parallel: same pipeline, but ghosts + self-halo reorder the
  // force accumulation — tight tolerance rather than bitwise.
  comm::test::make(comm::TransportKind::Thread, 1)
      ->run([&](comm::Transport& c) {
    parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.4, 7, policy);
    psim.run(kSteps);
    const auto g = psim.global_state();
    EXPECT_NEAR(g.potential_energy, serial.potential_energy(),
                1e-9 * std::abs(serial.potential_energy()));
    const System gathered = psim.gather_global();
    ASSERT_EQ(gathered.nlocal(), serial.system().nlocal());
    for (int i = 0; i < gathered.nlocal(); ++i) {
      const long id = gathered.id[i];
      const Vec3 d = serial.system().box().minimum_image(
          serial.system().x[static_cast<std::size_t>(id)], gathered.x[i]);
      EXPECT_NEAR(d.norm(), 0.0, 1e-8) << "atom id " << id;
      const Vec3 dv =
          gathered.v[i] - serial.system().v[static_cast<std::size_t>(id)];
      EXPECT_NEAR(dv.norm(), 0.0, 1e-8) << "atom id " << id;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Threads, CrossDriverParity, ::testing::Values(1, 8),
                         [](const auto& param_info) {
                           return "nthreads" +
                                  std::to_string(param_info.param);
                         });

// ---- unified timer taxonomy -----------------------------------------------

TEST(StepLoopTimers, SerialBreakdownHasNoCommBucket) {
  Simulation sim(make_argon(2, 40.0, 3), lj(), 0.002, 0.4, 5);
  sim.run(40);
  const TimerSet& t = sim.timers();
  EXPECT_GT(t.total(TimerCategory::Pair), 0.0);
  EXPECT_GT(t.total(TimerCategory::Neigh), 0.0);
  EXPECT_GT(t.total(TimerCategory::Other), 0.0);
  // Serial drivers never open the Comm bucket, so Pair+Neigh+Other
  // fractions still cover the whole run.
  EXPECT_EQ(t.total(TimerCategory::Comm), 0.0);
}

TEST(StepLoopTimers, BatchedRecordsTheSameTaxonomy) {
  std::vector<System> reps;
  reps.push_back(make_argon(2, 30.0, 1));
  reps.push_back(make_argon(2, 50.0, 2));
  BatchedSimulation batch(reps, lj(), 0.002, 0.4, 9);
  batch.run(40);
  const TimerSet& t = batch.timers();
  EXPECT_GT(t.total(TimerCategory::Pair), 0.0);
  EXPECT_GT(t.total(TimerCategory::Neigh), 0.0);
  EXPECT_GT(t.total(TimerCategory::Other), 0.0);
  EXPECT_EQ(t.total(TimerCategory::Comm), 0.0);
}

TEST(StepLoopTimers, Fig4LabelsMapTheCanonicalCategories) {
  EXPECT_STREQ(fig4_label(TimerCategory::Pair), "SNAP");
  EXPECT_STREQ(fig4_label(TimerCategory::Comm), "MPI Comm");
  EXPECT_STREQ(fig4_label(TimerCategory::Neigh), "Neigh");
  EXPECT_STREQ(fig4_label(TimerCategory::Other), "Other");
}

// ---- span instrumentation of the pipeline ---------------------------------

TEST(StepLoopTrace, EveryStageEmitsExactlyOneSpanPerStep) {
  Simulation sim(make_argon(3, 40.0, 77), lj(), 0.002, 0.4, 5,
                 ExecutionPolicy{2});
  sim.run(1);  // setup (and its spans) happen outside the traced window

  auto& session = obs::TraceSession::global();
  session.clear();
  session.start();
  constexpr long kSteps = 6;
  sim.run(kSteps);
  session.stop();

  EXPECT_EQ(session.count("step"), kSteps);
  EXPECT_EQ(session.count("integrate.initial"), kSteps);
  EXPECT_EQ(session.count("force"), kSteps);
  EXPECT_EQ(session.count("reverse"), kSteps);
  EXPECT_EQ(session.count("integrate.final"), kSteps);
  // Each step takes exactly one of the two position paths, and the
  // exchange stage runs once per rebuild.
  EXPECT_EQ(session.count("forward") + session.count("neigh.rebuild"), kSteps);
  EXPECT_EQ(session.count("exchange"), session.count("neigh.rebuild"));

  // The step span wraps the stage spans, and carries the step number.
  int pool_tids = 0;
  std::vector<bool> seen_tid;
  for (const auto& e : session.snapshot()) {
    const std::string name = e.name;
    if (name == "step") {
      EXPECT_EQ(e.depth, 0);
      ASSERT_NE(e.arg_key, nullptr);
      EXPECT_STREQ(e.arg_key, "step");
      EXPECT_GE(e.arg_val, 1);
    } else if (name == "force" || name == "integrate.initial") {
      EXPECT_EQ(e.depth, 1);
    } else if (name == "pool.sweep") {
      if (e.tid >= static_cast<int>(seen_tid.size())) {
        seen_tid.resize(e.tid + 1, false);
      }
      if (!seen_tid[e.tid]) {
        seen_tid[e.tid] = true;
        ++pool_tids;
      }
    }
  }
  // The threaded sweeps show up on the main thread AND the pool worker.
  EXPECT_GE(pool_tids, 2);
  session.clear();
}

// ---- one instrument per stage: buckets, spans and histogram agree ---------

// Seconds of every recorded span named in `names` (on session thread `tid`,
// or any thread when tid < 0), summed in recording order.
double span_seconds(const std::vector<obs::SpanEvent>& events,
                    std::initializer_list<std::string_view> names,
                    int tid = -1) {
  double sum = 0.0;
  for (const auto& e : events) {
    if (tid >= 0 && e.tid != tid) continue;
    for (const std::string_view n : names) {
      if (n == e.name) sum += static_cast<double>(e.dur_ns) * 1e-9;
    }
  }
  return sum;
}

void expect_same_seconds(double bucket, double spans, const char* what) {
  EXPECT_GT(spans, 0.0) << what;
  EXPECT_NEAR(bucket, spans, 1e-12 * spans) << what;
}

TEST(ObsTraceAgreement, EveryBucketEqualsItsStageSpans) {
  const std::string traj = ::testing::TempDir() + "ember_agree.xyz";
  const std::string ckpt = ::testing::TempDir() + "ember_agree.ckpt";
  auto& session = obs::TraceSession::global();
  session.clear();
  session.start();
  // Hot argon and a thin skin: the run reneighbors several times.
  Simulation sim(make_argon(3, 300.0, 13), lj(), 0.002, 0.1, 5,
                 ExecutionPolicy{2});
  IoPlan plan;
  plan.dump_every = 5;
  plan.dump_path = traj;
  plan.checkpoint_every = 10;
  plan.checkpoint_path = ckpt;
  sim.set_io_plan(plan);
  sim.run(30);
  session.stop();
  const auto events = session.snapshot();
  session.clear();
  std::remove(traj.c_str());
  std::remove(ckpt.c_str());

  ASSERT_GE(std::count_if(events.begin(), events.end(),
                          [](const obs::SpanEvent& e) {
                            return std::string_view(e.name) == "neigh.rebuild";
                          }),
            2);  // setup's build plus at least one in-run rebuild
  const TimerSet& t = sim.timers();
  expect_same_seconds(t.total(TimerCategory::Pair),
                      span_seconds(events, {"force"}), "Pair");
  expect_same_seconds(t.total(TimerCategory::Neigh),
                      span_seconds(events, {"neigh.rebuild"}), "Neigh");
  expect_same_seconds(
      t.total(TimerCategory::Other),
      span_seconds(events, {"integrate.initial", "integrate.final"}), "Other");
  expect_same_seconds(t.total(TimerCategory::Dump),
                      span_seconds(events, {"dump", "checkpoint"}), "Dump");
  // The serial driver's comm stages still emit spans, but never open the
  // Comm bucket.
  EXPECT_GT(span_seconds(events, {"forward", "reverse"}), 0.0);
  EXPECT_EQ(t.total(TimerCategory::Comm), 0.0);
}

TEST(ObsTraceAgreement, CommBucketEqualsEachRanksCommSpans) {
  const System init = make_argon(3, 300.0, 21);
  auto& session = obs::TraceSession::global();
  session.clear();
  session.start();
  std::vector<double> comm_bucket(2, 0.0);
  std::vector<int> rank_tid(2, -1);
  comm::test::make(comm::TransportKind::Thread, 2)
      ->run([&](comm::Transport& c) {
    {
      // Tag this rank's trace thread so its spans can be told apart.
      const obs::ScopedSpan tag("rank.tag", "test", "rank", c.rank());
    }
    parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.1, 7);
    psim.run(30);
    comm_bucket[static_cast<std::size_t>(c.rank())] =
        psim.timers().total(TimerCategory::Comm);
  });
  session.stop();
  const auto events = session.snapshot();
  session.clear();

  for (const auto& e : events) {
    if (std::string_view(e.name) == "rank.tag") {
      rank_tid[static_cast<std::size_t>(e.arg_val)] = e.tid;
    }
  }
  for (int r = 0; r < 2; ++r) {
    ASSERT_GE(rank_tid[r], 0) << "rank " << r;
    expect_same_seconds(
        comm_bucket[r],
        span_seconds(events,
                     {"exchange", "forward", "reverse", "comm.rebuild_check"},
                     rank_tid[r]),
        "Comm");
  }
}

TEST(ObsTraceAgreement, CommWaitSpansSumToCommSeconds) {
  const System init = make_argon(3, 300.0, 21);
  auto& session = obs::TraceSession::global();
  session.clear();
  session.start();
  std::vector<double> comm_seconds(2, 0.0);
  std::vector<int> rank_tid(2, -1);
  comm::test::make(comm::TransportKind::Thread, 2)
      ->run([&](comm::Transport& c) {
    {
      const obs::ScopedSpan tag("rank.tag", "test", "rank", c.rank());
    }
    parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.1, 7);
    psim.run(30);
    comm_seconds[static_cast<std::size_t>(c.rank())] = c.comm_seconds();
  });
  session.stop();
  const auto events = session.snapshot();
  session.clear();

  for (const auto& e : events) {
    if (std::string_view(e.name) == "rank.tag") {
      rank_tid[static_cast<std::size_t>(e.arg_val)] = e.tid;
    }
  }
  for (int r = 0; r < 2; ++r) {
    ASSERT_GE(rank_tid[r], 0) << "rank " << r;
    expect_same_seconds(comm_seconds[r],
                        span_seconds(events, {"comm.wait"}, rank_tid[r]),
                        "comm.wait");
  }
}

TEST(ObsTraceAgreement, StepHistogramSumsTheStepSpans) {
  Simulation sim(make_argon(2, 40.0, 3), lj(), 0.002, 0.4, 5);
  sim.run(1);  // registers md.step.seconds
  obs::Histogram& steps =
      obs::Registry::global().histogram("md.step.seconds", {});
  steps.reset();
  auto& session = obs::TraceSession::global();
  session.clear();
  session.start();
  sim.run(20);
  session.stop();
  const auto events = session.snapshot();
  session.clear();

  const obs::Histogram::Snapshot h = steps.snapshot();
  EXPECT_EQ(h.count, 20u);
  expect_same_seconds(h.sum, span_seconds(events, {"step"}), "md.step");
}

// ---- checkpoint round-trips through the stage hook ------------------------

void expect_systems_close(const System& a, const System& b, double tol) {
  ASSERT_EQ(a.nlocal(), b.nlocal());
  for (int i = 0; i < a.nlocal(); ++i) {
    const Vec3 d = a.box().minimum_image(a.x[i], b.x[i]);
    EXPECT_NEAR(d.norm(), 0.0, tol) << "atom " << i;
    EXPECT_NEAR((a.v[i] - b.v[i]).norm(), 0.0, tol) << "atom " << i;
  }
}

TEST(CheckpointRoundTrip, SerialRestartMatchesUninterrupted) {
  const char* path = "/tmp/ember_steploop_serial_ckpt.bin";
  const System init = make_argon(3, 45.0, 21);

  Simulation full(init, lj(), 0.002, 0.4, 13);
  full.run(60);

  Simulation head(init, lj(), 0.002, 0.4, 13);
  head.run(30);
  head.save_checkpoint(path);

  Simulation tail(read_checkpoint(path), lj(), 0.002, 0.4, 13);
  tail.run(30);

  expect_systems_close(full.system(), tail.system(), 1e-8);
  EXPECT_NEAR(tail.potential_energy(), full.potential_energy(),
              1e-9 * std::abs(full.potential_energy()));
  std::remove(path);
}

TEST(CheckpointRoundTrip, ParallelGatherOnRootRestartMatches) {
  const char* path = "/tmp/ember_steploop_parallel_ckpt.bin";
  const System init = make_argon(3, 45.0, 33);
  constexpr int kRanks = 2;

  System full_final(init.box(), init.mass());
  {
    comm::test::make(comm::TransportKind::Thread, kRanks)
        ->run([&](comm::Transport& c) {
      parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.4, 17);
      psim.run(60);
      System g = psim.gather_global();
      if (c.rank() == 0) full_final = std::move(g);
    });
  }

  {
    comm::test::make(comm::TransportKind::Thread, kRanks)
        ->run([&](comm::Transport& c) {
      parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.4, 17);
      psim.run(30);
      psim.save_checkpoint(path);  // rank 0 writes, everyone syncs
    });
  }

  // The parallel checkpoint is a standard single-System file.
  const System restored = read_checkpoint(path);
  ASSERT_EQ(restored.nlocal(), init.nlocal());

  System tail_final(init.box(), init.mass());
  {
    comm::test::make(comm::TransportKind::Thread, kRanks)
        ->run([&](comm::Transport& c) {
      parallel::ParallelSimulation psim(c, restored, lj(), 0.002, 0.4, 17);
      psim.run(30);
      System g = psim.gather_global();
      if (c.rank() == 0) tail_final = std::move(g);
    });
  }

  expect_systems_close(full_final, tail_final, 1e-7);
  std::remove(path);
}

TEST(CheckpointRoundTrip, BatchedRestartMatchesUninterrupted) {
  const char* path = "/tmp/ember_steploop_batch_ckpt.bin";
  std::vector<System> reps;
  reps.push_back(make_argon(2, 30.0, 4));
  reps.push_back(make_argon(2, 55.0, 5));

  BatchedSimulation full(reps, lj(), 0.002, 0.4, 23);
  full.run(40);

  BatchedSimulation head(reps, lj(), 0.002, 0.4, 23);
  head.run(24);
  head.save_checkpoint(path);

  std::vector<System> restored = read_checkpoint_batch(path);
  ASSERT_EQ(restored.size(), 2u);
  BatchedSimulation tail(std::move(restored), lj(), 0.002, 0.4, 23);
  tail.run(16);

  for (int r = 0; r < 2; ++r) {
    expect_systems_close(full.replica(r), tail.replica(r), 1e-8);
  }
  std::remove(path);
}

}  // namespace
}  // namespace ember::md
