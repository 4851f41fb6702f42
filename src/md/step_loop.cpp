#include "step_loop.hpp"

#include "io/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ember::md {

namespace {

// Observability handles for the pipeline, registered once per process.
// Every StepLoop (serial, batched, each parallel rank) reports into the
// same counters; the per-thread shards keep concurrent ranks cheap.
struct LoopMetrics {
  obs::Counter& steps;
  obs::Counter& rebuilds;
  obs::Histogram& step_seconds;

  static LoopMetrics& get() {
    // Step-time buckets: 10 us .. 10 s, decade + half-decade resolution —
    // wide enough for an LJ toy box and a multi-rank SNAP step alike.
    static constexpr double kBounds[] = {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                                         1e-2, 3e-2, 1e-1, 3e-1, 1.0, 10.0};
    auto& reg = obs::Registry::global();
    static LoopMetrics m{reg.counter("md.steps"),
                         reg.counter("md.neigh.rebuilds"),
                         reg.histogram("md.step.seconds", kBounds)};
    return m;
  }
};

}  // namespace

bool StepStages::check_rebuild(StepLoop& loop) {
  return loop.neighbor_list().needs_rebuild(loop.system());
}

void StepStages::exchange(StepLoop&, bool) {}

void StepStages::build_neighbors(StepLoop& loop, bool initial) {
  System& sys = loop.system();
  if (!initial) {
    // Re-wrap positions only together with the rebuild, so the list's
    // shift vectors stay consistent with the stored coordinates. The
    // setup build takes the caller's coordinates as-is.
    for (int i = 0; i < sys.nlocal(); ++i) {
      sys.x[i] = sys.box().wrap(sys.x[i]);
    }
  }
  // A parallel rank's ghosts (pre-shifted copies across its split
  // dimensions) are candidates too; a serial System holds none.
  loop.neighbor_list().build(sys, /*use_ghosts=*/true, &loop.context());
}

void StepStages::forward_positions(StepLoop&) {}

void StepStages::reverse_forces(StepLoop&) {}

void StepStages::dump(StepLoop& loop, const IoPlan& plan, bool truncate) {
  io::Request req;
  req.kind = io::Request::Kind::Trajectory;
  req.path = plan.dump_path;
  req.format = plan.dump_format;
  req.truncate = truncate;
  req.frames.push_back(io::frame_of(loop.system(), loop.step(), /*replica=*/0,
                                    "step=" + std::to_string(loop.step())));
  // Trajectory dumps are position-only in every format: XYZ has no
  // velocity column, and keeping EMBT1 to the same information makes the
  // compressed trajectory strictly smaller. Restarts use checkpoints.
  req.frames.back().v.clear();
  loop.writer().submit(std::move(req));
}

void StepStages::write_checkpoint(StepLoop& loop, const std::string& path) {
  io::Request req;
  req.kind = io::Request::Kind::Checkpoint;
  req.path = path;
  req.frames.push_back(io::frame_of(loop.system()));
  loop.writer().submit(std::move(req));
}

void StepStages::verify_exchange(StepLoop& loop, bool /*initial*/) {
  check::check_no_ghosts(loop.system(), "exchange", loop.step());
}

void StepStages::verify_neighbors(StepLoop& loop) {
  check::check_neighbor_list(loop.neighbor_list(), loop.system(), "neigh",
                             loop.step());
}

double StepStages::total_energy(StepLoop& loop) {
  return loop.energy_virial().energy + loop.system().kinetic_energy();
}

StepLoop::StepLoop(System sys, std::shared_ptr<PairPotential> pot,
                   double dt_ps, double skin, Rng rng, ExecutionPolicy policy,
                   StepStages& stages)
    : stages_(&stages),
      sys_(std::move(sys)),
      pot_(std::move(pot)),
      ctx_(policy),
      integrator_(dt_ps),
      nl_(pot_->cutoff(), skin),
      rng_(rng) {}

double* StepLoop::bucket(TimerCategory category) {
  const bool idle = category == TimerCategory::Comm && !stages_->communicates();
  return idle ? nullptr : &timers_.bucket(category);
}

void StepLoop::reset_thread_times() {
  if (!ctx_.serial()) ctx_.pool().reset_thread_seconds();
}

void StepLoop::add_thread_times(TimerCategory category) {
  if (!ctx_.serial()) {
    timers_.add_thread_times(category, ctx_.pool().thread_seconds());
  }
}

void StepLoop::rebuild_neighbors(bool initial) {
  const obs::ScopedSpan span("neigh.rebuild", "neigh",
                             bucket(TimerCategory::Neigh));
  reset_thread_times();
  stages_->build_neighbors(*this, initial);
  add_thread_times(TimerCategory::Neigh);
  LoopMetrics::get().rebuilds.inc();
  EMBER_CHECK(stages_->verify_neighbors(*this));
}

void StepLoop::compute_forces() {
  const obs::ScopedSpan span("force", "pair", bucket(TimerCategory::Pair));
  reset_thread_times();
  sys_.zero_forces();
  ev_ = pot_->compute(ctx_, sys_, nl_);
  add_thread_times(TimerCategory::Pair);
  EMBER_CHECK(
      check::check_finite(sys_.f, sys_.nlocal(), "force", "force", step_));
}

// The Dump-timed stage: snapshotting + submit for async writers, the full
// write for sync ones — exactly the stall Fig.-4-style breakdowns should
// attribute to output, not to Other.
void StepLoop::scheduled_output() {
  if (io_plan_.dumps() && step_ % io_plan_.dump_every == 0) {
    const obs::ScopedSpan span("dump", "io", bucket(TimerCategory::Dump));
    stages_->dump(*this, io_plan_, !dump_started_ && !io_plan_.append);
    dump_started_ = true;
  }
  if (io_plan_.checkpoints() && step_ % io_plan_.checkpoint_every == 0) {
    const obs::ScopedSpan span("checkpoint", "io",
                               bucket(TimerCategory::Dump));
    // No drain: the writer tmp+renames checkpoints, so the file on disk
    // is always complete even while the queue is in flight.
    stages_->write_checkpoint(*this, io_plan_.checkpoint_path);
  }
}

void StepLoop::observe_drift() {
  if (!tripwire_.armed()) {
    const double tol = check::drift_tolerance_from_env();
    if (tol <= 0.0) return;
    tripwire_.arm(stages_->total_energy(*this), tol);
    return;
  }
  tripwire_.observe(stages_->total_energy(*this), step_);
}

void StepLoop::setup() {
  const obs::ScopedSpan span("setup", "other");
  {
    const obs::ScopedSpan comm("exchange", "comm", bucket(TimerCategory::Comm));
    stages_->exchange(*this, /*initial=*/true);
  }
  EMBER_CHECK(stages_->verify_exchange(*this, /*initial=*/true));
  rebuild_neighbors(/*initial=*/true);
  compute_forces();
  {
    const obs::ScopedSpan comm("reverse", "comm", bucket(TimerCategory::Comm));
    stages_->reverse_forces(*this);
  }
  ready_ = true;
}

void StepLoop::step_once() {
  {
    const obs::ScopedSpan span("integrate.initial", "other",
                               bucket(TimerCategory::Other));
    integrator_.initial_integrate(sys_, &ctx_);
  }
  EMBER_CHECK(check::check_finite(sys_.x, sys_.nlocal(), "position",
                                  "integrate", step_));
  if (stages_->check_rebuild(*this)) {
    {
      const obs::ScopedSpan span("exchange", "comm",
                                 bucket(TimerCategory::Comm));
      stages_->exchange(*this, /*initial=*/false);
    }
    EMBER_CHECK(stages_->verify_exchange(*this, /*initial=*/false));
    rebuild_neighbors(/*initial=*/false);
  } else {
    const obs::ScopedSpan span("forward", "comm", bucket(TimerCategory::Comm));
    stages_->forward_positions(*this);
  }
  compute_forces();
  {
    const obs::ScopedSpan span("reverse", "comm", bucket(TimerCategory::Comm));
    stages_->reverse_forces(*this);
  }
  {
    const obs::ScopedSpan span("integrate.final", "other",
                               bucket(TimerCategory::Other));
    integrator_.final_integrate(sys_, ev_, rng_, &ctx_);
  }
  ++step_;
  EMBER_CHECK(observe_drift());
  scheduled_output();
}

void StepLoop::run(long nsteps, const std::function<void()>& after_step) {
  if (!ready_) setup();
  LoopMetrics& m = LoopMetrics::get();
  for (long s = 0; s < nsteps; ++s) {
    double seconds = 0.0;
    {
      const obs::ScopedSpan span("step", "step", "step", step_, &seconds);
      step_once();
    }
    m.steps.inc();
    m.step_seconds.record(seconds);
    if (after_step) after_step();
  }
}

}  // namespace ember::md
