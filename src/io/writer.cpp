#include "writer.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "io/embt1.hpp"
#include "io/formats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ember::io {

namespace {

struct IoMetrics {
  obs::Counter& bytes;
  obs::Counter& frames;
  obs::Counter& stall_seconds;
  obs::Counter& stalls_avoided_seconds;

  static IoMetrics& get() {
    static IoMetrics m{
        obs::Registry::global().counter("io.bytes"),
        obs::Registry::global().counter("io.frames"),
        obs::Registry::global().counter("io.stall_seconds"),
        obs::Registry::global().counter("io.stalls_avoided_seconds"),
    };
    return m;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Runs requests against the filesystem. Owned by exactly one thread at a
// time — the caller for SyncWriter, the worker for AsyncWriter — so it
// needs no locking; the per-path Embt1Writer map is what keeps delta
// encoding stateful across trajectory requests.
class Executor {
 public:
  void execute(const Request& req) {
    const obs::ScopedSpan span("io.write", "io");
    std::size_t bytes = 0;
    switch (req.kind) {
      case Request::Kind::Trajectory:
        bytes = write_trajectory(req);
        break;
      case Request::Kind::Checkpoint:
      case Request::Kind::CheckpointBatch:
        bytes = write_checkpoint(req);
        break;
    }
    IoMetrics::get().bytes.add(static_cast<double>(bytes));
    IoMetrics::get().frames.add(static_cast<double>(req.frames.size()));
  }

 private:
  std::size_t write_trajectory(const Request& req) {
    if (req.format == Format::Embt1) {
      auto it = traj_.find(req.path);
      if (it == traj_.end() || req.truncate) {
        it = traj_.insert_or_assign(req.path,
                                    Embt1Writer(req.path, req.truncate))
                 .first;
      }
      std::size_t n = 0;
      for (const Frame& f : req.frames) n += it->second.append(f);
      return n;
    }
    std::ostringstream buf;
    for (const Frame& f : req.frames) write_xyz_frame(buf, f);
    const std::string bytes = buf.str();
    std::ofstream os(req.path, req.truncate ? std::ios::trunc : std::ios::app);
    if (!os.good()) throw Error("cannot open " + req.path + " for writing");
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) {
      throw Error("xyz write failed (disk full or path unwritable): " +
                  req.path);
    }
    return bytes.size();
  }

  // Checkpoints are written to "<path>.tmp" and renamed into place so a
  // reader never sees a half-written restart file, even while the async
  // queue is still in flight.
  std::size_t write_checkpoint(const Request& req) {
    std::ostringstream buf(std::ios::binary);
    if (req.kind == Request::Kind::Checkpoint) {
      EMBER_REQUIRE(req.frames.size() == 1,
                    "single-system checkpoint takes exactly one frame");
      write_checkpoint_frame(buf, req.frames.front());
    } else {
      write_checkpoint_frames(buf, req.frames);
    }
    const std::string bytes = buf.str();
    const std::string tmp = req.path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os.good()) throw Error("cannot open " + tmp + " for writing");
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      os.flush();
      if (!os.good()) {
        throw Error("checkpoint write failed (disk full or path unwritable): " +
                    tmp);
      }
    }
    if (std::rename(tmp.c_str(), req.path.c_str()) != 0) {
      throw Error("cannot move checkpoint into place: " + req.path);
    }
    return bytes.size();
  }

  std::map<std::string, Embt1Writer> traj_;
};

class SyncWriter final : public Writer {
 public:
  void submit(Request req) override {
    // The whole write happens on the caller's thread: that is exactly the
    // stall the async backend exists to remove, so record it as one.
    const auto t0 = std::chrono::steady_clock::now();
    executor_.execute(req);
    IoMetrics::get().stall_seconds.add(seconds_since(t0));
  }

  void drain() override {}  // every submit already completed inline

  [[nodiscard]] bool async() const override { return false; }

 private:
  Executor executor_;
};

class AsyncWriter final : public Writer {
 public:
  explicit AsyncWriter(std::size_t queue_capacity)
      : capacity_(queue_capacity < 1 ? 1 : queue_capacity),
        worker_([this] { run(); }) {}

  ~AsyncWriter() override {
    {
      LockGuard lk(mutex_);
      stopping_ = true;
    }
    worker_cv_.notify_all();
    worker_.join();  // drain-on-destruct: the worker empties the queue first
    // The worker is gone, but error_ is guarded state: take the lock like
    // everyone else (uncontended here) rather than carving out an exempt
    // read the analysis would rightly flag.
    std::exception_ptr err;
    {
      LockGuard lk(mutex_);
      err = std::exchange(error_, nullptr);
    }
    if (err != nullptr) {
      // Destructors cannot throw; this is the one place an error can
      // surface without a caller to rethrow into. Callers that must
      // observe errors (checkpoint barriers, end-of-run) call drain().
      try {
        std::rethrow_exception(err);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ember: io error during writer shutdown: %s\n",
                     e.what());
      }
    }
  }

  void submit(Request req) override {
    LockGuard lk(mutex_);
    rethrow_pending();
    if (queue_.size() >= capacity_) {
      // Backpressure: the producer outran the disk. The blocked time is
      // the stall the double buffer could not hide.
      const auto t0 = std::chrono::steady_clock::now();
      while (queue_.size() >= capacity_ && error_ == nullptr) {
        caller_cv_.wait(mutex_);
      }
      IoMetrics::get().stall_seconds.add(seconds_since(t0));
      rethrow_pending();
    }
    queue_.push_back(std::move(req));
    worker_cv_.notify_one();
  }

  void drain() override {
    LockGuard lk(mutex_);
    const auto t0 = std::chrono::steady_clock::now();
    while (!(queue_.empty() && !in_flight_) && error_ == nullptr) {
      caller_cv_.wait(mutex_);
    }
    IoMetrics::get().stall_seconds.add(seconds_since(t0));
    rethrow_pending();
  }

  [[nodiscard]] bool async() const override { return true; }

 private:
  // Rethrows the worker's first error once; later requests start from a
  // clean slate (the interpreter keeps running after a failed run).
  void rethrow_pending() EMBER_REQUIRES(mutex_) {
    if (error_ != nullptr) {
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

  void run() {
    obs::TraceSession::global().set_thread_name("io-writer");
    for (;;) {
      Request req;
      {
        LockGuard lk(mutex_);
        while (queue_.empty() && !stopping_) worker_cv_.wait(mutex_);
        if (queue_.empty()) return;  // stopping_ and fully drained
        req = std::move(queue_.front());
        queue_.pop_front();
        in_flight_ = true;
      }

      // The filesystem work runs outside the lock (ember_analyze
      // blocking-under-lock pins this): submit() stays wait-free while a
      // frame is being written, which is the whole point of the backend.
      const auto t0 = std::chrono::steady_clock::now();
      std::exception_ptr err;
      try {
        executor_.execute(req);
      } catch (...) {
        err = std::current_exception();
      }
      const double write_seconds = seconds_since(t0);

      {
        LockGuard lk(mutex_);
        in_flight_ = false;
        if (err != nullptr) {
          if (error_ == nullptr) error_ = err;
          // Not a silent drop: the error is rethrown at the caller's next
          // submit()/drain(), and later requests could depend on this one.
          queue_.clear();
        } else {
          IoMetrics::get().stalls_avoided_seconds.add(write_seconds);
        }
        caller_cv_.notify_all();
      }
    }
  }

  Executor executor_;
  const std::size_t capacity_;
  Mutex mutex_;
  CondVar worker_cv_;  // signals work / stop to the worker
  CondVar caller_cv_;  // signals space / completion / error
  std::deque<Request> queue_ EMBER_GUARDED_BY(mutex_);
  bool in_flight_ EMBER_GUARDED_BY(mutex_) = false;
  bool stopping_ EMBER_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ EMBER_GUARDED_BY(mutex_);
  std::thread worker_;  // last member: starts after the state it reads
};

}  // namespace

Format format_from_path(const std::string& path) {
  return path.ends_with(kEmbt1Extension) ? Format::Embt1 : Format::Xyz;
}

const char* to_string(Format format) {
  return format == Format::Embt1 ? "ember_traj" : "xyz";
}

const char* to_string(Mode mode) {
  return mode == Mode::Async ? "async" : "sync";
}

Mode mode_from_env() {
  const char* env = std::getenv("EMBER_IO");
  if (env == nullptr || *env == '\0') return Mode::Sync;
  const std::string_view v(env);
  if (v == "sync") return Mode::Sync;
  if (v == "async") return Mode::Async;
  throw Error("EMBER_IO must be 'sync' or 'async', got '" + std::string(v) +
              "'");
}

std::unique_ptr<Writer> make_writer(Mode mode, std::size_t queue_capacity) {
  if (mode == Mode::Async) {
    return std::make_unique<AsyncWriter>(queue_capacity);
  }
  return std::make_unique<SyncWriter>();
}

}  // namespace ember::io
