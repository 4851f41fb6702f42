#pragma once

// Scoped spans with thread attribution and Chrome trace-event export.
//
// The profiling story of the source papers (TestSNAP's V1–V7 ladder, the
// paper's Pair/Comm/Other attribution) needs per-stage wall-clock spans,
// not just end-of-run totals. This file provides:
//
//   * TraceSession — one process-wide session. start()/stop() flips a
//     single relaxed atomic; when stopped, a ScopedSpan without a sink
//     is one load and one branch on the hot path.
//   * ScopedSpan — RAII span and the one stage timer. Records name,
//     category, thread, nesting depth, start and duration into a
//     per-thread buffer (own mutex per buffer: appends are uncontended;
//     exports are safe concurrently). Its optional `seconds` sink (a
//     TimerSet bucket, a worker's busy slot) gets the same duration,
//     traced or not, so a trace and a Fig. 4 breakdown cannot disagree.
//   * Chrome trace-event JSON export ("traceEvents" with "ph":"X"
//     complete events, microsecond timestamps) — loadable directly in
//     Perfetto / chrome://tracing. Thread-name metadata events label the
//     pool workers and in-process MPI ranks.
//
// Span names must be string literals (or otherwise outlive the session):
// the buffer stores pointers, never copies, so the hot path does no
// allocation.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace ember::obs {

struct SpanEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t start_ns = 0;  // relative to session start
  std::int64_t dur_ns = 0;
  int tid = 0;    // session-stable small integer, 0 = first thread seen
  int depth = 0;  // nesting level on its thread at span entry
  // Optional single integer annotation ("step": 1234).
  const char* arg_key = nullptr;
  std::int64_t arg_val = 0;
};

class TraceSession {
 public:
  static TraceSession& global();

  // Enable span recording. Also clears nothing: call clear() first for a
  // fresh trace. Idempotent.
  void start();
  void stop();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Drop all recorded events (keeps thread registrations and names).
  void clear();

  // Label the calling thread in the exported trace ("pool-worker-3",
  // "rank-0"). Safe to call before any span on the thread.
  void set_thread_name(const std::string& name);

  // Merged copy of every thread's events (ordered per thread; safe while
  // other threads keep recording).
  [[nodiscard]] std::vector<SpanEvent> snapshot() const;

  // Number of recorded events named `name` (test convenience).
  [[nodiscard]] long count(const char* name) const;

  // Chrome trace-event JSON document / file.
  [[nodiscard]] Json chrome_trace() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadBuffer;

  TraceSession();
  ThreadBuffer& buffer();  // this thread's buffer, created on first use

  std::atomic<bool> enabled_{false};
  // Session epoch: written once in the constructor, read concurrently by
  // every span — const so no lock discipline can ever apply to it.
  const std::int64_t t0_ns_;

  struct Impl;
  Impl* impl_;  // leaked singleton internals (threads may outlive exit order)
};

class ScopedSpan {
 public:
  // `seconds`, when set, has the scope's duration added on exit.
  explicit ScopedSpan(const char* name, const char* cat = "other",
                      double* seconds = nullptr);
  ScopedSpan(const char* name, const char* cat, const char* arg_key,
             std::int64_t arg_val, double* seconds = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceSession::ThreadBuffer* buf_ = nullptr;  // null when session disabled
  double* seconds_ = nullptr;
  SpanEvent ev_;
};

// Per-atom kernel-stage timing (SNAP compute_ui/yi/dei) is too hot for
// always-on clock reads next to cheap potentials; it is gated on this
// flag (enabled together with tracing by the interpreter / EMBER_TRACE).
[[nodiscard]] bool kernel_timing_enabled();
void set_kernel_timing(bool on);

}  // namespace ember::obs
