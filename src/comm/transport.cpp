#include "transport.hpp"

#include <algorithm>
#include <cstdlib>

#include "comm/communicator.hpp"
#include "comm/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ember::comm {

namespace {
// Internal tags for the collectives (user code uses non-negative tags).
constexpr int kTagReduce = -101;
constexpr int kTagReduceResult = -102;

// Process-global traffic counters. Registered once; per-call cost is one
// sharded relaxed fetch_add each. Both backends feed the same names, so
// thread and socket runs of the same program report identical traffic.
struct CommMetrics {
  obs::Counter& messages;
  obs::Counter& bytes;
  static CommMetrics& get() {
    static CommMetrics m{obs::Registry::global().counter("comm.messages"),
                         obs::Registry::global().counter("comm.bytes")};
    return m;
  }
};

// Set-before-run contract, so no lock: the harness installs the probe
// once on the main thread before any Context::run spawns rank threads or
// forks rank processes, and nothing mutates it while ranks are live.
std::function<bool()>& probe_slot() {
  static std::function<bool()> probe;
  return probe;
}
}  // namespace

const char* to_string(TransportKind kind) {
  return kind == TransportKind::Thread ? "thread" : "socket";
}

TransportKind transport_kind_from_string(const std::string& s) {
  if (s == "thread") return TransportKind::Thread;
  if (s == "socket") return TransportKind::Socket;
  EMBER_REQUIRE(false, "unknown transport '" + s + "' (thread|socket)");
}

TransportKind default_transport_kind() {
  const char* env = std::getenv("EMBER_TRANSPORT");
  if (env == nullptr || env[0] == '\0') return TransportKind::Thread;
  return transport_kind_from_string(env);
}

void set_rank_failure_probe(std::function<bool()> probe) {
  probe_slot() = std::move(probe);
}

const std::function<bool()>& rank_failure_probe() { return probe_slot(); }

// ---- Transport base shells ------------------------------------------------

void Transport::send_bytes(int dest, int tag, const void* data,
                           std::size_t bytes) {
  CommMetrics& m = CommMetrics::get();
  m.messages.inc();
  m.bytes.add(static_cast<double>(bytes));
  ++traffic_.messages;
  traffic_.bytes += static_cast<double>(bytes);
  do_send_bytes(dest, tag, data, bytes);
}

std::vector<std::byte> Transport::recv_bytes(int source, int tag) {
  const obs::ScopedSpan span("comm.wait", "comm", &comm_seconds_);
  return do_recv_bytes(source, tag);
}

std::pair<int, std::vector<std::byte>> Transport::recv_bytes_any(int tag) {
  const obs::ScopedSpan span("comm.wait", "comm", &comm_seconds_);
  return do_recv_bytes_any(tag);
}

// The one collective: every rank ships its value to rank 0 over the raw
// (uncounted) primitives, rank 0 folds them in rank order and ships the
// result back. The fixed fold order makes a floating-point reduction
// bitwise identical on every backend, whatever order the ranks arrive in.
template <typename T, typename Op>
T Transport::reduce_all(T value, Op op) {
  if (size() == 1) return value;
  const obs::ScopedSpan span("comm.wait", "comm", &comm_seconds_);
  if (rank() != 0) {
    do_send_bytes(0, kTagReduce, &value, sizeof(T));
    return from_bytes<T>(do_recv_bytes(0, kTagReduceResult));
  }
  for (int r = 1; r < size(); ++r) {
    value = op(value, from_bytes<T>(do_recv_bytes(r, kTagReduce)));
  }
  for (int r = 1; r < size(); ++r) {
    do_send_bytes(r, kTagReduceResult, &value, sizeof(T));
  }
  return value;
}

void Transport::barrier() { (void)allreduce_or(false); }

double Transport::allreduce_sum(double value) {
  return reduce_all(value, [](double a, double b) { return a + b; });
}

long Transport::allreduce_sum(long value) {
  return reduce_all(value, [](long a, long b) { return a + b; });
}

double Transport::allreduce_max(double value) {
  return reduce_all(value, [](double a, double b) { return std::max(a, b); });
}

bool Transport::allreduce_or(bool value) {
  return reduce_all(value, [](bool a, bool b) { return a || b; });
}

// ---- Context --------------------------------------------------------------

void Context::run(const std::function<void(Transport&)>& fn) {
  (void)run_gather([&fn](Transport& t) {
    fn(t);
    return std::vector<std::byte>{};
  });
}

std::unique_ptr<Context> make_context(const TransportSpec& spec) {
  EMBER_REQUIRE(spec.ranks >= 1, "transport context needs >= 1 rank");
  // 0 = thread, 1 = socket: lets a metrics dump attribute a run to its
  // backend (the launching process owns the registry either way).
  obs::Registry::global()
      .gauge("comm.transport")
      .set(spec.kind == TransportKind::Thread ? 0.0 : 1.0);
  obs::Registry::global().gauge("comm.ranks").set(spec.ranks);
  if (spec.kind == TransportKind::Socket) {
    return std::make_unique<SocketContext>(spec.ranks);
  }
  return std::make_unique<ThreadContext>(spec.ranks);
}

}  // namespace ember::comm
