// rpcbench: the HeidiRMI call-path benchmark (stub -> Call ->
// ObjectCommunicator -> skeleton -> implementation and back, Fig 4/5).
//
//   rpcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints one "<metric> <value> <unit>" line per metric, "# " info lines,
// and as its last line one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics of one untraced
// world; --trace 1 interleaves blocks on an untraced and a traced world
// and reports the per-layer metrics. README.md defines every name.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "demo/demo.h"
#include "marshal.h"
#include "orb/orb.h"
#include "spans.h"
#include "stats.h"
#include "support/bytes.h"
#include "syscount.h"
#include "heap_count.h"
#include "workload.h"

namespace rpcbench {
namespace {

using heidi::orb::ObjectRef;
using heidi::orb::Orb;
using heidi::orb::OrbOptions;
using spans::NowNs;

constexpr int kCallTimeoutMs = 5000;
constexpr double kBlockSeconds = 0.5;    // figures are medians over blocks
constexpr double kWarmupSeconds = 0.3;       // --trace 1: per world
constexpr double kBlockWarmupSeconds = 0.1;  // --trace 0: per block's world
// --trace 0 scales its timings towards a host on which the speed probe's
// bare loopback round trip takes this long (see HostRoundTripUs).
constexpr double kReferenceRoundTripUs = 10.0;
constexpr int kProbeRoundTrips = 400;
constexpr double kReplaySeconds = 0.5;   // wire.* replay
constexpr int kOnewayDrainMs = 5000;

// A numeric field of a /proc status file ("Threads:", "VmHWM:"); -1 if
// absent.
long ProcStatus(const std::string& field,
                const std::string& path = "/proc/self/status") {
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::stol(line.substr(field.size()));
  }
  return -1;
}

int ThreadCount() { return static_cast<int>(ProcStatus("Threads:")); }

// The thread count once joined threads have left it: join returns when a
// thread has finished, a moment before the kernel stops counting it, so
// this polls for up to a second. A thread still running stays counted.
int SettledThreadCount(int baseline) {
  int n = ThreadCount();
  for (int i = 0; i < 100 && n > baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = ThreadCount();
  }
  return n;
}

// Pins the process — every thread created from here on inherits it —
// to the last CPU it may run on, and returns that CPU; -1 if it could not.
// Every workload runs on one CPU: with two, fanin_tcp's cross-CPU
// wake-ups varied with the host's load in a way the host probe does not
// see (calls/s 33k-49k run to run where the probe read the same).
int PinToCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(last, &chosen);
  if (last < 0 || sched_setaffinity(0, sizeof chosen, &chosen) != 0) return -1;
  return last;
}

// Reads exactly `n` bytes; false on EOF or error.
bool ReadFull(int fd, char* buf, size_t n) {
  while (n > 0) {
    const ssize_t got = read(fd, buf, n);
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

// The host-speed probe. This VM's vCPUs run 1.5-2x slower for stretches
// of seconds to minutes, depending on the host's other tenants, so ten
// runs of the same code spread 30-40% on every timing. A bare loopback
// TCP round trip of 64 B between two threads, with no orb alive, tracks
// that slow-down: across runs its median time correlated 0.66-0.99 with
// the workloads' call_p50_us. The timings move by less than the probe's
// factor (log-log slopes 0.23-0.87, most near 0.6), so --trace 0
// multiplies times by sqrt(kReferenceRoundTripUs / median probe) and
// divides rates by it. The probe shares no code with the orb,
// so a change to the program moves a scaled figure by the same share as
// the raw one. Both threads run on the pinned CPU. Returns the median
// round trip in us.
double HostRoundTripUs() {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  const int client = socket(AF_INET, SOCK_STREAM, 0);
  int server = -1;
  if (listener >= 0 && client >= 0 &&
      bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      listen(listener, 1) == 0 &&
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    server = accept(listener, nullptr, nullptr);
  }
  const int one = 1;
  bool ok = server >= 0 &&
            setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) == 0 &&
            setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) == 0;
  std::vector<int64_t> trips;
  if (ok) {
    trips.reserve(kProbeRoundTrips);
    std::thread echo([&] {
      char buf[64];
      while (ReadFull(server, buf, sizeof buf) &&
             write(server, buf, sizeof buf) == static_cast<ssize_t>(sizeof buf)) {
      }
    });
    char buf[64] = {};
    for (int i = 0; i < kProbeRoundTrips && ok; ++i) {
      const int64_t start = NowNs();
      ok = write(client, buf, sizeof buf) == static_cast<ssize_t>(sizeof buf) &&
           ReadFull(client, buf, sizeof buf);
      trips.push_back(NowNs() - start);
    }
    shutdown(client, SHUT_WR);  // ends the echo thread
    echo.join();
  }
  for (int fd : {client, server, listener}) {
    if (fd >= 0) close(fd);
  }
  if (!ok) throw std::runtime_error("host speed probe: loopback round trip failed");
  return static_cast<double>(Percentile(std::move(trips), 50)) / 1e3;
}

// Keeps the pinned CPUs from halting. On a virtual machine a halted vCPU
// wakes only when the host gets round to it, which adds a host-dependent
// delay to every wake-up that finds the CPUs idle (a 200 us servant
// sleep under fan-in came back after 1-4 ms on a busy host). One
// SCHED_IDLE spinner per pinned CPU runs only when no benchmark thread
// can, and any waking thread preempts it at once. Their CPU time and
// context switches are subtracted from the process figures.
class IdleSpinners {
 public:
  explicit IdleSpinners(int count) : started_(count) {
    for (int i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        sched_setscheduler(0, SCHED_IDLE, &param);  // this thread only
        {
          std::lock_guard lock(mutex_);
          tids_.push_back(gettid());
        }
        started_.count_down();
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
    started_.wait();
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  double CpuSeconds() {
    double total = 0;
    for (auto& t : threads_) {
      clockid_t clock;
      timespec ts{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return total;
  }
  uint64_t ContextSwitches() {
    std::lock_guard lock(mutex_);
    uint64_t total = 0;
    for (pid_t tid : tids_) {
      const std::string path = "/proc/self/task/" + std::to_string(tid) + "/status";
      total += static_cast<uint64_t>(ProcStatus("voluntary_ctxt_switches:", path) +
                                     ProcStatus("nonvoluntary_ctxt_switches:", path));
    }
    return total;
  }

 private:
  std::atomic<bool> stop_{false};
  std::latch started_;
  std::mutex mutex_;
  std::vector<pid_t> tids_;
  std::vector<std::thread> threads_;
};

// Runs a servant body; in the traced world, files its duration as the
// demo.servant span of the dispatch running on this thread.
template <typename Body>
auto Timed(bool traced, Body&& body) {
  if (!traced) return body();
  int64_t start = NowNs();
  auto result = body();
  spans::AddServantNs(NowNs() - start);
  return result;
}

// The servant: the demo EchoImpl, plus what the benchmark needs around
// it — an optional wait inside norm (the fan-in workload's stand-in for
// a downstream call), oneway posts counted instead of stored, and, in
// the traced world, the servant-body stamps of the demo.servant span.
class BenchEcho : public heidi::demo::EchoImpl {
 public:
  BenchEcho(int norm_wait_us, bool traced)
      : norm_wait_us_(norm_wait_us), traced_(traced) {}

  HdString echo(HdStringView msg) override {
    return Timed(traced_, [&] { return EchoImpl::echo(msg); });
  }
  long add(long a, long b) override {
    return Timed(traced_, [&] { return EchoImpl::add(a, b); });
  }
  double norm(double x, double y) override {
    return Timed(traced_, [&] {
      if (norm_wait_us_ > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(norm_wait_us_));
      }
      return EchoImpl::norm(x, y);
    });
  }
  XBool flip(XBool b) override {
    return Timed(traced_, [&] { return EchoImpl::flip(b); });
  }
  HdString blob(HdBytesView data) override {
    return Timed(traced_, [&] { return EchoImpl::blob(data); });
  }
  void post(HdStringView /*event*/) override {
    delivered_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  const int norm_wait_us_;
  const bool traced_;
  std::atomic<uint64_t> delivered_{0};
};

// One server orb with one Echo servant per client orb (a request's
// target then names its client, which is how the traced run keys
// stamps under fan-in), and the client orbs with their stubs.
// Construction ends with one verified reply on every connection.
class World {
 public:
  World(const Workload& w, spans::Table* table) {
    static std::atomic<int> counter{0};
    const WorkloadSpec& spec = *w.spec;
    OrbOptions server_options;
    server_options.protocol = spec.protocol;
    server_options.call_timeout_ms = kCallTimeoutMs;
    if (!spec.tcp) {
      server_options.inproc_name = "rpcbench-" + std::to_string(getpid()) +
                                   "-" + std::to_string(counter++);
    }
    server_ = std::make_unique<Orb>(server_options);
    if (spec.tcp) server_->ListenTcp();
    std::vector<std::string> targets;
    for (int i = 0; i < spec.client_orbs; ++i) {
      servants_.push_back(
          std::make_unique<BenchEcho>(spec.norm_wait_us, table != nullptr));
      refs_.push_back(
          server_->ExportObject(servants_.back().get(), "IDL:Heidi/Echo:1.0"));
      targets.push_back(refs_.back().ToString());
    }
    if (table != nullptr) {
      server_->AddServerInterceptor(
          std::make_shared<spans::ServerHooks>(*table, std::move(targets)));
    }
    for (int i = 0; i < spec.client_orbs; ++i) {
      OrbOptions client_options;
      client_options.protocol = spec.protocol;
      client_options.call_timeout_ms = kCallTimeoutMs;
      clients_.push_back(std::make_unique<Orb>(client_options));
      if (table != nullptr) {
        clients_.back()->AddClientInterceptor(
            std::make_shared<spans::ClientHooks>(*table, i));
      }
      stubs_.push_back(clients_.back()->ResolveAs<HdEcho>(
          refs_[static_cast<size_t>(i)].ToString()));
    }
    for (auto& stub : stubs_) {
      if (stub->add(20, 22) != 42) {
        throw std::runtime_error("setup call returned a wrong result");
      }
    }
  }
  ~World() { Shutdown(); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  void Shutdown() {
    stubs_.clear();
    for (auto& client : clients_) client->Shutdown();
    if (server_) server_->Shutdown();
  }

  Orb& Client(int i) { return *clients_[static_cast<size_t>(i)]; }
  HdEcho& Stub(int i) { return *stubs_[static_cast<size_t>(i)]; }
  const ObjectRef& Ref(int i) const { return refs_[static_cast<size_t>(i)]; }

  uint64_t Delivered() const {
    uint64_t n = 0;
    for (const auto& servant : servants_) n += servant->Delivered();
    return n;
  }

  // Orb::Stats() counters summed over the world's orbs.
  struct OrbCounts {
    uint64_t mux_wakeups = 0, epoll_wakeups = 0, eventfd_wakeups = 0,
             backpressure_suspends = 0, reconnects = 0;
    uint64_t inflight_highwater = 0, dispatch_queue_highwater = 0;
  };
  OrbCounts Counts() const {
    OrbCounts c;
    for (const Orb* orb : AllOrbs()) {
      heidi::orb::OrbStats s = orb->Stats();
      c.mux_wakeups += s.mux_wakeups;
      c.epoll_wakeups += s.reactor_epoll_wakeups;
      c.eventfd_wakeups += s.reactor_eventfd_wakeups;
      c.backpressure_suspends += s.reactor_backpressure_suspends;
      c.reconnects += s.reconnects;
      c.inflight_highwater = std::max(c.inflight_highwater, s.inflight_highwater);
      c.dispatch_queue_highwater =
          std::max(c.dispatch_queue_highwater, s.dispatch_queue_highwater);
    }
    return c;
  }

 private:
  std::vector<const Orb*> AllOrbs() const {
    std::vector<const Orb*> orbs{server_.get()};
    for (const auto& client : clients_) orbs.push_back(client.get());
    return orbs;
  }

  // Servants outlive the server that dispatches to them.
  std::vector<std::unique_ptr<BenchEcho>> servants_;
  std::unique_ptr<Orb> server_;
  std::vector<std::unique_ptr<Orb>> clients_;
  std::vector<ObjectRef> refs_;
  std::vector<std::shared_ptr<HdEcho>> stubs_;
};

// What one block runs: which world, traced or not, until when.
struct Plan {
  World* world = nullptr;
  spans::Table* table = nullptr;  // non-null: stamp every call
  int64_t deadline_ns = 0;
  bool stop = false;
};

// One caller thread's tallies; the main thread reads and resets them
// between blocks (the block barrier orders the accesses).
struct Caller {
  int client = 0;
  size_t next = 0;  // position in the op cycle
  std::vector<int64_t> latencies;
  spans::Recorder spans;
  uint64_t twoways = 0, oneways_sent = 0, failed = 0, wrong = 0, payload = 0;
  uint64_t bad_spans = 0;  // traced calls whose stamps failed Consume
};

class CallerLoop {
 public:
  CallerLoop(const Workload& w, const Plan& plan, Caller& c)
      : w_(w), plan_(plan), c_(c) {}

  void RunBlock() {
    if (w_.spec->window == 1) {
      while (NowNs() < plan_.deadline_ns) CallSync(NextOp());
    } else {
      RunWindowed();
    }
  }

 private:
  const Op& NextOp() { return w_.ops[c_.next++ % w_.ops.size()]; }

  // Through the demo stub: the synchronous path a HeidiRMI caller uses.
  void CallSync(const Op& op) {
    HdEcho& stub = plan_.world->Stub(c_.client);
    const int64_t start = NowNs();
    if (plan_.table != nullptr) spans::MarkEntry(start);
    bool ok = false;
    try {
      switch (op.kind) {
        case OpKind::kAdd: ok = stub.add(op.a, op.b) == op.a + op.b; break;
        case OpKind::kFlip:
          ok = static_cast<bool>(stub.flip(op.flag)) == !op.flag;
          break;
        case OpKind::kNorm:
          ok = stub.norm(op.x, op.y) == NormOf(op);
          break;
        case OpKind::kEcho: ok = stub.echo(PayloadOf(w_, op)) == PayloadOf(w_, op); break;
        case OpKind::kBlob:
          ok = stub.blob(PayloadOf(w_, op)) == ReversedPayloadOf(w_, op);
          break;
        case OpKind::kPost:
          stub.post(PayloadOf(w_, op));
          Sent(op);
          return;
      }
    } catch (const std::exception&) {
      ++c_.failed;
      return;
    }
    Finished(op, ok, start, spans::LastCallId());
  }

  struct Pending {
    const Op* op;
    int64_t start;
    std::unique_ptr<heidi::wire::Call> request;
    std::optional<heidi::orb::ReplyHandle> reply;
  };

  // Through Orb::InvokeAsync, window calls in flight, completed in
  // issue order.
  void RunWindowed() {
    Orb& orb = plan_.world->Client(c_.client);
    const ObjectRef& ref = plan_.world->Ref(c_.client);
    const size_t window = static_cast<size_t>(w_.spec->window);
    std::deque<Pending> pending;
    for (;;) {
      while (pending.size() < window && NowNs() < plan_.deadline_ns) {
        const Op& op = NextOp();
        const bool oneway = op.kind == OpKind::kPost;
        const int64_t start = NowNs();
        if (plan_.table != nullptr) spans::MarkEntry(start);
        try {
          auto request = orb.NewRequest(ref, OpName(op.kind), oneway);
          PutArgs(*request, w_, op);
          if (oneway) {
            orb.InvokeOneway(ref, *request);
            Sent(op);
            continue;
          }
          auto reply = orb.InvokeAsync(ref, *request);
          pending.push_back(Pending{&op, start, std::move(request),
                                    std::move(reply)});
        } catch (const std::exception&) {
          ++c_.failed;
        }
      }
      if (pending.empty()) return;
      Pending& p = pending.front();
      try {
        auto reply = p.reply->Get();
        Finished(*p.op, ResultMatches(*reply, w_, *p.op), p.start,
                 p.reply->CallId());
      } catch (const std::exception&) {
        ++c_.failed;
      }
      pending.pop_front();
    }
  }

  void Sent(const Op& op) {
    ++c_.oneways_sent;
    c_.payload += PayloadBytes(op);
  }

  void Finished(const Op& op, bool ok, int64_t start, uint64_t call_id) {
    const int64_t end = NowNs();
    if (!ok) {
      ++c_.wrong;
      ++c_.failed;
      return;
    }
    ++c_.twoways;
    c_.payload += PayloadBytes(op);
    c_.latencies.push_back(end - start);
    if (plan_.table != nullptr) {
      auto split = spans::Consume(plan_.table->Slot(c_.client, call_id), call_id, end);
      if (split) {
        c_.spans.Add(*split);
      } else {
        ++c_.bad_spans;
      }
    }
  }

  const Workload& w_;
  const Plan& plan_;
  Caller& c_;
};

// Process-wide counters, read between blocks.
struct Snapshot {
  int64_t t_ns = 0;
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
  syscount::Counts sys;
  uint64_t heap = 0;
  heidi::bytes::IoBufPool::Stats pool;
  World::OrbCounts orb;
  uint64_t delivered = 0;
};

// CPU time and context switches exclude the idle spinners'.
Snapshot Take(const World& world, IdleSpinners& spinners, bool heap_first) {
  Snapshot s;
  if (heap_first) s.heap = heidi::bench::HeapAllocCount();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6 -
            spinners.CpuSeconds();
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw) -
                   spinners.ContextSwitches();
  s.sys = syscount::Read();
  s.pool = heidi::bytes::IoBufPool::Global().GetStats();
  s.orb = world.Counts();
  s.delivered = world.Delivered();
  if (!heap_first) s.heap = heidi::bench::HeapAllocCount();
  s.t_ns = NowNs();
  return s;
}

struct BlockFigures {
  double p50_ns = 0, p99_ns = 0, calls_per_s = 0, payload_per_s = 0,
         cpu_per_call_s = 0;
  size_t samples = 0;
};

// Per-layer count sums over the untraced blocks of a --trace 1 run.
struct LayerSums {
  uint64_t calls = 0, ctx_switches = 0, send = 0, recv = 0, poll = 0,
           bytes_sent = 0, heap = 0, pool_hits = 0, pool_misses = 0,
           mux_wakeups = 0, epoll_wakeups = 0, eventfd_wakeups = 0;
  void Add(const Snapshot& a, const Snapshot& b, uint64_t block_calls) {
    calls += block_calls;
    ctx_switches += b.ctx_switches - a.ctx_switches;
    send += b.sys.send - a.sys.send;
    recv += b.sys.recv - a.sys.recv;
    poll += b.sys.poll - a.sys.poll;
    bytes_sent += b.sys.bytes_sent - a.sys.bytes_sent;
    heap += b.heap - a.heap;
    pool_hits += b.pool.hits - a.pool.hits;
    pool_misses += b.pool.misses - a.pool.misses;
    mux_wakeups += b.orb.mux_wakeups - a.orb.mux_wakeups;
    epoll_wakeups += b.orb.epoll_wakeups - a.orb.epoll_wakeups;
    eventfd_wakeups += b.orb.eventfd_wakeups - a.orb.eventfd_wakeups;
  }
  double PerCall(uint64_t n) const {
    return calls == 0 ? 0 : static_cast<double>(n) / static_cast<double>(calls);
  }
};

// Runs caller threads through a sequence of blocks; the main thread
// plans each block, snapshots around it and collects the callers'
// tallies while they wait at the barrier.
class BlockRunner {
 public:
  BlockRunner(const Workload& w, IdleSpinners& spinners)
      : w_(w), spinners_(spinners), callers_(static_cast<size_t>(w.spec->callers)),
        sync_(w.spec->callers + 1) {
    const WorkloadSpec& spec = *w.spec;
    for (int i = 0; i < spec.callers; ++i) {
      Caller& c = callers_[static_cast<size_t>(i)];
      c.client = i * spec.client_orbs / spec.callers;
      c.next = static_cast<size_t>(i) * w.ops.size() / static_cast<size_t>(spec.callers);
      c.latencies.reserve(1 << 16);
      threads_.emplace_back([this, &c] {
        CallerLoop loop(w_, plan_, c);
        for (;;) {
          sync_.arrive_and_wait();
          if (plan_.stop) return;
          loop.RunBlock();
          sync_.arrive_and_wait();
        }
      });
    }
  }
  ~BlockRunner() {
    plan_.stop = true;
    sync_.arrive_and_wait();
    for (auto& t : threads_) t.join();
  }
  BlockRunner(const BlockRunner&) = delete;
  BlockRunner& operator=(const BlockRunner&) = delete;

  // Runs one block; returns its figures and leaves the before/after
  // snapshots in `before`/`after`.
  BlockFigures Run(World& world, spans::Table* table, double seconds,
                   Snapshot& before, Snapshot& after) {
    plan_.world = &world;
    plan_.table = table;
    before = Take(world, spinners_, /*heap_first=*/false);
    plan_.deadline_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
    sync_.arrive_and_wait();  // callers run the block
    sync_.arrive_and_wait();  // callers drained their calls
    after = Take(world, spinners_, /*heap_first=*/true);

    std::vector<int64_t> latencies;
    uint64_t twoways = 0, payload = 0;
    for (Caller& c : callers_) {
      latencies.insert(latencies.end(), c.latencies.begin(), c.latencies.end());
      c.latencies.clear();
      twoways += c.twoways;
      payload += c.payload;
      totals_.twoways += c.twoways;
      totals_.oneways_sent += c.oneways_sent;
      sent_to_[&world] += c.oneways_sent;
      totals_.failed += c.failed;
      totals_.wrong += c.wrong;
      totals_.bad_spans += c.bad_spans;
      c.twoways = c.oneways_sent = c.failed = c.wrong = c.payload = c.bad_spans = 0;
      if (table != nullptr) {
        spans_.Merge(c.spans);
        c.spans = spans::Recorder();
      }
    }
    const double wall_s = static_cast<double>(after.t_ns - before.t_ns) * 1e-9;
    last_calls_ = twoways + (after.delivered - before.delivered);
    BlockFigures f;
    f.samples = latencies.size();
    f.p50_ns = static_cast<double>(Percentile(latencies, 50));
    f.p99_ns = static_cast<double>(Percentile(std::move(latencies), 99));
    f.calls_per_s = static_cast<double>(last_calls_) / wall_s;
    f.payload_per_s = static_cast<double>(payload) / wall_s;
    f.cpu_per_call_s = last_calls_ == 0 ? 0 : (after.cpu_s - before.cpu_s) /
                                                  static_cast<double>(last_calls_);
    return f;
  }

  // Calls completed in the last block (twoways plus oneways delivered).
  uint64_t LastCalls() const { return last_calls_; }

  struct Totals {
    uint64_t twoways = 0, oneways_sent = 0, failed = 0, wrong = 0, bad_spans = 0;
  };
  // Tallies of every block run so far (warm-up blocks included).
  const Totals& Sum() const { return totals_; }
  // Oneways sent to `world` so far; forgets the world, whose address a
  // later world may reuse.
  uint64_t TakeSentTo(const World& world) {
    auto it = sent_to_.find(&world);
    if (it == sent_to_.end()) return 0;
    const uint64_t sent = it->second;
    sent_to_.erase(it);
    return sent;
  }
  // Hands over the span splits of the traced blocks run since the last
  // call.
  spans::Recorder TakeSpans() { return std::exchange(spans_, spans::Recorder()); }

 private:
  const Workload& w_;
  IdleSpinners& spinners_;
  Plan plan_;
  std::vector<Caller> callers_;
  std::barrier<> sync_;
  std::vector<std::thread> threads_;
  Totals totals_;
  std::map<const World*, uint64_t> sent_to_;
  spans::Recorder spans_;
  uint64_t last_calls_ = 0;
};

// Waits until every oneway sent has been delivered (or the drain
// deadline passes); returns how many never arrived.
uint64_t DrainOneways(const World& world, uint64_t sent) {
  const int64_t deadline = NowNs() + int64_t{kOnewayDrainMs} * 1000000;
  while (world.Delivered() < sent && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  uint64_t delivered = world.Delivered();
  return delivered >= sent ? 0 : sent - delivered;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void Print(const std::vector<Metric>& metrics, bool correct, uint64_t attempted,
           uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %14s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Info(const std::string& line) { std::printf("# %s\n", line.c_str()); }

// ---------------------------------------------------------------------------
// The two modes

struct RunResult {
  std::vector<Metric> metrics;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
};

// attempted/failed cover every call a caller made, warm-up included; a
// failure is an exception, a timeout, a wrong result or a oneway never
// delivered, and any failure makes the run incorrect.
void Tally(RunResult& r, const BlockRunner::Totals& totals, uint64_t undelivered) {
  r.attempted = totals.twoways + totals.oneways_sent + totals.failed;
  r.failed = totals.failed + undelivered;
  r.correct = r.failed == 0;
  Info("oneways sent " + std::to_string(totals.oneways_sent) + ", undelivered " +
       std::to_string(undelivered) + ", wrong results " +
       std::to_string(totals.wrong));
  Info("fail_ratio " + Number(static_cast<double>(r.failed) /
                              static_cast<double>(std::max<uint64_t>(1, r.attempted))));
}

int BlockCount(double seconds) {
  return std::max(2, static_cast<int>(std::lround(seconds / kBlockSeconds)));
}

// --trace 0: the end-to-end metrics. Every block gets a world of its own:
// probe the host with no world alive, build the world (one setup_s
// sample), warm it up, measure, drain its oneways and tear it down; a
// last probe closes the run. Every figure is the median over the blocks,
// scaled to the reference host (HostRoundTripUs).
RunResult RunPlain(const Workload& w, double seconds, IdleSpinners& spinners) {
  std::vector<double> p50, p99, rate, payload, cpu, setup_s, round_trip_us;
  size_t samples = 0, min_block_samples = SIZE_MAX;
  BlockRunner::Totals totals;
  uint64_t undelivered = 0;
  {
    BlockRunner runner(w, spinners);
    Snapshot before, after;
    const int blocks = BlockCount(seconds);
    for (int b = 0; b < blocks; ++b) {
      round_trip_us.push_back(HostRoundTripUs());
      const int64_t start = NowNs();
      auto world = std::make_unique<World>(w, nullptr);
      setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      runner.Run(*world, nullptr, kBlockWarmupSeconds, before, after);
      BlockFigures f = runner.Run(*world, nullptr, seconds / blocks, before, after);
      p50.push_back(f.p50_ns / 1e3);
      p99.push_back(f.p99_ns / 1e3);
      rate.push_back(f.calls_per_s);
      payload.push_back(f.payload_per_s / 1e6);
      cpu.push_back(f.cpu_per_call_s * 1e6);
      samples += f.samples;
      min_block_samples = std::min(min_block_samples, f.samples);
      undelivered += DrainOneways(*world, runner.TakeSentTo(*world));
    }
    round_trip_us.push_back(HostRoundTripUs());
    totals = runner.Sum();
  }

  // Below 1 on a host slower than the reference: times shrink and rates
  // grow by it.
  const double scale = std::sqrt(kReferenceRoundTripUs / Median(round_trip_us));
  // Peak RSS of this process image: VmHWM, not ru_maxrss, which Linux
  // carries over exec from the parent (run.py's Python interpreter).
  const double peak_rss_mb = static_cast<double>(ProcStatus("VmHWM:")) / 1024.0;
  RunResult r;
  r.metrics = {
      {"call_p50_us", Median(p50) * scale, "us"},
      {"call_p99_us", Median(p99) * scale, "us"},
      {"calls_per_s", Median(rate) / scale, "1/s"},
      {"payload_mb_per_s", Median(payload) / scale, "MB/s"},
      {"cpu_us_per_call", Median(cpu) * scale, "us"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setup_s) * scale, "s"},
  };
  Tally(r, totals, undelivered);
  Info("host probe: median round trip " + Number(Median(round_trip_us)) +
       " us over " + std::to_string(round_trip_us.size()) + " probes, scale " +
       Number(scale));
  Info("unscaled: call_p50_us " + Number(Median(p50)) + ", call_p99_us " +
       Number(Median(p99)) + ", calls_per_s " + Number(Median(rate)) +
       ", payload_mb_per_s " + Number(Median(payload)) + ", cpu_us_per_call " +
       Number(Median(cpu)) + ", setup_s " + Number(Median(setup_s)));
  Info("twoway samples " + std::to_string(samples) + " in " +
       std::to_string(p50.size()) + " blocks, fewest in a block " +
       std::to_string(min_block_samples));
  return r;
}

// --trace 1: untraced and traced blocks alternate on two worlds; the
// untraced ones give the counts, the traced ones the span split, and the
// difference of their p50s the tracing overhead.
RunResult RunTraced(const Workload& w, double seconds, IdleSpinners& spinners) {
  spans::Table table(w.spec->client_orbs);
  const int threads_before = ThreadCount();
  auto plain = std::make_unique<World>(w, nullptr);
  const int world_threads = ThreadCount() - threads_before;
  auto traced = std::make_unique<World>(w, &table);

  LayerSums sums;
  std::vector<double> plain_p50, traced_p50;
  BlockRunner::Totals totals;
  uint64_t undelivered = 0;
  spans::Recorder rec;
  World::OrbCounts counts;
  {
    BlockRunner runner(w, spinners);
    Snapshot before, after;
    runner.Run(*plain, nullptr, kWarmupSeconds, before, after);
    runner.Run(*traced, &table, kWarmupSeconds, before, after);
    runner.TakeSpans();  // drop the warm-up calls
    const int blocks = BlockCount(seconds);
    for (int b = 0; b < blocks; ++b) {
      const bool is_traced = b % 2 == 1;
      BlockFigures f = runner.Run(is_traced ? *traced : *plain,
                                  is_traced ? &table : nullptr,
                                  seconds / blocks, before, after);
      (is_traced ? traced_p50 : plain_p50).push_back(f.p50_ns);
      if (!is_traced) sums.Add(before, after, runner.LastCalls());
    }
    counts = plain->Counts();
    totals = runner.Sum();
    rec = runner.TakeSpans();
    undelivered = DrainOneways(*plain, runner.TakeSentTo(*plain)) +
                  DrainOneways(*traced, runner.TakeSentTo(*traced));
  }
  plain.reset();
  traced.reset();
  const WireCost wire = ReplayWire(
      *heidi::wire::FindProtocol(w.spec->protocol), w, kReplaySeconds);

  RunResult r;
  for (int i = 0; i < spans::kSpans; ++i) {
    const std::string name = spans::kSpanNames[static_cast<size_t>(i)];
    r.metrics.push_back({name + "_ns", rec.MeanNs(i), "ns"});
    r.metrics.push_back({name + "_p50_ns", rec.P50Ns(i), "ns"});
  }
  r.metrics.insert(r.metrics.end(), {
      {"trace.call_mean_ns", rec.TotalMeanNs(), "ns"},
      {"trace.overhead_p50_us", (Median(traced_p50) - Median(plain_p50)) / 1e3, "us"},
      {"orb.ctx_switches_per_call", sums.PerCall(sums.ctx_switches), "1/call"},
      {"orb.mux_wakeups_per_call", sums.PerCall(sums.mux_wakeups), "1/call"},
      {"orb.inflight_highwater", static_cast<double>(counts.inflight_highwater), "count"},
      {"orb.dispatch_queue_highwater",
       static_cast<double>(counts.dispatch_queue_highwater), "count"},
      {"orb.threads", static_cast<double>(world_threads), "count"},
      {"net.send_syscalls_per_call", sums.PerCall(sums.send), "1/call"},
      {"net.recv_syscalls_per_call", sums.PerCall(sums.recv), "1/call"},
      {"net.poll_syscalls_per_call", sums.PerCall(sums.poll), "1/call"},
      {"net.bytes_sent_per_call", sums.PerCall(sums.bytes_sent), "B/call"},
      {"net.epoll_wakeups_per_call", sums.PerCall(sums.epoll_wakeups), "1/call"},
      {"wire.encode_ns_per_call", wire.encode_ns_per_call, "ns"},
      {"wire.decode_ns_per_call", wire.decode_ns_per_call, "ns"},
      {"support.pool_hits_per_call", sums.PerCall(sums.pool_hits), "1/call"},
      {"support.pool_misses_per_call", sums.PerCall(sums.pool_misses), "1/call"},
      {"support.heap_allocs_per_call", sums.PerCall(sums.heap), "1/call"},
  });
  Tally(r, totals, undelivered);
  // Every traced twoway must have left a full, ordered set of its own
  // stamps (spans::Consume); then the six span means add up to the mean
  // call latency.
  const bool spans_ok = rec.Count() > 0 && totals.bad_spans == 0;
  r.correct = r.correct && spans_ok && wire.ok;
  Info("traced calls " + std::to_string(rec.Count()) + ", rejected stamp sets " +
       std::to_string(totals.bad_spans) + ", span sum - mean latency " +
       Number(rec.GapNs()) + " ns" + (spans_ok ? "" : " (STAMPS MISSING, STALE OR OUT OF ORDER)"));
  // Always 0 on these closed-loop workloads, so info lines, not metrics.
  Info("orb.reconnects " + std::to_string(counts.reconnects) +
       ", net.backpressure_suspends " + std::to_string(counts.backpressure_suspends) +
       ", net.eventfd_wakeups " + std::to_string(sums.eventfd_wakeups));
  Info("wire replay " + std::to_string(wire.calls) + " calls" +
       (wire.ok ? "" : " (DECODED VALUES WRONG)"));
  return r;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.traced = value == "1";
        if (value != "0" && value != "1") return false;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return FindWorkload(args.workload) != nullptr && args.seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: rpcbench --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  // Before any thread exists, so every thread inherits the pinning.
  const int cpu = PinToCpu();
  const int threads_baseline = ThreadCount();
  const bool shim_ok = syscount::CountsExactly(64);
  heidi::demo::ForceDemoRegistration();
  const Workload w = MakeWorkload(spec, args.seed);

  Info("workload " + args.workload + " seed " + std::to_string(args.seed) +
       " protocol " + spec.protocol + (spec.tcp ? "/tcp" : "/inproc") +
       " callers " + std::to_string(spec.callers) + " window " +
       std::to_string(spec.window) + " cpu " +
       (cpu < 0 ? "unpinned" : std::to_string(cpu)) + " mode " +
       (args.traced ? "traced" : "plain"));
  RunResult r;
  try {
    IdleSpinners spinners(1);
    r = args.traced ? RunTraced(w, args.seconds, spinners)
                    : RunPlain(w, args.seconds, spinners);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpcbench: %s\n", e.what());
    return 1;
  }
  // Lifecycle invariants: every pooled byte back and every orb thread
  // gone once the worlds are shut down.
  const uint64_t outstanding =
      heidi::bytes::IoBufPool::Global().GetStats().outstanding_bytes;
  const int threads_after = SettledThreadCount(threads_baseline);
  Info("after shutdown: pool outstanding " + std::to_string(outstanding) +
       " B, threads " + std::to_string(threads_after) + " (baseline " +
       std::to_string(threads_baseline) + ")" +
       (shim_ok ? "" : ", syscall shim miscounted"));
  r.correct = r.correct && shim_ok && outstanding == 0 &&
              threads_after == threads_baseline;
  Print(r.metrics, r.correct, r.attempted, r.failed);
  return 0;
}

}  // namespace
}  // namespace rpcbench

int main(int argc, char** argv) { return rpcbench::Main(argc, argv); }
