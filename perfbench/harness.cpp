#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "rt/kernels.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace trace = mxn::trace;

double Samples::pct(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(q * static_cast<double>(s.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return s[std::min(i, s.size() - 1)];
}

Snapshot Snapshot::take() {
  Snapshot s;
  s.counters = trace::counters();
  for (const auto& [name, count] : trace::histogram_counts())
    s.hists[name] = {count, trace::histogram(name).sum()};
  return s;
}

std::uint64_t Snapshot::c(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t Snapshot::hcount(const std::string& name) const {
  auto it = hists.find(name);
  return it == hists.end() ? 0 : it->second.first;
}

std::uint64_t Snapshot::hsum(const std::string& name) const {
  auto it = hists.find(name);
  return it == hists.end() ? 0 : it->second.second;
}

Snapshot Snapshot::minus(const Snapshot& earlier) const {
  Snapshot d;
  for (const auto& [name, v] : counters) d.counters[name] = v - earlier.c(name);
  for (const auto& [name, cs] : hists)
    d.hists[name] = {cs.first - earlier.hcount(name),
                     cs.second - earlier.hsum(name)};
  return d;
}

bool StopClock::keep_going(rt::Communicator& comm, long done, int root) {
  int go = 0;
  if (comm.rank() == root)
    go = opts_.ops > 0 ? (done < opts_.ops ? 1 : 0)
                       : (now_s() - t0_ < opts_.seconds ? 1 : 0);
  return comm.bcast_value(go, root) != 0;
}

namespace {

void put_str(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  out += '"';
}

void put_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

void put_map(std::string& out, const char* key,
             const std::map<std::string, double>& m) {
  put_str(out, key);
  out += ":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    put_str(out, k);
    out += ':';
    put_num(out, v);
  }
  out += '}';
}

std::atomic<std::size_t> g_max_ring{0};

}  // namespace

std::string Result::to_json() const {
  std::string out = "{";
  put_map(out, "e2e", e2e);
  out += ',';
  put_map(out, "layers", layers);
  out += ',';
  put_map(out, "exact", exact);
  out += ",\"env\":{";
  bool first = true;
  for (const auto& [k, v] : env) {
    if (!first) out += ',';
    first = false;
    put_str(out, k);
    out += ':';
    put_str(out, v);
  }
  out += "},\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i) out += ',';
    put_str(out, errors[i]);
  }
  out += "],\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) +
         ",\"ops\":" + std::to_string(ops) +
         ",\"spawn_ops\":" + std::to_string(spawn_ops) +
         ",\"spawn_msgs\":" + std::to_string(spawn_msgs) +
         ",\"spawn_bytes\":" + std::to_string(spawn_bytes) +
         ",\"timing_rank\":" + std::to_string(timing_rank) +
         ",\"max_ring_events\":" + std::to_string(max_ring_events()) +
         ",\"ring_capacity\":" + std::to_string(trace::kRingCapacity) + "}";
  return out;
}

void Result::set_spawn_totals(const Snapshot& before, const Snapshot& after,
                              long ops_in_spawn) {
  spawn_ops = ops_in_spawn;
  spawn_msgs = after.c("rt.messages") - before.c("rt.messages");
  spawn_bytes = after.c("rt.bytes") - before.c("rt.bytes");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string l3_size() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s) return s;
  const long b = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return b > 0 ? std::to_string(b / 1024) + "K" : "unknown";
}

}  // namespace

void record_env(const Options& o, Result& r) {
  r.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.env["isa"] = mxn::rt::kernels::isa_name(mxn::rt::kernels::active_isa());
  r.env["build_type"] = PERFBENCH_BUILD_TYPE;
  r.env["compiler"] = std::string("g++ ") + __VERSION__;
  r.env["l3"] = l3_size();
  r.env["seed"] = std::to_string(o.seed);
  r.env["mode"] = o.traced ? "traced" : "untraced";
}

void start_timed_phase(const Options& o) {
  if (o.traced) trace::set_enabled(true);
  if (trace::enabled() != o.traced)
    throw std::runtime_error(
        o.traced ? "traced run without event recording"
                 : "event recording is on in an untraced run (tracing is "
                   "sticky once rt::spawn enables it)");
}

RingGuard::RingGuard(int rank) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(rank) % n, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

RingGuard::~RingGuard() {
  const std::size_t n = trace::this_thread_events().size();
  std::size_t prev = g_max_ring.load();
  while (prev < n && !g_max_ring.compare_exchange_weak(prev, n)) {
  }
}

std::size_t max_ring_events() { return g_max_ring.load(); }

void add_counter_layers(const Snapshot& setup, const Snapshot& run, double ops,
                        double payload_bytes, Result& r) {
  auto& L = r.layers;
  L["rt.recv_wait_us_per_op"] = ratio(run.hsum("rt.recv_wait_ns") / 1e3, ops);
  L["rt.copied_per_payload_byte"] =
      ratio(run.c("rt.bytes_copied"), payload_bytes);
  L["rt.pool_hit_ratio"] =
      ratio(run.c("rt.pool.hit"), run.c("rt.pool.hit") + run.c("rt.pool.miss"));
  const double simd = run.c("sched.kernel.simd_bytes");
  const double kbytes =
      simd + run.c("sched.kernel.memcpy_bytes") + run.c("sched.kernel.scalar_bytes");
  L["rt.kernel_simd_frac"] = ratio(simd, kbytes);
  L["rt.kernel_bytes_per_op"] = ratio(kbytes, ops);
  L["rt.lane_contention_per_op"] = ratio(run.c("rt.mailbox.lane_contention"), ops);
  L["rt.fault_drops_per_op"] = ratio(run.c("fault.dropped"), ops);
  L["rt.fault_dups_per_op"] = ratio(run.c("fault.duplicated"), ops);

  const double fp_hits =
      setup.c("sched.footprint.hits") + run.c("sched.footprint.hits");
  const double fp_miss =
      setup.c("sched.footprint.misses") + run.c("sched.footprint.misses");
  L["linear.footprint_hit_ratio"] = ratio(fp_hits, fp_hits + fp_miss);
  L["sched.build_us"] =
      ratio((setup.hsum("sched.build_ns") + run.hsum("sched.build_ns")) / 1e3,
            setup.hcount("sched.build_ns") + run.hcount("sched.build_ns"));
  L["sched.align_fallbacks"] = run.c("sched.align.fallback");

  L["core.retries_per_op"] = ratio(run.c("mxn.retries"), ops);
  L["core.transfer_failures"] = run.c("mxn.transfer_failures");

  L["prmi.invoke_us"] =
      ratio(run.hsum("prmi.invoke_ns") / 1e3, run.hcount("prmi.invoke_ns"));
  L["prmi.calls_per_batch"] =
      ratio(run.c("prmi.batched_calls"), run.c("prmi.batches"));
  L["prmi.retries"] = run.c("prmi.retries");
  L["prmi.dup_requests"] = run.c("prmi.dup_requests");
  L["prmi.stale_replies"] = run.c("prmi.stale_replies");
  L["redundancy.retries"] = run.c("redundancy.retries");
}

void require_no_faults(const Snapshot& run, Result& r) {
  for (const char* c : {"fault.dropped", "fault.duplicated", "fault.reordered",
                        "fault.delayed", "fault.killed"})
    if (run.c(c) != 0) r.fail(std::string("lossless workload saw ") + c);
}

}  // namespace perfbench
