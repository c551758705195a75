// bulk_stream: one persistent, eager, handshake connection moving a large
// 2-D double field from 2 source ranks (row blocks) to 2 destination ranks
// (block-cyclic columns with a small block). Every message carries
// thousands of strided runs, so pack, inject and the copy kernels do nearly
// all the work while mailbox, schedule build, PRMI and fabric do almost none.
// Each rank's slice (1 MiB) stays within the per-core L2: with slices several
// times the L2 the working set of one step (source, destination and payload
// buffers) takes a large share of the L3 the host shares with other tenants,
// and step times moved by up to 1.8x between runs.

#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "core/mxn_component.hpp"
#include "harness.hpp"
#include "rt/runtime.hpp"
#include "sched/schedule.hpp"

namespace perfbench {

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace sched = mxn::sched;
using dad::AxisDist;
using dad::Point;

namespace {

constexpr int kSrc = 2;
constexpr int kDst = 2;
constexpr dad::Index kN = 512;      // field is kN x kN doubles
constexpr dad::Index kColBlock = 8;  // destination column block
constexpr int kWarm = 10;            // untimed steps before the timed loop
constexpr int kBlock = 8;            // steps between stop-clock decisions
constexpr int kReplayReps = 15;      // dad extract/inject replays

struct Field {
  double a = 1, b = 1, c = 0;
  [[nodiscard]] double at(const Point& p) const {
    return a * static_cast<double>(p[0]) + b * static_cast<double>(p[1]) + c;
  }
};

double stamp(long step) { return -1.0 - static_cast<double>(step); }

struct Arrays {
  dad::DescriptorPtr sd, dd;
  std::vector<std::unique_ptr<dad::DistArray<double>>> src, dst;
  std::vector<Point> sentinel;  // one per source rank (its single patch)
};

struct RankState {
  std::shared_ptr<core::MxNComponent> comp;
  int side = 0;
  int idx = 0;
};

RankState setup_rank(rt::Communicator& world, Arrays& a, double* establish_us) {
  RankState s;
  s.comp = core::make_paired_mxn(world, kSrc, kDst);
  s.side = world.rank() < kSrc ? 0 : 1;
  s.idx = s.side == 0 ? world.rank() : world.rank() - kSrc;
  dad::DistArray<double>* arr =
      s.side == 0 ? a.src[s.idx].get() : a.dst[s.idx].get();
  s.comp->register_field(core::make_field(
      "u", arr, s.side == 0 ? core::AccessMode::Read : core::AccessMode::Write));
  core::ConnectionSpec spec;
  spec.src_field = spec.dst_field = "u";
  spec.src_side = 0;
  spec.one_shot = false;
  spec.handshake = true;
  const double t0 = now_s();
  s.comp->establish(spec);
  *establish_us = (now_s() - t0) * 1e6;
  return s;
}

/// Per-rank, per-op time of DistArray::extract (sources) and inject
/// (destinations) replayed over the connection's own schedule regions; the
/// replay is timed only in untraced runs.
void replay_dad(const Options& o, Arrays& a, Result& r) {
  std::vector<sched::RegionSchedule> ss, ds;
  double regions = 0;
  for (int s = 0; s < kSrc; ++s) {
    ss.push_back(sched::build_region_schedule(*a.sd, *a.dd, s, -1));
    for (const auto& pr : ss.back().sends) regions += pr.regions.size();
  }
  for (int d = 0; d < kDst; ++d)
    ds.push_back(sched::build_region_schedule(*a.sd, *a.dd, -1, d));
  // bufs[s][d]: what source s ships to destination d.
  std::vector<std::vector<std::vector<double>>> bufs(
      kSrc, std::vector<std::vector<double>>(kDst));
  for (int s = 0; s < kSrc; ++s)
    for (const auto& pr : ss[s].sends)
      bufs[s][pr.peer].resize(static_cast<std::size_t>(pr.elements));
  Samples ext, inj;
  for (int rep = 0; rep < (o.traced ? 0 : kReplayReps); ++rep) {
    double t0 = now_s();
    for (int s = 0; s < kSrc; ++s)
      for (const auto& pr : ss[s].sends) {
        double* out = bufs[s][pr.peer].data();
        for (const auto& reg : pr.regions) {
          a.src[s]->extract(reg, out);
          out += reg.volume();
        }
      }
    ext.add((now_s() - t0) * 1e6 / kSrc);
    t0 = now_s();
    for (int d = 0; d < kDst; ++d)
      for (const auto& pr : ds[d].recvs) {
        const double* in = bufs[pr.peer][d].data();
        for (const auto& reg : pr.regions) {
          a.dst[d]->inject(reg, in);
          in += reg.volume();
        }
      }
    inj.add((now_s() - t0) * 1e6 / kDst);
  }
  r.layers["dad.extract_us_per_op"] = ext.median();
  r.layers["dad.inject_us_per_op"] = inj.median();
  r.layers["dad.regions_per_op"] = regions;
  r.exact["dad.regions_per_op"] = regions;
}

}  // namespace

void run_bulk_stream(const Options& o, Result& r) {
  Rng rng(o.seed);
  Field f;
  f.a = static_cast<double>(rng.range(1, 9));
  f.b = static_cast<double>(rng.range(1, 16)) / 8.0;
  f.c = static_cast<double>(rng.range(1, 100));

  // Arrays are allocated and filled before the spawn: set-up time excludes
  // the benchmark's own fills.
  Arrays a;
  a.sd = dad::make_regular(std::vector<AxisDist>{AxisDist::block(kN, kSrc),
                                                 AxisDist::collapsed(kN)});
  a.dd = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(kN), AxisDist::block_cyclic(kN, kDst, kColBlock)});
  for (int s = 0; s < kSrc; ++s) {
    a.src.push_back(std::make_unique<dad::DistArray<double>>(a.sd, s));
    a.src.back()->fill([&](const Point& p) { return f.at(p); });
    const dad::Patch& patch = a.sd->patches_of(s)[0];
    Point p = patch.lo;
    p[0] += rng.range(0, patch.extent(0) - 1);
    p[1] += rng.range(0, patch.extent(1) - 1);
    a.sentinel.push_back(p);
  }
  for (int d = 0; d < kDst; ++d)
    a.dst.push_back(std::make_unique<dad::DistArray<double>>(a.dd, d));

  const double field_bytes = static_cast<double>(kN * kN) * sizeof(double);
  r.env["ranks"] = "2+2";
  r.env["field"] = std::to_string(kN) + "x" + std::to_string(kN) +
                   " doubles, dst column block " + std::to_string(kColBlock);
  r.env["field_bytes"] = std::to_string(static_cast<long long>(field_bytes));
  r.env["slice_bytes_per_rank"] =
      std::to_string(static_cast<long long>(field_bytes / kSrc));

  Samples lat, rates;
  double setup_s = 0, establish_us = 0;
  std::mutex mu;
  std::set<long> bad_steps;
  long timed = 0;
  const Snapshot s0 = Snapshot::take();
  Snapshot s1;

  const double t_spawn = now_s();
  rt::spawn(kSrc + kDst, [&](rt::Communicator& world) {
    RingGuard ring(world.rank());
    double est = 0;
    RankState st = setup_rank(world, a, &est);
    world.barrier();
    if (world.rank() == 0) {
      setup_s = now_s() - t_spawn;
      establish_us = est;
    }
    if (o.setup_only) return;
    std::vector<Point> mine;  // sentinels this destination rank checks
    if (st.side == 1)
      for (const Point& p : a.sentinel)
        if (a.dd->owner(p) == st.idx) mine.push_back(p);

    long step = 0;
    Samples local;
    auto do_step = [&](bool timing) {
      if (st.side == 0) {
        a.src[st.idx]->at(a.sentinel[st.idx]) = stamp(step);
        const double t0 = now_s();
        st.comp->data_ready("u");
        if (timing && world.rank() == 0) local.add((now_s() - t0) * 1e6);
      } else {
        st.comp->data_ready("u");
        for (const Point& p : mine)
          if (a.dst[st.idx]->at(p) != stamp(step)) {
            std::lock_guard lock(mu);
            bad_steps.insert(step);
          }
      }
      ++step;
    };
    for (int i = 0; i < kWarm; ++i) do_step(false);

    world.barrier();
    if (world.rank() == 0) {
      s1 = Snapshot::take();
      start_timed_phase(o);
    }
    world.barrier();

    const double t0 = now_s();
    StopClock clock(o, t0);
    long n = 0;
    Samples block_rate;  // steps per second of each block, on rank 0
    while (clock.keep_going(world, n)) {
      const double b0 = now_s();
      for (int i = 0; i < kBlock; ++i) do_step(true);
      n += kBlock;
      if (world.rank() == 0) block_rate.add(kBlock / (now_s() - b0));
    }
    if (world.rank() == 0) {
      timed = n;
      lat = std::move(local);
      rates = std::move(block_rate);
    }
  });
  const Snapshot s2 = Snapshot::take();
  r.set_spawn_totals(s0, s2, kWarm + timed);
  r.e2e["setup_s"] = setup_s;
  r.layers["core.establish_us"] = establish_us;
  if (o.setup_only) return;

  // End state: every destination element equals the source function, except
  // the sentinels, which carry the last step's stamp.
  const long last = kWarm + timed - 1;
  long wrong = 0;
  for (int d = 0; d < kDst; ++d)
    a.dst[d]->for_each_owned([&](const Point& p, const double& v) {
      bool sentinel = false;
      for (const Point& q : a.sentinel) sentinel = sentinel || q == p;
      if (v != (sentinel ? stamp(last) : f.at(p))) ++wrong;
    });
  if (wrong != 0)
    r.fail("bulk_stream: " + std::to_string(wrong) +
           " destination elements differ from the source after the last step");

  replay_dad(o, a, r);

  const Snapshot run = s2.minus(s1);
  require_no_faults(run, r);
  long failed = 0;
  for (long s : bad_steps) failed += s >= kWarm ? 1 : 0;
  if (!bad_steps.empty())
    r.fail("bulk_stream: sentinel mismatch on " +
           std::to_string(bad_steps.size()) + " steps");

  r.attempted = timed;
  r.failed = failed;
  r.ops = timed;
  r.timing_rank = 0;
  r.e2e["op_p50_us"] = lat.median();
  r.e2e["op_p99_us"] = lat.pct(0.99);
  r.e2e["op_samples"] = static_cast<double>(lat.size());
  r.e2e["ops_per_s"] = rates.median();
  r.e2e["payload_mb_s"] = rates.median() * field_bytes / 1e6;
  r.e2e["failed_frac"] = ratio(static_cast<double>(failed), static_cast<double>(timed));

  add_counter_layers(s1.minus(s0), run, static_cast<double>(timed),
                     static_cast<double>(timed) * field_bytes, r);
}

}  // namespace perfbench
