// elastic_chaos: 4 channel ranks of an elastic component (3 members, one
// spectator) coupled by a reliable two-phase connection.
//
//  A: steps under a seeded dup/reorder plan on the connection, migration and
//     encode tags. Each block of steps ends with one RedundancyGroup::encode()
//     and one rescale along a fixed layout cycle, and the run stops only after
//     whole rounds of that cycle, so every run steps each layout equally often
//     and does one encode and one rescale per block. The plan drops nothing: a
//     dropped commit leaves the destination's attempt serial ahead of its
//     sources', and the reliable exchange then fails every later step until
//     a rescale re-aligns the serials, so lossy steps would measure that
//     livelock rather than a retry.
//  B: kill/recover cycles without message chaos, each in its own spawn: a
//     seeded kill hits a source rank, recover() rebuilds it onto the
//     survivors plus the spectator, and streaming resumes.
//
// The reliable exchange, rescale, redundancy and death detection run only
// here, used two ways: many small lossy steps versus bulk migration and
// rebuild.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/mxn_component.hpp"
#include "harness.hpp"
#include "redundancy/redundancy.hpp"
#include "rt/runtime.hpp"
#include "rt/universe.hpp"

namespace perfbench {

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace red = mxn::redundancy;
using dad::AxisDist;
using dad::Point;

namespace {

constexpr int kRanks = 4;
constexpr dad::Index kRows = 256;
constexpr dad::Index kCols = 256;
constexpr int kWarm = 20;
// Steps between an encode + rescale: long blocks in a timed run, short ones
// in a fixed-op run so the traced rings still see a whole round of rescales.
constexpr int kBlock = 3000;
constexpr int kBlockFixed = 25;
// Migration tags recycle every 64 rescale epochs while migration serials
// restart at 0, so a duplicated straggler from 64 epochs back would be
// accepted as current data. Stay below that: a run ends early rather than
// start a round that would pass it.
constexpr long kMaxRescales = 60;

constexpr double kDup = 0.02;
constexpr double kReorder = 0.05;
constexpr int kChaosMinTag = 900;  // above the internal tags
// Nothing is lost in phase A, so deadlines only guard against hangs. They are
// long because one spurious timeout (a descheduled rank) starts the same
// attempt-serial livelock a lost commit does.
constexpr int kStepTimeoutMs = 2000;
constexpr int kStepRetries = 2;
constexpr red::RedundancyOptions kRed{
    .group_size = 3, .timeout_ms = 2000, .max_retries = 2};

// Phase B: no chaos, so a step fails only on the dead peer; short step
// deadlines keep detection in the tens of milliseconds.
constexpr int kKillStepTimeoutMs = 25;
constexpr int kKillStepRetries = 1;
constexpr int kRecoverTimeoutMs = 2000;

/// Layout cycle of phase A over members 0-2; rank 3 stays the spectator
/// (a rank that sits out an encode falls behind the group's encode epoch).
const std::vector<core::Layout> kCycle = {
    {{0, 1}, {2}},
    {{2}, {0, 1}},
    {{1, 2}, {0}},
};

struct Field {
  double a = 1, b = 1, c = 0;
  [[nodiscard]] double at(const Point& p) const {
    return a * static_cast<double>(p[0]) + b * static_cast<double>(p[1]) + c;
  }
};

dad::DescriptorPtr desc_for(int side, int n) {
  if (side == 0)
    return dad::make_regular(std::vector<AxisDist>{AxisDist::block(kRows, n),
                                                   AxisDist::collapsed(kCols)});
  return dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(kRows, n),
                                                 AxisDist::collapsed(kCols)});
}

int index_in(const std::vector<int>& ranks, int r) {
  for (std::size_t i = 0; i < ranks.size(); ++i)
    if (ranks[i] == r) return static_cast<int>(i);
  return -1;
}

int timing_rank(const core::Layout& l) {
  return *std::min_element(l.side0.begin(), l.side0.end());
}

/// This rank's (unfilled) array and registration under `layout`.
std::vector<core::FieldRegistration> regs_for(
    const core::Layout& layout, int me,
    std::unique_ptr<dad::DistArray<double>>& arr) {
  const int side = layout.side_of(me);
  std::vector<core::FieldRegistration> regs;
  arr.reset();
  if (side >= 0) {
    const auto& ranks = layout.side(side);
    arr = std::make_unique<dad::DistArray<double>>(
        desc_for(side, static_cast<int>(ranks.size())), index_in(ranks, me));
    regs.push_back(core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
  }
  return regs;
}

long mismatches(const dad::DistArray<double>* arr, const Field& f) {
  long n = 0;
  if (arr != nullptr)
    arr->for_each_owned([&](const Point& p, const double& v) {
      if (v != f.at(p)) ++n;
    });
  return n;
}

core::ConnectionSpec reliable_spec(int timeout_ms, int retries) {
  core::ConnectionSpec spec;
  spec.src_field = spec.dst_field = "f";
  spec.src_side = 0;
  spec.one_shot = false;
  spec.reliable = true;
  spec.timeout_ms = timeout_ms;
  spec.max_retries = retries;
  return spec;
}

struct Shared {
  std::mutex mu;
  Samples lat, encode_ms, rescale_ms, round_rate;
  double setup_s = 0, establish_us = 0;
  std::set<long> failed_steps;
  long wrong = 0;
  double wire_ratio = 0;

  void add(Samples& s, double v) {
    std::lock_guard lock(mu);
    s.add(v);
  }
  void mismatch(long n) {
    std::lock_guard lock(mu);
    wrong += n;
  }
};

/// One kill/recover cycle's timings, in milliseconds.
struct Cycle {
  double recover_ms = 0, outage_ms = 0, detect_ms = 0;
  double rebuilt_kib = 0, migrated_kib = 0;
  bool resumed = false;
};

Cycle kill_recover_cycle(std::uint64_t seed, const Field& f, Shared& sh) {
  Rng rng(seed);
  const core::Layout& start = kCycle[0];
  const int spectator = 3;
  const int victim = start.side0[static_cast<std::size_t>(rng.range(0, 1))];
  core::Layout after = start;
  std::replace(after.side0.begin(), after.side0.end(), victim, spectator);
  std::sort(after.side0.begin(), after.side0.end());
  const int members = static_cast<int>(after.side0.size() + after.side1.size());

  rt::FaultPlan plan;
  plan.seed = seed;
  plan.kills = {{victim, static_cast<int>(rng.range(150, 250))}};

  std::atomic<std::int64_t> death_ns{0}, detect_ns{0}, last_commit_ns{0};
  std::atomic<int> resumed{0};
  std::mutex mu;
  double recover_ms = 0, rebuilt = 0, migrated = 0;
  auto now_ns = [] { return mxn::trace::now_ns(); };

  try {
    rt::spawn(
        kRanks,
        [&](rt::Communicator& world) {
          RingGuard ring(world.rank());
          const int me = world.rank();
          rt::Universe* uni = world.universe();
          try {
            auto comp = core::make_elastic_mxn(world, start);
            std::unique_ptr<dad::DistArray<double>> arr;
            auto regs = regs_for(start, me, arr);
            const int side = start.side_of(me);
            if (side == 0) arr->fill([&](const Point& p) { return f.at(p); });
            for (auto& reg : regs) comp->register_field(reg);
            comp->establish(reliable_spec(kKillStepTimeoutMs, kKillStepRetries));
            if (side >= 0) comp->data_ready("f");
            red::RedundancyGroup group(comp, kRed);
            group.encode();
            world.barrier();

            // Stream until the seeded kill lands; the victim's own ops tick
            // its kill clock.
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (uni->dead() == 0 && std::chrono::steady_clock::now() < deadline) {
              if (side < 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
              }
              try {
                comp->data_ready("f");
              } catch (const core::TransferError&) {
              } catch (const rt::TimeoutError&) {
              }
            }
            if (side >= 0) {
              std::int64_t expected = 0;
              detect_ns.compare_exchange_strong(expected, now_ns());
            }

            std::unique_ptr<dad::DistArray<double>> next;
            auto nregs = regs_for(after, me, next);
            const double t0 = now_s();
            const auto rs = group.recover(after, std::move(nregs),
                                          kRecoverTimeoutMs, kStepRetries);
            {
              std::lock_guard lock(mu);
              recover_ms = std::max(recover_ms, (now_s() - t0) * 1e3);
              rebuilt += static_cast<double>(rs.rebuilt_bytes);
              migrated += static_cast<double>(rs.migrated_bytes);
            }
            arr = std::move(next);

            // Resume: members keep streaming until every member committed a
            // post-recovery step, so no destination starves mid-retry.
            if (after.side_of(me) >= 0) {
              bool committed = false;
              const auto rdl =
                  std::chrono::steady_clock::now() + std::chrono::seconds(20);
              while (resumed.load() < members &&
                     std::chrono::steady_clock::now() < rdl) {
                try {
                  if (comp->data_ready("f") == 1 && !committed) {
                    committed = true;
                    std::int64_t t = now_ns(), prev = last_commit_ns.load();
                    while (prev < t && !last_commit_ns.compare_exchange_weak(prev, t)) {
                    }
                    resumed.fetch_add(1);
                  }
                } catch (const core::TransferError&) {
                } catch (const rt::TimeoutError&) {
                }
              }
              sh.mismatch(mismatches(arr.get(), f));
            }
          } catch (const rt::KilledError&) {
            death_ns.store(now_ns());
            throw;
          }
        },
        {.deadlock_timeout_ms = 20000,
         .default_recv_timeout_ms = 10000,
         .faults = plan});
  } catch (const rt::KilledError&) {
    // The victim's death is rethrown once the survivors finish.
  }
  Cycle c;
  c.resumed = resumed.load() == members && death_ns.load() != 0;
  c.recover_ms = recover_ms;
  c.outage_ms = static_cast<double>(last_commit_ns.load() - death_ns.load()) / 1e6;
  c.detect_ms = static_cast<double>(detect_ns.load() - death_ns.load()) / 1e6;
  c.rebuilt_kib = rebuilt / 1024.0;
  c.migrated_kib = migrated / 1024.0;
  return c;
}

}  // namespace

void run_elastic_chaos(const Options& o, Result& r) {
  Rng rng(o.seed);
  Field f;
  f.a = static_cast<double>(rng.range(1, 9));
  f.b = static_cast<double>(rng.range(1, 16)) / 8.0;
  f.c = static_cast<double>(rng.range(1, 100));
  const double field_bytes = static_cast<double>(kRows * kCols) * sizeof(double);
  r.env["ranks"] = "4 (3 members + 1 spectator)";
  r.env["field"] = std::to_string(kRows) + "x" + std::to_string(kCols) +
                   " doubles; dup " + std::to_string(kDup) + ", reorder " +
                   std::to_string(kReorder);
  r.env["field_bytes"] = std::to_string(static_cast<long long>(field_bytes));

  rt::FaultPlan plan;
  plan.seed = o.seed;
  plan.dup = kDup;
  plan.reorder = kReorder;
  plan.min_tag = kChaosMinTag;

  // Phase A arrays under the first layout, filled before the spawn.
  std::vector<std::unique_ptr<dad::DistArray<double>>> arrays(kRanks);
  std::vector<std::vector<core::FieldRegistration>> initial(kRanks);
  for (int me = 0; me < kRanks; ++me) {
    initial[me] = regs_for(kCycle[0], me, arrays[me]);
    if (kCycle[0].side_of(me) == 0)
      arrays[me]->fill([&](const Point& p) { return f.at(p); });
  }

  Shared sh;
  long steps = 0, blocks = 0;
  const Snapshot s0 = Snapshot::take();
  Snapshot s1;

  auto setup_rank = [&](rt::Communicator& world) {
    const int me = world.rank();
    auto comp = core::make_elastic_mxn(world, kCycle[0]);
    for (auto& reg : initial[me]) comp->register_field(reg);
    const double t0 = now_s();
    comp->establish(reliable_spec(kStepTimeoutMs, kStepRetries));
    if (me == 0) sh.establish_us = (now_s() - t0) * 1e6;
    return comp;
  };

  const double t_spawn = now_s();
  rt::spawn(
      kRanks,
      [&](rt::Communicator& world) {
        RingGuard ring(world.rank());
        const int me = world.rank();
        auto comp = setup_rank(world);
        red::RedundancyGroup group(comp, kRed);
        world.barrier();
        if (me == 0) sh.setup_s = now_s() - t_spawn;
        if (o.setup_only) return;

        core::Layout layout = kCycle[0];
        long step = 0;
        auto do_step = [&](bool timing) {
          const long k = step++;
          if (layout.side_of(me) < 0) return;
          const double t0 = now_s();
          try {
            comp->data_ready("f");
            if (timing && me == timing_rank(layout))
              sh.add(sh.lat, (now_s() - t0) * 1e6);
          } catch (const core::TransferError&) {
            std::lock_guard lock(sh.mu);
            sh.failed_steps.insert(k);
          } catch (const rt::TimeoutError&) {
            std::lock_guard lock(sh.mu);
            sh.failed_steps.insert(k);
          }
        };
        for (int i = 0; i < kWarm; ++i) do_step(false);
        sh.mismatch(mismatches(arrays[me].get(), f));

        world.barrier();
        if (me == 0) {
          s1 = Snapshot::take();
          start_timed_phase(o);
        }
        world.barrier();

        StopClock clock(o, now_s());
        const int block = o.ops > 0 ? kBlockFixed : kBlock;
        const long round = static_cast<long>(kCycle.size());
        long n = 0, e = 0;
        while (e + round <= kMaxRescales && clock.keep_going(world, n)) {
          const double r0 = now_s();
          for (long b = 0; b < round; ++b) {
            for (int i = 0; i < block; ++i) do_step(true);
            n += block;

            // Members leave the step loop at different times; line them up
            // so the encode and the rescale each time only themselves.
            world.barrier();
            double t = now_s();
            const red::EncodeStats es = group.encode();
            if (me == timing_rank(layout)) {
              sh.add(sh.encode_ms, (now_s() - t) * 1e3);
              std::lock_guard lock(sh.mu);
              sh.wire_ratio = ratio(static_cast<double>(es.sent_bytes),
                                    static_cast<double>(es.blob_bytes));
            }

            const core::Layout& next =
                kCycle[static_cast<std::size_t>(++e % round)];
            std::unique_ptr<dad::DistArray<double>> arr;
            auto regs = regs_for(next, me, arr);
            world.barrier();
            t = now_s();
            comp->rescale(next, std::move(regs), kStepTimeoutMs, kStepRetries);
            if (me == 0) sh.add(sh.rescale_ms, (now_s() - t) * 1e3);
            arrays[me] = std::move(arr);
            layout = next;
            sh.mismatch(mismatches(arrays[me].get(), f));
          }
          // Ops of a round: its steps, encodes and rescales.
          if (me == 0)
            sh.add(sh.round_rate, static_cast<double>(round * (block + 2)) /
                                      (now_s() - r0));
        }
        if (me == 0) {
          steps = n;
          blocks = e;
        }
      },
      {.deadlock_timeout_ms = 30000, .faults = plan});
  const Snapshot s2 = Snapshot::take();
  r.set_spawn_totals(s0, s2, kWarm + steps);
  r.e2e["setup_s"] = sh.setup_s;
  r.layers["core.establish_us"] = sh.establish_us;
  if (o.setup_only) return;

  Samples recover_ms, outage_ms, detect_ms, rebuilt_kib, migrated_kib;
  for (int c = 0; c < o.recover_cycles; ++c) {
    const Cycle cy = kill_recover_cycle(o.seed * 1000 + static_cast<std::uint64_t>(c), f, sh);
    if (!cy.resumed) {
      r.fail("elastic_chaos: kill/recover cycle " + std::to_string(c) +
             " did not resume on every member");
      continue;
    }
    recover_ms.add(cy.recover_ms);
    outage_ms.add(cy.outage_ms);
    detect_ms.add(cy.detect_ms);
    rebuilt_kib.add(cy.rebuilt_kib);
    migrated_kib.add(cy.migrated_kib);
  }

  if (sh.wrong != 0)
    r.fail("elastic_chaos: " + std::to_string(sh.wrong) +
           " elements differ from the source after a rescale or resume");

  const Snapshot run = s2.minus(s1);
  long failed = 0;
  for (long k : sh.failed_steps) failed += k >= kWarm ? 1 : 0;
  if (run.c("fault.duplicated") + run.c("fault.reordered") == 0)
    r.fail("elastic_chaos: phase A injected no faults");
  const long ops = steps + 2 * blocks;  // steps, encodes and rescales
  const double committed = static_cast<double>(steps - failed);
  r.attempted = ops;
  r.failed = failed;
  r.ops = steps;
  r.timing_rank = 0;
  r.e2e["op_p50_us"] = sh.lat.median();
  r.e2e["op_p99_us"] = sh.lat.pct(0.99);
  r.e2e["op_samples"] = static_cast<double>(sh.lat.size());
  r.e2e["ops_per_s"] = sh.round_rate.median();
  r.e2e["payload_mb_s"] =
      sh.round_rate.median() * ratio(committed, static_cast<double>(ops)) *
      field_bytes / 1e6;
  r.e2e["failed_frac"] = ratio(static_cast<double>(failed), static_cast<double>(ops));
  r.e2e["rescale_ms"] = sh.rescale_ms.median();
  if (recover_ms.size() > 0) {
    r.e2e["recover_ms"] = recover_ms.median();
    r.e2e["outage_ms"] = outage_ms.median();
  }

  add_counter_layers(s1.minus(s0), run, static_cast<double>(steps),
                     committed * field_bytes, r);
  auto& L = r.layers;
  const double rescales = static_cast<double>(blocks);
  L["core.rescale_stall_ms"] = ratio(run.c("rescale.stall_ns") / 1e6, rescales);
  L["core.rescale_migrated_mib"] =
      ratio(run.c("rescale.migrated_bytes") / 1048576.0, rescales);
  L["core.rescale_retries"] = run.c("rescale.retries");
  L["redundancy.encode_ms"] = sh.encode_ms.median();
  L["redundancy.wire_ratio"] = sh.wire_ratio;
  if (recover_ms.size() > 0) {
    L["rt.detect_ms"] = detect_ms.median();
    L["redundancy.rebuilt_kib"] = rebuilt_kib.median();
    L["redundancy.migrated_kib"] = migrated_kib.median();
  }
  for (const char* c : {"fault.dropped", "fault.duplicated", "fault.reordered"})
    r.exact[c] = run.c(c);
}

}  // namespace perfbench
