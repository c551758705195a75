// Tests for erasure-coded state redundancy (docs/REDUNDANCY.md): encode
// snapshot/parity distribution, option and usage validation, and the
// acceptance chaos scenarios — a seeded plan kills one rank mid-coupling
// under drop/dup/reorder/delay, the survivors detect the death, rebuild the
// dead rank's patches from XOR parity, splice the cohort (shrink onto
// survivors AND admit a spectator replacement), and the resumed coupling
// stays element-exact with an interleaved PRMI conversation exactly-once.
// Killing more ranks than the parity tolerates must raise RebuildError on
// every live rank — never hang.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mxn_component.hpp"
#include "prmi/distributed_framework.hpp"
#include "redundancy/redundancy.hpp"
#include "rt/runtime.hpp"
#include "sidl/parser.hpp"
#include "trace/trace.hpp"

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace prmi = mxn::prmi;
namespace red = mxn::redundancy;
namespace rt = mxn::rt;
namespace trace = mxn::trace;
using dad::AxisDist;
using dad::Point;

namespace {

constexpr dad::Index kRows = 24;
constexpr dad::Index kCols = 10;

double value_at(const Point& p) { return 7.0 * p[0] + p[1]; }
double sentinel_at(const Point&) { return -4444.0; }

/// Side-`s` decomposition of the shared global array for `n` cohort ranks;
/// block vs cyclic so every coupling and every rebuild migration actually
/// redistributes.
dad::DescriptorPtr desc_for(int s, int n) {
  if (s == 0)
    return dad::make_regular(
        std::vector<AxisDist>{AxisDist::block(kRows, n),
                              AxisDist::collapsed(kCols)});
  return dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(kRows, n), AxisDist::collapsed(kCols)});
}

int index_in(const std::vector<int>& ranks, int r) {
  for (std::size_t i = 0; i < ranks.size(); ++i)
    if (ranks[i] == r) return static_cast<int>(i);
  return -1;
}

void expect_exact(dad::DistArray<double>& arr) {
  arr.for_each_owned([&](const Point& p, const double& v) {
    EXPECT_DOUBLE_EQ(v, value_at(p)) << "at (" << p[0] << "," << p[1] << ")";
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction and encode
// ---------------------------------------------------------------------------

TEST(Redundancy, RequiresElasticComponentAndSaneOptions) {
  rt::spawn(2, [](rt::Communicator& world) {
    auto paired = core::make_paired_mxn(world, 1, 1);
    EXPECT_THROW({ red::RedundancyGroup g(paired, {}); }, rt::UsageError);

    auto elastic = core::make_elastic_mxn(world, core::Layout{{0}, {1}});
    EXPECT_THROW({ red::RedundancyGroup g(elastic, {.group_size = 1}); },
                 rt::UsageError);
    EXPECT_THROW({ red::RedundancyGroup g(nullptr, {}); }, rt::UsageError);
    red::RedundancyGroup ok(elastic, {.group_size = 2});
    EXPECT_FALSE(ok.encoded());
  });
}

TEST(Redundancy, EncodeSnapshotsAndDistributesParity) {
  trace::set_enabled(true);
  const auto enc0 = trace::counter("redundancy.encodes").value();
  rt::spawn(5, [](rt::Communicator& world) {
    const int me = world.rank();
    const core::Layout layout{{0, 1}, {2, 3}};  // rank 4 is a spectator
    auto comp = core::make_elastic_mxn(world, layout);
    const int side = layout.side_of(me);
    std::unique_ptr<dad::DistArray<double>> arr;
    if (side >= 0) {
      const auto& ranks = layout.side(side);
      arr = std::make_unique<dad::DistArray<double>>(
          desc_for(side, static_cast<int>(ranks.size())),
          index_in(ranks, me));
      arr->fill(value_at);
      comp->register_field(
          core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
    }

    red::RedundancyGroup group(comp, {.group_size = 4});
    const auto st = group.encode();
    if (side < 0) {
      // Spectators no-op and hold no epoch.
      EXPECT_EQ(st.epoch, 0u);
      EXPECT_FALSE(group.encoded());
      return;
    }
    EXPECT_EQ(st.epoch, 1u);
    EXPECT_TRUE(group.encoded());
    // The blob is exactly this rank's owned elements of "f".
    const auto& ranks = layout.side(side);
    const auto elems = desc_for(side, static_cast<int>(ranks.size()))
                           ->local_volume(index_in(ranks, me));
    EXPECT_EQ(st.blob_bytes, static_cast<std::uint64_t>(elems) * 8u);
    // With a 4-member group each rank holds parity of ~blob/(m-1) per peer
    // contribution — nonzero whenever data exists.
    EXPECT_GT(st.parity_bytes, 0u);
    EXPECT_GT(st.sent_bytes, st.blob_bytes);  // 3 chunks + headers

    // A second epoch supersedes the first.
    EXPECT_EQ(group.encode().epoch, 2u);
  });
  EXPECT_GE(trace::counter("redundancy.encodes").value() - enc0, 4u);
}

TEST(Redundancy, SpectatorAdmittedByRescaleJoinsEncode) {
  // Every channel rank calls encode(). A spectator's call keeps its encode
  // epoch in step with the members', so once a rescale admits it, its next
  // encode pairs with its partners' instead of filtering out their epoch.
  rt::spawn(4, [](rt::Communicator& world) {
    const int me = world.rank();
    const core::Layout before{{0, 1}, {2}};  // rank 3 is a spectator
    const core::Layout after{{0, 1}, {3}};   // rank 3 replaces rank 2
    auto comp = core::make_elastic_mxn(world, before);
    auto array_for = [&](const core::Layout& l) {
      const int s = l.side_of(me);
      const auto& ranks = l.side(s);
      return std::make_unique<dad::DistArray<double>>(
          desc_for(s, static_cast<int>(ranks.size())), index_in(ranks, me));
    };
    std::unique_ptr<dad::DistArray<double>> arr;
    if (before.side_of(me) >= 0) {
      arr = array_for(before);
      arr->fill(value_at);
      comp->register_field(
          core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
    }
    red::RedundancyGroup group(comp, {.group_size = 4, .timeout_ms = 1000});
    group.encode();

    // Side 0 keeps its rank list and its registrations; side 1 moves.
    std::unique_ptr<dad::DistArray<double>> next;
    std::vector<core::FieldRegistration> regs;
    if (after.side_of(me) == 1) {
      next = array_for(after);
      regs.push_back(
          core::make_field("f", next.get(), core::AccessMode::ReadWrite));
    }
    comp->rescale(after, std::move(regs));
    if (next) {
      arr = std::move(next);
      expect_exact(*arr);
    }

    const auto st = group.encode();
    if (comp->is_member()) {
      EXPECT_EQ(st.epoch, 2u);
      EXPECT_TRUE(group.encoded());
    } else {
      EXPECT_FALSE(group.encoded());
    }
  });
}

TEST(Redundancy, ManyPatchEncodeKillRecoverIsExact) {
  // Side 0 holds 8192 one-element patches per rank (cyclic over 2). Rank 1
  // dies after the encode; the survivors rebuild its blob and splice side 0
  // onto rank 0 alone, so the relayout reads the rebuilt blob-backed field
  // and rank 0's own storage, region by region, through the named patches.
  constexpr dad::Index kN = 16384;
  const auto desc = [](int s, std::size_t n) {
    const int p = static_cast<int>(n);
    return dad::make_regular(std::vector<AxisDist>{
        s == 0 ? AxisDist::cyclic(kN, p) : AxisDist::block(kN, p)});
  };
  const auto value = [](const Point& p) { return 0.5 * p[0] + 7.0; };
  const core::Layout layout{{0, 1}, {2, 3}};
  const core::Layout shrunk{{0}, {2, 3}};
  std::atomic<int> exact{0};
  EXPECT_THROW(
      rt::spawn(
          4,
          [&](rt::Communicator& world) {
            const int me = world.rank();
            auto comp = core::make_elastic_mxn(world, layout);
            const int side = layout.side_of(me);
            const auto& ranks = layout.side(side);
            dad::DistArray<double> arr(desc(side, ranks.size()),
                                       index_in(ranks, me));
            arr.fill(value);
            comp->register_field(
                core::make_field("f", &arr, core::AccessMode::ReadWrite));
            red::RedundancyGroup group(comp,
                                       {.group_size = 4, .timeout_ms = 3000});
            group.encode();
            world.barrier();
            if (me == 1) throw rt::KilledError("rank 1 dies after the encode");
            while (world.universe()->dead() == 0)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));

            const int new_side = shrunk.side_of(me);
            const auto& nr = shrunk.side(new_side);
            dad::DistArray<double> next(desc(new_side, nr.size()),
                                        index_in(nr, me));
            next.fill(sentinel_at);
            std::vector<core::FieldRegistration> regs;
            regs.push_back(
                core::make_field("f", &next, core::AccessMode::ReadWrite));
            group.recover(shrunk, std::move(regs), /*timeout_ms=*/8000,
                          /*max_retries=*/4);
            bool ok = true;
            next.for_each_owned([&](const Point& p, const double& v) {
              if (v != value(p)) ok = false;
            });
            if (ok) exact.fetch_add(1);
          },
          {.deadlock_timeout_ms = 30000, .default_recv_timeout_ms = 10000}),
      rt::KilledError);
  EXPECT_EQ(exact.load(), 3);
}

TEST(Redundancy, EncodeRejectsWriteOnlyFields) {
  rt::spawn(2, [](rt::Communicator& world) {
    const core::Layout layout{{0}, {1}};
    auto comp = core::make_elastic_mxn(world, layout);
    const int side = layout.side_of(world.rank());
    dad::DistArray<double> arr(desc_for(side, 1), 0);
    comp->register_field(
        core::make_field("f", &arr, core::AccessMode::Write));
    red::RedundancyGroup group(comp, {.group_size = 2});
    EXPECT_THROW(group.encode(), rt::UsageError);
  });
}

// ---------------------------------------------------------------------------
// Metadata decoding (docs/FAULTS.md, decode contract)
// ---------------------------------------------------------------------------

namespace {

/// One 8-byte field over desc_for(0, 4): 6 x 10 elements per rank.
constexpr std::uint64_t kFieldBytes = 6 * kCols * sizeof(double);

std::vector<red::detail::FieldMeta> one_field() {
  red::detail::FieldMeta fm;
  fm.name = "f";
  fm.elem_size = sizeof(double);
  fm.descriptor = desc_for(0, 4);
  return {fm};
}

/// unpack_meta must reject `bytes` with a UsageError naming `what`.
void expect_rejected(const std::vector<std::byte>& bytes,
                     std::uint64_t blob_size, const std::string& what) {
  try {
    (void)red::detail::unpack_meta(bytes, blob_size);
    ADD_FAILURE() << "accepted metadata with bad " << what;
  } catch (const rt::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

}  // namespace

TEST(RedundancyMeta, WellFormedMetadataRoundTrips) {
  const auto bytes = red::detail::pack_meta(1, 3, one_field());
  const auto h = red::detail::unpack_meta(bytes, kFieldBytes);
  EXPECT_EQ(h.side, 1);
  EXPECT_EQ(h.cohort_rank, 3);
  ASSERT_EQ(h.fields.size(), 1u);
  EXPECT_EQ(h.fields[0].offset, 0u);
  EXPECT_EQ(h.fields[0].bytes, kFieldBytes);
}

TEST(RedundancyMeta, CohortRankOutsideTheDescriptorIsRejected) {
  // desc_for(0, 4) has ranks 0..3.
  expect_rejected(red::detail::pack_meta(0, 4, one_field()), kFieldBytes,
                  "cohort rank");
  expect_rejected(red::detail::pack_meta(0, -1, one_field()), kFieldBytes,
                  "cohort rank");
}

TEST(RedundancyMeta, SideOtherThanZeroOrOneIsRejected) {
  expect_rejected(red::detail::pack_meta(2, 0, one_field()), kFieldBytes,
                  "side");
  expect_rejected(red::detail::pack_meta(-1, 0, one_field()), kFieldBytes,
                  "side");
}

TEST(RedundancyMeta, FieldCountBeyondThePayloadIsRejected) {
  // A real header whose field count is rewritten to 2^40: the count must be
  // refused against the bytes that remain, before any field is decoded.
  auto bytes = red::detail::pack_meta(0, 0, one_field());
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + 2 * sizeof(std::int32_t), &huge, sizeof huge);
  expect_rejected(bytes, kFieldBytes, "field count");
}

TEST(RedundancyMeta, FieldsOverrunningTheBlobAreRejected) {
  expect_rejected(red::detail::pack_meta(0, 0, one_field()), kFieldBytes - 1,
                  "overruns");
  auto two = one_field();
  two.push_back(two[0]);
  two[1].name = "g";
  expect_rejected(red::detail::pack_meta(0, 0, two), kFieldBytes + 8,
                  "overruns");
  // A hostile element size must not wrap the offset arithmetic.
  auto wide = one_field();
  wide[0].elem_size = std::uint64_t{1} << 62;
  expect_rejected(red::detail::pack_meta(0, 0, wide), kFieldBytes,
                  "overruns");
}

TEST(Redundancy, RecoverRequiresADeadRank) {
  rt::spawn(2, [](rt::Communicator& world) {
    const core::Layout layout{{0}, {1}};
    auto comp = core::make_elastic_mxn(world, layout);
    const int side = layout.side_of(world.rank());
    dad::DistArray<double> arr(desc_for(side, 1), 0);
    comp->register_field(
        core::make_field("f", &arr, core::AccessMode::ReadWrite));
    red::RedundancyGroup group(comp, {.group_size = 2});
    group.encode();
    // Nobody died: recover refuses up front, before any communication.
    EXPECT_THROW(group.recover(layout, {}), rt::UsageError);
  });
}

// ---------------------------------------------------------------------------
// Acceptance: mid-coupling kill, rebuild, splice, resume — under chaos
// ---------------------------------------------------------------------------

namespace {

const char* kSteerSidl = R"(
  package resilient {
    interface Steering {
      independent int bump(in int token);
    }
  }
)";

constexpr int kCallsPerPhase = 2;
/// Marker the client raises when a steering phase is fully answered,
/// releasing the server from dedup-replay duty. It sits below the chaos
/// plans' min_tag (900), so faults never drop it: a lost marker would leave
/// the server polling for it forever.
constexpr int kPhaseDoneTag = 800;

struct ChaosOutcome {
  std::atomic<int> rebuilt_ranks{0};   // ranks that completed recover()
  std::atomic<int> exact_ranks{0};     // members exact after resume
  std::atomic<int> executions{0};      // PRMI handler runs (exactly-once)
  std::atomic<int> resumed{0};         // members with a committed resume round
  std::atomic<std::uint64_t> rebuilt_bytes{0};
};

/// One full kill/rebuild/resume run. 8 ranks, 4×3 coupling (side 0 =
/// {0,1,2,3}, side 1 = {4,5,6}, rank 7 spectator). The plan kills source
/// rank 2 mid-stream under drop/dup/reorder/delay chaos; survivors detect
/// the death through their typed deadlines (or the universe's death flags),
/// rebuild rank 2's patches from XOR parity and splice onto `new_layout` —
/// shrink ({0,1,3}) or spectator replacement ({0,1,3,7}). A PRMI steering
/// conversation (client rank 0, server rank 7) brackets the failure.
void run_kill_rebuild_scenario(const rt::FaultPlan& plan,
                               const core::Layout& new_layout,
                               ChaosOutcome& out) {
  const core::Layout layout{{0, 1, 2, 3}, {4, 5, 6}};
  rt::spawn(
      8,
      [&](rt::Communicator& world) {
        const int me = world.rank();
        rt::Universe* uni = world.universe();

        prmi::DistributedFramework fw(world);
        fw.instantiate("client", {0});
        fw.instantiate("server", {7});
        auto pkg = mxn::sidl::parse_package(kSteerSidl);
        if (me == 7) {
          auto servant =
              std::make_shared<prmi::Servant>(pkg.interface("Steering"));
          servant->bind("bump",
                        [&](prmi::CalleeContext&,
                            std::vector<prmi::Value>& args) -> prmi::Value {
                          out.executions.fetch_add(1);
                          return std::int32_t(
                              std::get<std::int32_t>(args[0]) + 1);
                        });
          fw.add_provides("server", "steer", servant);
        }
        if (me == 0)
          fw.register_uses("client", "steer", pkg.interface("Steering"));
        fw.connect("client", "steer", "server", "steer");

        auto comp = core::make_elastic_mxn(world, layout);
        int side = layout.side_of(me);
        std::unique_ptr<dad::DistArray<double>> arr;
        if (side >= 0) {
          const auto& ranks = layout.side(side);
          arr = std::make_unique<dad::DistArray<double>>(
              desc_for(side, static_cast<int>(ranks.size())),
              index_in(ranks, me));
          if (side == 0) arr->fill(value_at);
          comp->register_field(
              core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
        }

        core::ConnectionSpec spec;
        spec.src_field = spec.dst_field = "f";
        spec.src_side = 0;
        spec.one_shot = false;
        spec.reliable = true;
        spec.timeout_ms = 200;
        spec.max_retries = 8;
        comp->establish(spec);

        // Warm transfer: both sides now hold the exact field, so the encode
        // snapshot below covers members of BOTH sides with known data.
        if (side >= 0) {
          EXPECT_EQ(comp->data_ready("f"), 1);
          expect_exact(*arr);
        }

        red::RedundancyGroup group(
            comp, {.group_size = 4, .timeout_ms = 3000, .max_retries = 8});
        group.encode();
        EXPECT_EQ(group.encoded(), side >= 0);

        // Steering phase 1, while everyone is alive.
        auto steer_phase = [&](int phase) {
          if (me == 7) {
            int served = 0;
            while (served < kCallsPerPhase)
              served += fw.serve("server", kCallsPerPhase - served);
            const int done_tag = kPhaseDoneTag + phase;
            while (!world.probe(0, done_tag)) {
              EXPECT_EQ(fw.drain("server"), 0);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            world.recv(0, done_tag);
          } else if (me == 0) {
            auto port = fw.get_port("client", "steer");
            // Generous retry budget: after the recovery the server may lag
            // the client by a couple of in-flight coupling rounds before it
            // reaches serve(); each retry rides out ~150 ms of that.
            port->set_retry_policy(prmi::RetryPolicy{
                .timeout_ms = 150, .max_retries = 25, .backoff_ms = 2});
            for (int i = 0; i < kCallsPerPhase; ++i) {
              const auto token = std::int32_t(100 * phase + i);
              auto r = port->call_independent("bump", {token}, 0);
              EXPECT_EQ(std::get<std::int32_t>(r.ret), token + 1);
            }
            world.send(7, kPhaseDoneTag + phase, rt::Buffer::allocate(1));
          }
        };
        steer_phase(0);
        // A (fault-exempt, internal-tag) barrier lines the members up so
        // the kill lands inside the stream below, not on a straggler
        // mid-handshake. Should the kill land inside the barrier itself,
        // the timeout IS the detection.
        try {
          world.barrier();
        } catch (const rt::TimeoutError&) {
        }

        // Keep the coupling streaming until the seeded kill fires. The
        // killed rank unwinds with KilledError (propagates; the runtime
        // notes the death); survivors fail a round with a typed error or
        // observe the universe's death flags.
        // Typed round failures are only a hint — chaos can fail a round
        // spuriously while everyone is still alive (and a rank that stops
        // making progress on a false alarm would freeze its own op clock,
        // so the seeded kill could never fire). The universe's death note
        // is the authoritative signal: stream until it appears. The killed
        // rank's own data_ready raises KilledError, which propagates.
        const auto stream_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(25);
        while (uni->dead() == 0 &&
               std::chrono::steady_clock::now() < stream_deadline) {
          if (side >= 0) {
            try {
              comp->data_ready("f");
            } catch (const core::TransferError&) {
            } catch (const rt::TimeoutError&) {
            }
          } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }
        ASSERT_GT(uni->dead(), 0)
            << "rank " << me << " never observed the seeded kill";

        // Two-phase rebuild + splice onto the new layout. Fresh arrays are
        // sentinel-filled: every correct element below was injected by the
        // recovery, and elements in regions the dead rank owned can only
        // come from the XOR rebuild.
        const int new_side = new_layout.side_of(me);
        std::unique_ptr<dad::DistArray<double>> next;
        std::vector<core::FieldRegistration> regs;
        if (new_side >= 0) {
          const auto& ranks = new_layout.side(new_side);
          next = std::make_unique<dad::DistArray<double>>(
              desc_for(new_side, static_cast<int>(ranks.size())),
              index_in(ranks, me));
          next->fill(sentinel_at);
          regs.push_back(
              core::make_field("f", next.get(), core::AccessMode::ReadWrite));
        }
        const auto rs =
            group.recover(new_layout, std::move(regs), /*timeout_ms=*/8000,
                          /*max_retries=*/8);
        out.rebuilt_ranks.fetch_add(1);
        EXPECT_EQ(rs.dead_channel_ranks, std::vector<int>{2});
        out.rebuilt_bytes.fetch_add(rs.rebuilt_bytes);
        EXPECT_FALSE(group.encoded());  // the epoch was spent

        arr = std::move(next);
        side = new_side;
        if (side >= 0) expect_exact(*arr);  // snapshot state restored

        // Resume the coupling on the spliced cohort: still element-exact.
        // Under chaos a source round commits almost every attempt (the
        // destinations ack each retry), but a destination round needs an
        // attempt where every source's commit lands inside one timeout
        // window — so sources must KEEP streaming until every member has
        // seen a committed round, or the destinations starve mid-retry.
        // Failed rounds leave the field untouched; committed rounds are
        // idempotent, so the last committed round determines the data.
        if (side >= 0) {
          const int members = static_cast<int>(new_layout.side0.size() +
                                               new_layout.side1.size());
          bool committed = false;
          const auto resume_deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (out.resumed.load() < members &&
                 std::chrono::steady_clock::now() < resume_deadline) {
            try {
              if (comp->data_ready("f") == 1 && !committed) {
                committed = true;
                out.resumed.fetch_add(1);
              }
            } catch (const core::TransferError&) {
            } catch (const rt::TimeoutError&) {
            }
          }
          EXPECT_TRUE(committed)
              << "rank " << me << ": no post-recovery round committed";
          expect_exact(*arr);
          bool exact = true;
          arr->for_each_owned([&](const Point& p, const double& v) {
            if (v != value_at(p)) exact = false;
          });
          if (exact) out.exact_ranks.fetch_add(1);
        }

        // Steering phase 2 across the recovery: exactly-once end to end.
        steer_phase(1);
      },
      {.deadlock_timeout_ms = 45000,
       // Wide enough that the splice-time subset() rendezvous tolerates the
       // skew ranks accumulate exiting the stream at different moments.
       .default_recv_timeout_ms = 12000,
       .faults = plan,
       .trace = true});
}

}  // namespace

TEST(RedundancyChaos, KillShrinkOntoSurvivorsUnderChaos) {
  trace::set_enabled(true);
  ChaosOutcome out;
  const rt::FaultPlan plan{.seed = 11,
                           .drop = 0.02,
                           .dup = 0.08,
                           .reorder = 0.15,
                           .delay = 0.3,
                           .delay_ms = 2,
                           .kills = {{2, 200}},
                           .min_tag = 900};
  // The killed rank's KilledError is rethrown by spawn() after the
  // survivors finish — the run as a whole still "lost a rank".
  EXPECT_THROW(
      run_kill_rebuild_scenario(plan, core::Layout{{0, 1, 3}, {4, 5, 6}},
                                out),
      rt::KilledError);
  EXPECT_EQ(out.rebuilt_ranks.load(), 7);  // every live rank recovered
  EXPECT_EQ(out.exact_ranks.load(), 6);    // 3 + 3 members after the shrink
  EXPECT_GT(out.rebuilt_bytes.load(), 0u);
  EXPECT_EQ(out.executions.load(), 2 * kCallsPerPhase);
}

TEST(RedundancyChaos, KillReplaceWithSpectatorUnderChaos) {
  trace::set_enabled(true);
  ChaosOutcome out;
  const rt::FaultPlan plan{.seed = 23,
                           .drop = 0.02,
                           .dup = 0.08,
                           .reorder = 0.15,
                           .delay = 0.3,
                           .delay_ms = 2,
                           .kills = {{2, 200}},
                           .min_tag = 900};
  // Spectator 7 is admitted in the dead rank's place: the side keeps its
  // width, and the PRMI server lives on through its own promotion.
  EXPECT_THROW(
      run_kill_rebuild_scenario(plan, core::Layout{{0, 1, 3, 7}, {4, 5, 6}},
                                out),
      rt::KilledError);
  EXPECT_EQ(out.rebuilt_ranks.load(), 7);
  EXPECT_EQ(out.exact_ranks.load(), 7);  // 4 + 3 members after replacement
  EXPECT_GT(out.rebuilt_bytes.load(), 0u);
  EXPECT_EQ(out.executions.load(), 2 * kCallsPerPhase);
}

// ---------------------------------------------------------------------------
// Over-tolerance and no-epoch failures: typed, never a hang
// ---------------------------------------------------------------------------

TEST(RedundancyChaos, TwoDeathsInOneGroupRaiseRebuildError) {
  // Ranks 1 and 2 share the first parity group ({0,1,2,3} at group_size=4):
  // XOR parity cannot reconstruct two missing stripes, so every live rank
  // must get a clean RebuildError from recover() — not a hang.
  std::atomic<int> rebuild_errors{0};
  const core::Layout layout{{0, 1, 2, 3}, {4, 5}};
  EXPECT_THROW(
      rt::spawn(
          6,
          [&](rt::Communicator& world) {
            const int me = world.rank();
            rt::Universe* uni = world.universe();
            auto comp = core::make_elastic_mxn(world, layout);
            const int side = layout.side_of(me);
            const auto& ranks = layout.side(side);
            dad::DistArray<double> arr(
                desc_for(side, static_cast<int>(ranks.size())),
                index_in(ranks, me));
            if (side == 0) arr.fill(value_at);
            comp->register_field(
                core::make_field("f", &arr, core::AccessMode::ReadWrite));
            core::ConnectionSpec spec;
            spec.src_field = spec.dst_field = "f";
            spec.src_side = 0;
            spec.one_shot = false;
            spec.reliable = true;
            spec.timeout_ms = 150;
            spec.max_retries = 4;
            comp->establish(spec);

            red::RedundancyGroup group(
                comp, {.group_size = 4, .timeout_ms = 3000, .max_retries = 6});
            group.encode();
            try {
              world.barrier();
            } catch (const rt::TimeoutError&) {
            }

            // Stream until BOTH seeded kills have landed.
            for (int round = 0; round < 300 && uni->dead() < 2; ++round) {
              try {
                comp->data_ready("f");
              } catch (const core::TransferError&) {
              } catch (const rt::TimeoutError&) {
              }
            }
            for (int i = 0; i < 15000 && uni->dead() < 2; ++i)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ASSERT_EQ(uni->dead(), 2);

            std::vector<core::FieldRegistration> regs;
            const core::Layout shrunk{{0, 3}, {4, 5}};
            const int new_side = shrunk.side_of(me);
            std::unique_ptr<dad::DistArray<double>> holder;
            if (new_side >= 0) {
              const auto& nr = shrunk.side(new_side);
              holder = std::make_unique<dad::DistArray<double>>(
                  desc_for(new_side, static_cast<int>(nr.size())),
                  index_in(nr, me));
              regs.push_back(core::make_field("f", holder.get(),
                                              core::AccessMode::ReadWrite));
            }
            try {
              group.recover(shrunk, std::move(regs), 8000, 4);
              ADD_FAILURE() << "recover() reconstructed an unrecoverable "
                               "loss on rank "
                            << me;
            } catch (const red::RebuildError&) {
              rebuild_errors.fetch_add(1);
            }
          },
          {.deadlock_timeout_ms = 30000,
           .default_recv_timeout_ms = 3000,
           .faults = rt::FaultPlan{.seed = 3,
                                   .kills = {{1, 220}, {2, 260}},
                                   .min_tag = 900}}),
      rt::KilledError);
  EXPECT_EQ(rebuild_errors.load(), 4);
}

TEST(RedundancyChaos, RecoverWithoutEncodeRaisesRebuildError) {
  // A rank died but encode() was never run: there is no epoch to rebuild
  // from, and recover() must say so typed on every live rank.
  std::atomic<int> rebuild_errors{0};
  const core::Layout layout{{0, 1}, {2, 3}};
  EXPECT_THROW(
      rt::spawn(
          4,
          [&](rt::Communicator& world) {
            const int me = world.rank();
            rt::Universe* uni = world.universe();
            auto comp = core::make_elastic_mxn(world, layout);
            const int side = layout.side_of(me);
            const auto& ranks = layout.side(side);
            dad::DistArray<double> arr(
                desc_for(side, static_cast<int>(ranks.size())),
                index_in(ranks, me));
            if (side == 0) arr.fill(value_at);
            comp->register_field(
                core::make_field("f", &arr, core::AccessMode::ReadWrite));
            core::ConnectionSpec spec;
            spec.src_field = spec.dst_field = "f";
            spec.src_side = 0;
            spec.one_shot = false;
            spec.reliable = true;
            spec.timeout_ms = 150;
            spec.max_retries = 4;
            comp->establish(spec);

            red::RedundancyGroup group(comp, {.group_size = 2});
            try {
              world.barrier();
            } catch (const rt::TimeoutError&) {
            }
            for (int round = 0; round < 300 && uni->dead() == 0; ++round) {
              try {
                comp->data_ready("f");
              } catch (const core::TransferError&) {
              } catch (const rt::TimeoutError&) {
              }
            }
            for (int i = 0; i < 15000 && uni->dead() == 0; ++i)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ASSERT_GT(uni->dead(), 0);

            const core::Layout shrunk{{0}, {2, 3}};
            std::vector<core::FieldRegistration> regs;
            const int new_side = shrunk.side_of(me);
            std::unique_ptr<dad::DistArray<double>> holder;
            if (new_side >= 0) {
              const auto& nr = shrunk.side(new_side);
              holder = std::make_unique<dad::DistArray<double>>(
                  desc_for(new_side, static_cast<int>(nr.size())),
                  index_in(nr, me));
              regs.push_back(core::make_field("f", holder.get(),
                                              core::AccessMode::ReadWrite));
            }
            try {
              group.recover(shrunk, std::move(regs), 8000, 4);
              ADD_FAILURE() << "recover() without an encode epoch succeeded "
                               "on rank "
                            << me;
            } catch (const red::RebuildError&) {
              rebuild_errors.fetch_add(1);
            }
          },
          {.deadlock_timeout_ms = 30000,
           .default_recv_timeout_ms = 3000,
           .faults = rt::FaultPlan{.kills = {{1, 120}}}}),
      rt::KilledError);
  EXPECT_EQ(rebuild_errors.load(), 3);
}
