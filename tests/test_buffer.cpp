// Tests for the zero-copy data plane (docs/PERFORMANCE.md): the pooled
// refcounted rt::Buffer (bucket reuse, adopt semantics, refcount release
// across rank threads — the latter is what the TSan CI job watches),
// O(1)-deep-copy shared-payload collectives, arrival-order schedule
// draining under seeded delay/reorder fault plans, and pipelined transfers
// (chunk counts, wire checks, exactness under chaos).

#include <gtest/gtest.h>

#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rt/buffer.hpp"
#include "rt/runtime.hpp"
#include "rt/serialize.hpp"
#include "sched/executor.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

namespace dad = mxn::dad;
namespace rt = mxn::rt;
namespace sched = mxn::sched;
namespace trace = mxn::trace;
using dad::AxisDist;
using dad::Index;
using dad::Point;

namespace {

std::uint64_t copied() { return trace::counter("rt.bytes_copied").value(); }
std::uint64_t pool_hits() { return trace::counter("rt.pool.hit").value(); }

}  // namespace

// ---------------------------------------------------------------------------
// Buffer + pool mechanics
// ---------------------------------------------------------------------------

TEST(Buffer, NullBufferIsEmpty) {
  rt::Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.use_count(), 0);
  EXPECT_FALSE(b.unique());
}

TEST(Buffer, AllocateIsUniqueAndWritable) {
  auto b = rt::Buffer::allocate(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(b.unique());
  std::memset(b.mutable_data(), 0x5a, b.size());
  EXPECT_EQ(static_cast<unsigned char>(b.span()[99]), 0x5au);
}

TEST(Buffer, AdoptingAVectorPreservesItsStorage) {
  std::vector<std::byte> v(1000, std::byte{7});
  const std::byte* storage = v.data();
  const auto before = copied();
  rt::Buffer b(std::move(v));
  EXPECT_EQ(b.data(), storage);  // zero copy: same heap block
  EXPECT_EQ(copied(), before);   // and nothing counted
  EXPECT_EQ(b.size(), 1000u);
}

TEST(Buffer, CopyOfCountsTheCopy) {
  std::vector<std::byte> v(512, std::byte{3});
  const auto before = copied();
  auto b = rt::Buffer::copy_of(v);
  EXPECT_EQ(copied(), before + 512);
  EXPECT_NE(b.data(), v.data());
  EXPECT_TRUE(std::memcmp(b.data(), v.data(), 512) == 0);
}

TEST(Buffer, RefcountSharingAndRelease) {
  auto a = rt::Buffer::allocate(64);
  rt::Buffer b = a;  // share
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_FALSE(a.unique());
  EXPECT_THROW((void)a.mutable_data(), rt::UsageError);
  b.reset();
  EXPECT_TRUE(a.unique());
  EXPECT_NO_THROW((void)a.mutable_data());
}

TEST(Buffer, PoolReusesBucketBlocks) {
  rt::buffer_pool_trim();
  const std::byte* first;
  {
    auto b = rt::Buffer::allocate(1000);  // 1 KiB bucket
    first = b.data();
  }  // released to the freelist
  const auto hits_before = pool_hits();
  auto b2 = rt::Buffer::allocate(900);  // same bucket, different size
  EXPECT_EQ(b2.data(), first);          // the very block came back
  EXPECT_EQ(b2.size(), 900u);
  EXPECT_EQ(pool_hits(), hits_before + 1);
}

TEST(Buffer, FreelistIsCapped) {
  rt::buffer_pool_trim();
  std::vector<rt::Buffer> live;
  for (int i = 0; i < 48; ++i) live.push_back(rt::Buffer::allocate(256));
  live.clear();  // all released at once; cap is 32 per bucket
  EXPECT_LE(rt::buffer_pool_stats().free_blocks, 32);
}

TEST(Buffer, OversizeAllocationsAreUnpooled) {
  rt::buffer_pool_trim();
  {
    auto jumbo = rt::Buffer::allocate((std::size_t{1} << 24) + 1);
    (void)jumbo;
  }
  EXPECT_EQ(rt::buffer_pool_stats().free_blocks, 0);  // not parked
}

TEST(Buffer, ViewChecksSizeAndTruncateRequiresSoleOwner) {
  auto b = rt::Buffer::allocate(24);
  EXPECT_EQ(b.view<double>().size(), 3u);
  EXPECT_THROW((void)rt::Buffer::allocate(25).view<double>(), rt::UsageError);
  b.truncate(16);
  EXPECT_EQ(b.size(), 16u);
  EXPECT_THROW(b.truncate(17), rt::UsageError);
  rt::Buffer shared = b;
  (void)shared;
  EXPECT_THROW(b.truncate(8), rt::UsageError);
}

TEST(Buffer, ToVectorIsACountedDeepCopy) {
  auto b = rt::Buffer::allocate(128);
  std::memset(b.mutable_data(), 0x11, 128);
  const auto before = copied();
  auto v = b.to_vector();
  EXPECT_EQ(copied(), before + 128);
  EXPECT_EQ(v.size(), 128u);
  EXPECT_NE(reinterpret_cast<const std::byte*>(v.data()), b.data());
}

// Length prefixes come off the wire: a hostile count must surface as the
// typed UsageError before anything is sized, allocated or reserved from it.
TEST(UnpackBuffer, HostileLengthPrefixesAreTypedErrors) {
  auto payload = [](std::uint64_t n) {
    rt::PackBuffer b;
    b.pack(n);
    b.pack(std::uint64_t{0});  // 8 bytes of "content"
    return std::move(b).take();
  };
  const auto huge_string = payload(~std::uint64_t{0});
  rt::UnpackBuffer s(huge_string);
  EXPECT_THROW((void)s.unpack_string(), rt::UsageError);

  // n * sizeof(double) wraps to 0 for n = 2^61.
  const auto wrapping_vector = payload(std::uint64_t{1} << 61);
  rt::UnpackBuffer v(wrapping_vector);
  EXPECT_THROW((void)v.unpack_vector<double>(), rt::UsageError);

  const auto huge_list = payload(std::uint64_t{1} << 40);
  rt::UnpackBuffer l(huge_list);
  EXPECT_THROW((void)l.unpack_string_vector(), rt::UsageError);

  const auto short_string = payload(9);
  rt::UnpackBuffer t(short_string);
  EXPECT_THROW((void)t.unpack_string(), rt::UsageError);

  // An honest prefix still decodes.
  rt::PackBuffer ok;
  ok.pack(std::vector<std::string>{"a", "bc"});
  const auto ok_bytes = std::move(ok).take();
  rt::UnpackBuffer o(ok_bytes);
  EXPECT_EQ(o.unpack_string_vector(), (std::vector<std::string>{"a", "bc"}));
  EXPECT_TRUE(o.empty());
}

// Blocks allocated on one rank thread are routinely released on another
// (receiver drops the payload) and then recycled by a third. TSan watches
// the refcount release and freelist handoff here.
TEST(Buffer, CrossThreadFreeAndRealloc) {
  rt::spawn(4, [](rt::Communicator& comm) {
    const int n = comm.size();
    for (int round = 0; round < 50; ++round) {
      auto b = rt::Buffer::allocate(4096);
      auto* p = reinterpret_cast<int*>(b.mutable_data());
      p[0] = comm.rank() * 1000 + round;
      comm.send((comm.rank() + 1) % n, 5, std::move(b));
      auto m = comm.recv((comm.rank() + n - 1) % n, 5);
      ASSERT_EQ(m.payload.view<int>()[0],
                ((comm.rank() + n - 1) % n) * 1000 + round);
    }
  });
}

// ---------------------------------------------------------------------------
// Move-through messaging and shared-payload collectives
// ---------------------------------------------------------------------------

TEST(ZeroCopy, SendMovesTheBlockToTheReceiver) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      auto b = rt::Buffer::allocate(256);
      const std::byte* block = b.data();
      std::memset(b.mutable_data(), 0x42, 256);
      const auto before = copied();
      comm.send(1, 3, std::move(b));
      EXPECT_EQ(copied(), before);  // the send itself copied nothing
      comm.send_value(1, 4, reinterpret_cast<std::uintptr_t>(block));
    } else {
      auto m = comm.recv(0, 3);
      const auto block = comm.recv_value<std::uintptr_t>(0, 4);
      // Same heap block end to end: producer's pack is the only copy ever.
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.payload.data()), block);
      EXPECT_EQ(static_cast<unsigned char>(m.payload.span()[255]), 0x42u);
    }
  });
}

// A bcast of a >1 MiB payload to 7 destinations must perform ZERO deep
// copies: every mailbox holds a reference to the root's block.
TEST(ZeroCopy, BcastSharesOnePayloadAcrossDestinations) {
  static constexpr std::size_t kBytes = 2 << 20;  // 2 MiB
  const auto before = copied();
  rt::spawn(8, [](rt::Communicator& comm) {
    rt::Buffer payload;
    if (comm.rank() == 0) {
      payload = rt::Buffer::allocate(kBytes);
      auto* p = reinterpret_cast<std::uint32_t*>(payload.mutable_data());
      for (std::size_t i = 0; i < kBytes / 4; ++i)
        p[i] = static_cast<std::uint32_t>(i);
    }
    auto got = comm.bcast(std::move(payload), 0);
    ASSERT_EQ(got.size(), kBytes);
    const auto words = got.view<std::uint32_t>();
    EXPECT_EQ(words[1], 1u);
    EXPECT_EQ(words[kBytes / 4 - 1], kBytes / 4 - 1);
    comm.barrier();
  });
  EXPECT_EQ(copied(), before) << "bcast deep-copied a shared payload";
}

// alltoall(v) where one rank fans the SAME >1 MiB block to every peer:
// O(1) deep copies (zero, in fact) regardless of the fan-out width.
TEST(ZeroCopy, AlltoallSharedPayloadIsNotDeepCopied) {
  static constexpr std::size_t kBytes = (1 << 20) + 512;  // > 1 MiB, odd size
  const auto before = copied();
  rt::spawn(4, [](rt::Communicator& comm) {
    auto block = rt::Buffer::allocate(kBytes);
    std::memset(block.mutable_data(), 0x80 + comm.rank(), kBytes);
    // Every outgoing entry references the same block.
    std::vector<rt::Buffer> out(comm.size(), block);
    auto in = comm.alltoall(std::move(out));
    for (int s = 0; s < comm.size(); ++s) {
      ASSERT_EQ(in[s].size(), kBytes);
      EXPECT_EQ(static_cast<unsigned char>(in[s].span()[kBytes - 1]),
                0x80u + s);
    }
    comm.barrier();
  });
  EXPECT_EQ(copied(), before) << "alltoall deep-copied shared payloads";
}

// ---------------------------------------------------------------------------
// Arrival-order schedule draining
// ---------------------------------------------------------------------------

namespace {

double tagged(const Point& p) { return 1000.0 * p[0] + p[1] + 0.25; }

/// 8x3 redistribution where each source sleeps a rank-staggered amount so
/// payloads arrive in an order unlike the schedule's peer order; the result
/// must still be exact. `plan` optionally adds seeded chaos on top.
void run_staggered_redistribution(std::optional<rt::FaultPlan> plan,
                                  bool stagger) {
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(24, 8), AxisDist::block(12, 1)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(24, 1), AxisDist::block(12, 3)});
  const int m = 8, n = 3;
  rt::SpawnOptions opts;
  opts.deadlock_timeout_ms = 20000;
  opts.faults = plan;
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank();
    const int md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill(tagged);
      // Later schedule peers send FIRST: reverse-staggered sleeps.
      if (stagger)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(5 * (m - ms)));
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);
    auto s = sched::build_region_schedule(*src, *dst, ms, md);
    sched::execute<double>(s, a.get(), b.get(), c, 7);
    if (md >= 0)
      b->for_each_owned([&](const Point& p, const double& v) {
        ASSERT_DOUBLE_EQ(v, tagged(p)) << "at " << p[0] << "," << p[1];
      });
  }, opts);
}

}  // namespace

TEST(ArrivalOrder, StaggeredSendersStillYieldExactResult) {
  run_staggered_redistribution(std::nullopt, /*stagger=*/true);
}

TEST(ArrivalOrder, SeededDelayPlanStillYieldsExactResult) {
  // Half the data messages delay their sender by 10 ms (deterministic in
  // the seed), scrambling arrival order relative to schedule order.
  run_staggered_redistribution(
      rt::FaultPlan{.seed = 99, .delay = 0.5, .delay_ms = 10},
      /*stagger=*/false);
}

TEST(ArrivalOrder, SeededReorderPlanStillYieldsExactResult) {
  run_staggered_redistribution(
      rt::FaultPlan{.seed = 1234, .reorder = 0.75}, /*stagger=*/false);
}

// Back-to-back transfers on the SAME tag: a fast peer's payload for
// transfer k+1 queues while transfer k is still draining. The owed-peer
// predicate must leave it queued for the next round — a bare any-source
// receive would consume it and corrupt both transfers.
TEST(ArrivalOrder, BackToBackTransfersOnOneTagStayAligned) {
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::block(40, 4)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::block(40, 2)});
  const int m = 4, n = 2;
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank();
    const int md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) a = std::make_unique<dad::DistArray<double>>(src, ms);
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);
    auto s = sched::build_region_schedule(*src, *dst, ms, md);
    for (int round = 0; round < 6; ++round) {
      if (ms >= 0) {
        a->fill([&](const Point& p) { return 100.0 * round + p[0]; });
        // Sources race ahead at wildly different speeds.
        std::this_thread::sleep_for(std::chrono::milliseconds(3 * ms));
      }
      sched::execute<double>(s, a.get(), b.get(), c, 7);
      if (md >= 0)
        b->for_each_owned([&](const Point& p, const double& v) {
          ASSERT_DOUBLE_EQ(v, 100.0 * round + p[0])
              << "round " << round << " at " << p[0];
        });
    }
  });
}

// ---------------------------------------------------------------------------
// Pipelined (chunked) transfers
// ---------------------------------------------------------------------------

namespace {

/// bulk_stream's shape: an n x n double field from 2 source ranks (row
/// blocks) to 2 destination ranks (block-cyclic columns of 8). At n = 512
/// each source sends each destination 32 regions of 16 KiB (512 KiB), well
/// above the split threshold; at n = 64 it sends 8 KiB, well below.
constexpr Index kBulkN = 512;
constexpr Index kBulkColBlock = 8;

struct BulkShape {
  dad::DescriptorPtr src, dst;
};

BulkShape bulk_shape(Index n) {
  return {dad::make_regular(std::vector<AxisDist>{AxisDist::block(n, 2),
                                                  AxisDist::collapsed(n)}),
          dad::make_regular(std::vector<AxisDist>{
              AxisDist::collapsed(n),
              AxisDist::block_cyclic(n, 2, kBulkColBlock)})};
}

/// Payload bytes one source sends one destination in the bulk shape.
std::size_t bulk_peer_bytes(Index n) {
  return static_cast<std::size_t>(n / 2) * static_cast<std::size_t>(n / 2) *
         sizeof(double);
}

/// Closed-form message count of one (source, destination) entry: one below
/// 2 * kChunkBytes; above it, a chunk closes at the first whole region at
/// or past kChunkBytes.
std::size_t bulk_chunks_per_peer(Index n) {
  if (bulk_peer_bytes(n) < 2 * sched::kChunkBytes) return 1;
  const std::size_t region =
      static_cast<std::size_t>(n / 2 * kBulkColBlock) * sizeof(double);
  const std::size_t regions = static_cast<std::size_t>(n / 2 / kBulkColBlock);
  const std::size_t per_chunk = (sched::kChunkBytes + region - 1) / region;
  return (regions + per_chunk - 1) / per_chunk;
}

double bulk_value(const Point& p, int round) {
  return 1e7 * round + 1000.0 * p[0] + p[1];
}

/// `rounds` back-to-back bulk transfers on one tag under `plan`; with
/// `race`, source 1 sleeps before each send so source 0 runs a transfer
/// ahead. Every destination element must be exact after every round.
void run_bulk(std::optional<rt::FaultPlan> plan, int rounds, bool race) {
  const BulkShape sh = bulk_shape(kBulkN);
  ASSERT_GT(bulk_chunks_per_peer(kBulkN), 1u);
  rt::SpawnOptions opts;
  opts.deadlock_timeout_ms = 20000;
  opts.faults = plan;
  rt::spawn(4, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 2, 2);
    const int ms = c.my_src_rank();
    const int md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) a = std::make_unique<dad::DistArray<double>>(sh.src, ms);
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(sh.dst, md);
    auto s = sched::build_region_schedule(*sh.src, *sh.dst, ms, md);
    for (int round = 0; round < rounds; ++round) {
      if (ms >= 0) {
        a->fill([&](const Point& p) { return bulk_value(p, round); });
        if (race && ms == 1)
          std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      sched::execute<double>(s, a.get(), b.get(), c, 7);
      if (md >= 0) {
        long wrong = 0;
        b->for_each_owned([&](const Point& p, const double& v) {
          if (v != bulk_value(p, round)) ++wrong;
        });
        ASSERT_EQ(wrong, 0) << "round " << round;
      }
    }
  }, opts);
}

}  // namespace

TEST(ChunkedTransfer, ExactUnderSeededReorderPlan) {
  run_bulk(rt::FaultPlan{.seed = 1234, .reorder = 0.75}, 1, false);
}

TEST(ChunkedTransfer, ExactUnderSeededDelayPlan) {
  run_bulk(rt::FaultPlan{.seed = 99, .delay = 0.5, .delay_ms = 5}, 1, false);
}

// A source running a transfer ahead queues chunks of transfer k+1 while
// transfer k is still draining; the owed-chunk predicate must leave them
// queued for the next round.
TEST(ChunkedTransfer, BackToBackTransfersOnOneTagStayAligned) {
  run_bulk(std::nullopt, 6, true);
}

// Every rank sends (sources) and receives (destinations) exactly the
// closed-form number of messages, and the wire carries the payload plus
// a 4-byte index per chunk message: none below the threshold.
TEST(ChunkedTransfer, MessageCountsMatchTheClosedForm) {
  for (const Index n : {kBulkN, Index{64}}) {
    const BulkShape sh = bulk_shape(n);
    const std::size_t per_peer = bulk_chunks_per_peer(n);
    const std::size_t header = per_peer > 1 ? sched::kChunkHeaderBytes : 0;
    std::barrier<> gate(4);
    rt::StatsSnapshot traffic;
    rt::spawn(4, [&](rt::Communicator& world) {
      auto c = sched::split_coupling(world, 2, 2);
      const int ms = c.my_src_rank();
      const int md = c.my_dst_rank();
      std::unique_ptr<dad::DistArray<double>> a, b;
      if (ms >= 0) {
        a = std::make_unique<dad::DistArray<double>>(sh.src, ms);
        a->fill([](const Point& p) { return bulk_value(p, 0); });
      }
      if (md >= 0) b = std::make_unique<dad::DistArray<double>>(sh.dst, md);
      auto s = sched::build_region_schedule(*sh.src, *sh.dst, ms, md);
      std::size_t packed = 0, unpacked = 0;
      gate.arrive_and_wait();
      const auto before = world.stats();
      gate.arrive_and_wait();
      sched::execute_bytes(
          s, sizeof(double), c, 7,
          [&](const sched::PeerRegions& pr, std::size_t first,
              std::size_t last, std::byte* out) {
            ++packed;
            sched::pack_regions(sched::chunk_items(pr, first, last),
                                a->storage(), out);
          },
          [&](const sched::PeerRegions& pr, std::size_t first,
              std::size_t last, std::span<const std::byte> in) {
            ++unpacked;
            sched::unpack_regions(sched::chunk_items(pr, first, last),
                                  b->storage(), in.data());
          });
      gate.arrive_and_wait();
      if (world.rank() == 0) traffic = world.stats() - before;
      EXPECT_EQ(packed, ms >= 0 ? 2 * per_peer : 0) << "n=" << n;
      EXPECT_EQ(unpacked, md >= 0 ? 2 * per_peer : 0) << "n=" << n;
      if (md >= 0)
        b->for_each_owned([&](const Point& p, const double& v) {
          ASSERT_EQ(v, bulk_value(p, 0));
        });
    });
    EXPECT_EQ(traffic.messages, 4 * per_peer) << "n=" << n;
    EXPECT_EQ(traffic.bytes, 4 * (bulk_peer_bytes(n) + per_peer * header))
        << "n=" << n;
  }
}

namespace {

/// Source 0 of the bulk shape sends destination 0 the messages `craft`
/// builds from the chunks that destination expects from it, in place of a
/// real transfer; destination 0's drain must raise UsageError.
void expect_chunks_rejected(
    const std::function<std::vector<rt::Buffer>(
        const std::vector<sched::Chunk>&)>& craft) {
  const BulkShape sh = bulk_shape(kBulkN);
  rt::spawn(4, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 2, 2);
    if (c.my_src_rank() == 0) {
      const auto s = sched::build_region_schedule(*sh.src, *sh.dst, -1, 0);
      std::vector<sched::Chunk> chunks;
      sched::for_each_chunk(s.recvs.at(0), sizeof(double),
                            [&](const sched::Chunk& ch) {
                              chunks.push_back(ch);
                            });
      ASSERT_GE(chunks.size(), 2u);
      for (auto& msg : craft(chunks))
        world.send(c.dst_ranks[0], 7, std::move(msg));
    } else if (c.my_dst_rank() == 0) {
      // A drain that accepts a bad chunk waits for more: time out typed
      // (rt::TimeoutError, not a UsageError) instead of hanging.
      c.recv_timeout_ms = 5000;
      dad::DistArray<double> b(sh.dst, 0);
      const auto s = sched::build_region_schedule(*sh.src, *sh.dst, -1, 0);
      EXPECT_THROW(sched::execute<double>(s, nullptr, &b, c, 7),
                   rt::UsageError);
    }
  });
}

/// A chunk message: its 4-byte index, then `bytes` payload bytes.
rt::Buffer chunk_msg(std::uint32_t index, std::size_t bytes) {
  rt::Buffer b = rt::Buffer::allocate(sched::kChunkHeaderBytes + bytes);
  std::memset(b.mutable_data(), 0, b.size());
  std::memcpy(b.mutable_data(), &index, sizeof index);
  return b;
}

std::size_t chunk_bytes(const sched::Chunk& ch) {
  return static_cast<std::size_t>(ch.elements) * sizeof(double);
}

}  // namespace

TEST(ChunkedTransfer, OutOfRangeChunkIndexIsRejected) {
  expect_chunks_rejected([](const std::vector<sched::Chunk>& chunks) {
    std::vector<rt::Buffer> out;
    out.push_back(chunk_msg(static_cast<std::uint32_t>(chunks.size()),
                            chunk_bytes(chunks[0])));
    return out;
  });
}

TEST(ChunkedTransfer, RepeatedChunkIndexIsRejected) {
  expect_chunks_rejected([](const std::vector<sched::Chunk>& chunks) {
    std::vector<rt::Buffer> out;
    out.push_back(chunk_msg(0, chunk_bytes(chunks[0])));
    out.push_back(chunk_msg(0, chunk_bytes(chunks[0])));
    return out;
  });
}

TEST(ChunkedTransfer, WrongChunkSizeIsRejected) {
  expect_chunks_rejected([](const std::vector<sched::Chunk>& chunks) {
    std::vector<rt::Buffer> out;
    out.push_back(chunk_msg(1, chunk_bytes(chunks[1]) - sizeof(double)));
    return out;
  });
}

TEST(ChunkedTransfer, MessageShorterThanItsHeaderIsRejected) {
  expect_chunks_rejected([](const std::vector<sched::Chunk>&) {
    std::vector<rt::Buffer> out;
    out.push_back(rt::Buffer::allocate(sched::kChunkHeaderBytes - 1));
    return out;
  });
}

// The typed segment executor compiles one copy plan per chunk: bulk_stream's
// shape, row-major on both sides, 8192 segments of 8 doubles per peer.
TEST(ChunkedTransfer, SegmentScheduleIsExact) {
  const BulkShape sh = bulk_shape(kBulkN);
  const auto l = mxn::linear::Linearization::row_major(
      2, Point{kBulkN, kBulkN});
  rt::spawn(4, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 2, 2);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    std::vector<mxn::linear::ProvenancedSegment> pa, pb;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(sh.src, ms);
      a->fill([](const Point& p) { return bulk_value(p, 3); });
      pa = mxn::linear::footprint_with_provenance(*sh.src, ms, l);
    }
    if (md >= 0) {
      b = std::make_unique<dad::DistArray<double>>(sh.dst, md);
      pb = mxn::linear::footprint_with_provenance(*sh.dst, md, l);
    }
    auto s = sched::build_segment_schedule(*sh.src, l, *sh.dst, l, ms, md);
    for (const auto& e : s.sends)
      ASSERT_TRUE(sched::splits(e, sizeof(double)));
    sched::execute<double>(s, a.get(), ms >= 0 ? &pa : nullptr, b.get(),
                           md >= 0 ? &pb : nullptr, c, 9);
    if (md >= 0) {
      long wrong = 0;
      b->for_each_owned([&](const Point& p, const double& v) {
        if (v != bulk_value(p, 3)) ++wrong;
      });
      EXPECT_EQ(wrong, 0);
    }
  });
}
