// Differential tests for the strided copy kernel layer (rt/kernels): the
// portable kernels must produce byte-identical results to the retained scalar
// reference (sched::pack_segments_scalar / unpack_segments_scalar) over
// randomized segment sets — strides 1..17, odd lengths, unaligned storage
// offsets, every element width the data plane moves. Also covers the run
// coalescer's promotion rules, the pooled-buffer alignment contract and
// payloads at any byte offset.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "rt/buffer.hpp"
#include "rt/kernels.hpp"
#include "sched/executor.hpp"
#include "trace/trace.hpp"

namespace rt = mxn::rt;
namespace sched = mxn::sched;
namespace trace = mxn::trace;
namespace kern = mxn::rt::kernels;
using mxn::linear::ProvenancedSegment;
using mxn::linear::Segment;

namespace {

/// A deliberately awkward element: 12 bytes, no SIMD lane width divides it.
struct Odd12 {
  std::uint32_t a, b, c;
  bool operator==(const Odd12&) const = default;
};

template <class T>
T element_of(std::uint64_t i) {
  if constexpr (std::is_same_v<T, Odd12>) {
    return Odd12{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i * 3 + 1),
                 static_cast<std::uint32_t>(i * 7 + 5)};
  } else if constexpr (std::is_same_v<T, double>) {
    return static_cast<double>(i) * 0.75 + 0.125;
  } else {
    return static_cast<T>(i * 2654435761u + 12345u);
  }
}

/// Random provenance tiling of the linear index space [0, total): contiguous
/// linear coverage, each piece with its own storage offset and stride in
/// 1..17 (non-overlapping storage, like a real footprint).
struct Layout {
  std::vector<ProvenancedSegment> prov;
  std::int64_t storage_elems = 0;
};

Layout random_layout(std::mt19937& rng, std::int64_t total) {
  std::uniform_int_distribution<std::int64_t> len_d(1, 37);
  std::uniform_int_distribution<std::int64_t> stride_d(1, 17);
  std::uniform_int_distribution<std::int64_t> gap_d(0, 5);
  Layout lay;
  std::int64_t lo = 0, storage = 0;
  while (lo < total) {
    ProvenancedSegment ps;
    const std::int64_t len = std::min(len_d(rng), total - lo);
    ps.seg = {lo, lo + len};
    storage += gap_d(rng);  // unaligned storage offsets on purpose
    ps.storage_offset = storage;
    ps.storage_stride = stride_d(rng);
    storage += len * ps.storage_stride;
    lay.prov.push_back(ps);
    lo += len;
  }
  lay.storage_elems = storage + 1;
  return lay;
}

/// Random ascending segment set inside [0, total).
std::vector<Segment> random_segments(std::mt19937& rng, std::int64_t total) {
  std::uniform_int_distribution<std::int64_t> len_d(1, 23);
  std::uniform_int_distribution<std::int64_t> gap_d(0, 11);
  std::vector<Segment> segs;
  std::int64_t lo = gap_d(rng);
  while (lo < total) {
    const std::int64_t hi = std::min(total, lo + len_d(rng));
    segs.push_back({lo, hi});
    lo = hi + gap_d(rng);
  }
  return segs;
}

template <class T>
void differential_round(std::mt19937& rng) {
  const std::int64_t total = 400;
  const Layout lay = random_layout(rng, total);
  const auto segs = random_segments(rng, total);
  std::int64_t elems = 0;
  for (const auto& s : segs) elems += s.hi - s.lo;
  if (elems == 0) return;

  std::vector<T> storage(static_cast<std::size_t>(lay.storage_elems));
  for (std::size_t i = 0; i < storage.size(); ++i)
    storage[i] = element_of<T>(i);

  // Pack: kernel output must be byte-identical to the scalar reference.
  std::vector<T> ref(static_cast<std::size_t>(elems));
  sched::pack_segments_scalar<T>(lay.prov, segs, storage.data(), ref.data());
  std::vector<T> out(static_cast<std::size_t>(elems), element_of<T>(999));
  sched::pack_segments<T>(lay.prov, segs, storage.data(), out.data());
  ASSERT_EQ(0, std::memcmp(out.data(), ref.data(),
                           out.size() * sizeof(T)));

  // A compiled plan must replay to the same bytes — twice, since reuse
  // across transfers is its whole point.
  const kern::RunPlan plan = sched::compile_run_plan(lay.prov, segs);
  for (int replay = 0; replay < 2; ++replay) {
    std::fill(out.begin(), out.end(), element_of<T>(999));
    plan.gather(storage.data(), out.data(), sizeof(T));
    ASSERT_EQ(0, std::memcmp(out.data(), ref.data(),
                             out.size() * sizeof(T)));
  }

  // Unpack: scatter the packed buffer into two fresh storages and compare.
  std::vector<T> st_ref(storage.size(), element_of<T>(777));
  std::vector<T> st_out(storage.size(), element_of<T>(777));
  sched::unpack_segments_scalar<T>(lay.prov, segs, st_ref.data(), ref.data());
  sched::unpack_segments<T>(lay.prov, segs, st_out.data(), ref.data());
  ASSERT_EQ(0, std::memcmp(st_out.data(), st_ref.data(),
                           st_out.size() * sizeof(T)));

  // Plan-replayed unpack, same oracle.
  std::fill(st_out.begin(), st_out.end(), element_of<T>(777));
  plan.scatter(st_out.data(), ref.data(), sizeof(T));
  ASSERT_EQ(0, std::memcmp(st_out.data(), st_ref.data(),
                           st_out.size() * sizeof(T)));
}

template <class T>
void run_differential_suite() {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 40; ++round) differential_round<T>(rng);
}

}  // namespace

// ---------------------------------------------------------------------------
// pack/unpack_segments vs the scalar reference, every width
// ---------------------------------------------------------------------------

TEST(KernelDifferential, Width1) { run_differential_suite<std::uint8_t>(); }
TEST(KernelDifferential, Width2) { run_differential_suite<std::uint16_t>(); }
TEST(KernelDifferential, Width4) { run_differential_suite<std::uint32_t>(); }
TEST(KernelDifferential, Width8) { run_differential_suite<std::uint64_t>(); }
TEST(KernelDifferential, WidthDouble) { run_differential_suite<double>(); }
TEST(KernelDifferential, Width12Odd) { run_differential_suite<Odd12>(); }

// Deterministic shapes that must hit each dispatch path: pure strided
// (cyclic), block train (block-cyclic), contiguous promotion.
TEST(KernelDifferential, EveryStride1To17) {
  for (std::int64_t stride = 1; stride <= 17; ++stride) {
    for (std::int64_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 101}) {
      ProvenancedSegment ps;
      ps.seg = {0, n};
      ps.storage_offset = 3;  // odd offset: never vector-aligned
      ps.storage_stride = stride;
      std::vector<ProvenancedSegment> prov{ps};
      std::vector<Segment> segs{{0, n}};
      std::vector<std::uint64_t> storage(
          static_cast<std::size_t>(3 + n * stride + 1));
      for (std::size_t i = 0; i < storage.size(); ++i)
        storage[i] = element_of<std::uint64_t>(i);
      std::vector<std::uint64_t> ref(static_cast<std::size_t>(n));
      std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
      sched::pack_segments_scalar<std::uint64_t>(prov, segs, storage.data(),
                                                 ref.data());
      sched::pack_segments<std::uint64_t>(prov, segs, storage.data(),
                                          out.data());
      ASSERT_EQ(out, ref) << "stride=" << stride << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// RunCoalescer promotion rules
// ---------------------------------------------------------------------------

namespace {

std::vector<kern::BlockRun> collect(
    const std::vector<std::array<std::int64_t, 3>>& adds) {
  std::vector<kern::BlockRun> runs;
  kern::RunCoalescer co(
      [](void* ctx, const kern::BlockRun& r) {
        static_cast<std::vector<kern::BlockRun>*>(ctx)->push_back(r);
      },
      &runs);
  for (const auto& a : adds) co.add(a[0], a[1], a[2]);
  co.flush();
  return runs;
}

}  // namespace

TEST(RunCoalescer, AdjacentContiguousRunsFuseIntoOneMemcpy) {
  // A cyclic footprint packed toward one block peer: unit segments whose
  // storage happens to be consecutive. One memcpy, not N.
  const auto runs = collect({{10, 1, 4}, {14, 1, 4}, {18, 1, 8}});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].storage_off, 10);
  EXPECT_EQ(runs[0].block_len, 16);
  EXPECT_EQ(runs[0].count, 1);
  EXPECT_EQ(runs[0].buf_off, 0);
}

TEST(RunCoalescer, EqualLengthConstantDeltaRunsFormABlockTrain) {
  // Block-cyclic: 4-element blocks every 12 elements.
  const auto runs = collect({{0, 1, 4}, {12, 1, 4}, {24, 1, 4}, {36, 1, 4}});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].block_len, 4);
  EXPECT_EQ(runs[0].block_stride, 12);
  EXPECT_EQ(runs[0].count, 4);
}

TEST(RunCoalescer, UnitRunsWithConstantDeltaBecomeAStridedRun) {
  // A block peer unpacking cyclic data: length-1 runs every k elements
  // degenerate into the strided gather/scatter kernels.
  const auto runs = collect({{5, 1, 1}, {8, 1, 1}, {11, 1, 1}, {14, 1, 1}});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].block_len, 1);
  EXPECT_EQ(runs[0].block_stride, 3);
  EXPECT_EQ(runs[0].count, 4);
}

TEST(RunCoalescer, StridedRunsMergeAcrossAddCalls) {
  // Two strided adds that continue the same lattice merge into one run.
  const auto runs = collect({{0, 5, 3}, {15, 5, 2}});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].block_stride, 5);
  EXPECT_EQ(runs[0].count, 5);
}

TEST(RunCoalescer, PatternBreaksEmitSeparateRuns) {
  const auto runs = collect({{0, 1, 4}, {12, 1, 5}, {100, 7, 3}});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].block_len, 4);
  EXPECT_EQ(runs[1].block_len, 5);
  EXPECT_EQ(runs[1].buf_off, 4);
  EXPECT_EQ(runs[2].block_stride, 7);
  EXPECT_EQ(runs[2].buf_off, 9);
}

// ---------------------------------------------------------------------------
// Dispatch accounting and alignment contract
// ---------------------------------------------------------------------------

TEST(KernelCounters, StridedTrafficLandsInTheKernelCounters) {
  const std::uint64_t simd0 = trace::counter("sched.kernel.simd_bytes").value();
  const std::uint64_t memcpy0 =
      trace::counter("sched.kernel.memcpy_bytes").value();

  std::vector<std::uint64_t> storage(1024);
  std::vector<std::uint64_t> buf(128);
  kern::BlockRun strided{0, 1, 7, 128, 0};
  kern::gather_run(storage.data(), buf.data(), sizeof(std::uint64_t), strided);
  kern::BlockRun contiguous{0, 128, 0, 1, 0};
  kern::gather_run(storage.data(), buf.data(), sizeof(std::uint64_t),
                   contiguous);

  EXPECT_EQ(trace::counter("sched.kernel.simd_bytes").value() - simd0,
            128u * 8u);  // strided bytes: a train of one-element blocks
  EXPECT_EQ(trace::counter("sched.kernel.memcpy_bytes").value() - memcpy0,
            128u * 8u);
}

TEST(KernelAlignment, PooledBuffersHonorTheKernelAlignmentContract) {
  // The alignment-aware entry points assume pool-served payloads are
  // kBufferAlign-aligned; assert it across every bucket size.
  for (std::size_t n : {1u, 64u, 65u, 4096u, 100000u}) {
    auto b = rt::Buffer::allocate(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % rt::kBufferAlign,
              0u)
        << "size " << n;
  }
}

namespace {

/// Pack and unpack through a payload that starts `offset` bytes into a
/// buffer, the way a header-framed sub-span or an adopted vector arrives:
/// both the replayed plan and the typed segment unpack must match the
/// scalar reference byte for byte.
template <class T>
void misaligned_round(std::mt19937& rng, std::size_t offset) {
  const std::int64_t total = 300;
  const Layout lay = random_layout(rng, total);
  const auto segs = random_segments(rng, total);
  std::int64_t elems = 0;
  for (const auto& s : segs) elems += s.hi - s.lo;
  const std::size_t bytes = static_cast<std::size_t>(elems) * sizeof(T);

  std::vector<T> storage(static_cast<std::size_t>(lay.storage_elems));
  for (std::size_t i = 0; i < storage.size(); ++i)
    storage[i] = element_of<T>(i);
  std::vector<T> ref(static_cast<std::size_t>(elems));
  sched::pack_segments_scalar<T>(lay.prov, segs, storage.data(), ref.data());
  std::vector<T> st_ref(storage.size(), element_of<T>(777));
  sched::unpack_segments_scalar<T>(lay.prov, segs, st_ref.data(), ref.data());

  std::vector<std::byte> raw(offset + bytes + 1);
  std::byte* payload = raw.data() + offset;
  sched::pack_segments<T>(lay.prov, segs, storage.data(), payload);
  ASSERT_EQ(0, std::memcmp(payload, ref.data(), bytes));

  const kern::RunPlan plan = sched::compile_run_plan(lay.prov, segs);
  std::vector<T> st_out(storage.size(), element_of<T>(777));
  plan.scatter(st_out.data(), payload, sizeof(T));
  ASSERT_EQ(0, std::memcmp(st_out.data(), st_ref.data(),
                           st_out.size() * sizeof(T)));

  std::fill(st_out.begin(), st_out.end(), element_of<T>(777));
  sched::unpack_segments<T>(lay.prov, segs, st_out.data(), payload);
  ASSERT_EQ(0, std::memcmp(st_out.data(), st_ref.data(),
                           st_out.size() * sizeof(T)));
}

}  // namespace

TEST(KernelAlignment, MisalignedPayloadsStayExact) {
  for (std::size_t offset : {1u, 4u, 12u}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::mt19937 rng(20261019);
    for (int round = 0; round < 8; ++round) {
      misaligned_round<std::uint32_t>(rng, offset);
      misaligned_round<double>(rng, offset);
      misaligned_round<Odd12>(rng, offset);
    }
  }
}
