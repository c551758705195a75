// Zero-copy data plane, priced (docs/PERFORMANCE.md): the same M x N
// redistribution run two ways in one binary.
//
//   legacy    — the pre-pool discipline: every send packs into a freshly
//               allocated vector, receives drain in fixed schedule order,
//               and the receiver copies the payload out into a typed
//               staging vector before injecting. Two copies per element.
//   zero-copy — sched::execute: pack once into a pooled rt::Buffer that is
//               moved through the runtime, drain in arrival order, inject
//               straight from the received block. One copy per element.
//
// Reports the median and quartiles of single-transfer throughput (the two
// arms alternating rep by rep) and bytes_copied/element (the rt.bytes_copied
// counter, which counts payload construction and staging copies but not the
// final inject). A second table times bulk_stream's pipelined coupling and
// counts its messages per transfer; a third times transfers whose ranks
// hold thousands of patches, where a region copy that searched for its
// patch would cost O(regions x patches). Everything is also written to
// BENCH_redistribution.json for CI to check and archive.

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "rt/kernels.hpp"
#include "rt/runtime.hpp"
#include "sched/executor.hpp"
#include "trace/trace.hpp"

namespace dad = mxn::dad;
namespace sched = mxn::sched;
namespace rt = mxn::rt;
namespace trace = mxn::trace;
using dad::AxisDist;
using dad::Index;
using dad::Point;

namespace {

/// 3-D grid dims for p processes: factor p as close to a cube as possible
/// (same block decomposition bench_fig1_mxn uses).
std::array<int, 3> cube(int p) {
  for (int a = static_cast<int>(std::cbrt(double(p)) + 0.5); a >= 1; --a) {
    if (p % a) continue;
    const int rest = p / a;
    for (int b = static_cast<int>(std::sqrt(double(rest)) + 0.5); b >= 1; --b)
      if (rest % b == 0) return {a, b, rest / b};
  }
  return {1, 1, p};
}

/// The seed's executor, reconstructed for comparison: fresh allocation per
/// send, fixed-peer-order drain, and a typed staging copy on the receive
/// side. Exactly two counted copies per element.
void execute_legacy(const sched::RegionSchedule& s,
                    const dad::DistArray<double>* src_arr,
                    dad::DistArray<double>* dst_arr,
                    const sched::Coupling& c, int tag) {
  rt::Communicator channel = c.channel;
  for (const auto& pr : s.sends) {
    const std::size_t bytes =
        static_cast<std::size_t>(pr.elements) * sizeof(double);
    std::vector<std::byte> raw(bytes);  // fresh heap block every transfer
    double* out = reinterpret_cast<double*>(raw.data());
    Index off = 0;
    for (const auto& region : pr.regions) {
      src_arr->extract(region, out + off);
      off += region.volume();
    }
    rt::note_bytes_copied(bytes);  // copy 1: pack
    channel.send(c.dst_ranks.at(pr.peer), tag, rt::Buffer(std::move(raw)));
  }
  for (const auto& pr : s.recvs) {
    // Fixed order: blocks on the schedule's first peer even if others are
    // already queued.
    auto msg = channel.recv(c.src_ranks.at(pr.peer), tag, c.recv_timeout_ms);
    std::vector<double> vals(msg.payload.size() / sizeof(double));
    std::memcpy(vals.data(), msg.payload.data(), msg.payload.size());
    rt::note_bytes_copied(msg.payload.size());  // copy 2: staging
    Index off = 0;
    for (const auto& region : pr.regions) {
      dst_arr->inject(region, vals.data() + off);
      off += region.volume();
    }
  }
}

/// Warm-up and timed transfers per arm of every data-plane row.
constexpr int kWarmup = 3;
constexpr int kReps = 21;

std::uint64_t copied() { return trace::counter("rt.bytes_copied").value(); }

/// One arm of a data-plane row: seconds per transfer, and the counted
/// copies per element of one quiesced transfer.
struct Result {
  bench::Quartiles t;
  double copies_per_elem = 0;
};

/// Both arms of one M x N case in one spawn: each rep is one transfer on
/// every rank closed by a thread barrier, the arms alternating rep by rep
/// (bench::time_quartiles). Then every rank quiesces on the barrier around
/// one more transfer per arm, so the rt.bytes_copied delta rank 0 reads is
/// exactly that transfer's copies.
std::array<Result, 2> run_case(int m, int n, Index extent) {
  const auto gm = cube(m);
  const auto gn = cube(n);
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(extent, gm[0]), AxisDist::block(extent, gm[1]),
      AxisDist::block(extent, gm[2])});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(extent, gn[0]), AxisDist::block(extent, gn[1]),
      AxisDist::block(extent, gn[2])});
  const double bytes = double(extent) * extent * extent * sizeof(double);

  std::array<Result, 2> res;
  std::barrier<> gate(m + n);
  rt::SpawnOptions opts;
  opts.deadlock_timeout_ms = 60000;
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill([](const Point& p) { return double(p[0] + p[1] + p[2]); });
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);
    auto s = sched::build_region_schedule(*src, *dst, ms, md);
    const std::array<std::function<void()>, 2> arms = {
        bench::closed_by(gate,
                         [&] { execute_legacy(s, a.get(), b.get(), c, 5); }),
        bench::closed_by(gate, [&] {
          sched::execute<double>(s, a.get(), b.get(), c, 5);
        })};
    const auto t = bench::time_quartiles(kWarmup, kReps, {arms[0], arms[1]});
    for (std::size_t arm = 0; arm < arms.size(); ++arm) {
      gate.arrive_and_wait();
      const auto before = copied();
      gate.arrive_and_wait();
      arms[arm]();
      if (world.rank() == 0)
        res[arm] = {t[arm], double(copied() - before) / bytes};
    }
  }, opts);
  return res;
}

// ---------------------------------------------------------------------------
// Pipelined transfers on bulk_stream's shape
// ---------------------------------------------------------------------------

/// bulk_stream's coupling (perfbench): 2 -> 2, 512 x 512 doubles, row blocks
/// to block-cyclic columns of 8. Each source sends each destination 512 KiB
/// in 16 KiB regions, so every peer payload is cut into chunks of
/// sched::kChunkBytes.
struct PipelinedRow {
  int m = 2, n = 2;
  Index extent = 512, col_block = 8;
  bench::Quartiles t;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

PipelinedRow run_pipelined() {
  PipelinedRow row;
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(row.extent, row.m), AxisDist::collapsed(row.extent)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(row.extent),
      AxisDist::block_cyclic(row.extent, row.n, row.col_block)});
  const auto value = [](const Point& p) { return 1000.0 * p[0] + p[1]; };
  std::barrier<> gate(row.m + row.n);
  std::atomic<long> wrong = 0;
  rt::spawn(row.m + row.n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, row.m, row.n);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill(value);
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);
    auto s = sched::build_region_schedule(*src, *dst, ms, md);
    const auto xfer = bench::closed_by(
        gate, [&] { sched::execute<double>(s, a.get(), b.get(), c, 5); });
    const auto t = bench::time_quartiles(kWarmup, 101, {xfer});
    gate.arrive_and_wait();
    const auto before = world.stats();
    gate.arrive_and_wait();
    xfer();
    if (world.rank() == 0) {
      const auto delta = world.stats() - before;
      row.t = t[0];
      row.msgs = delta.messages;
      row.bytes = delta.bytes;
    }
    if (md >= 0)
      b->for_each_owned([&](const Point& p, const double& v) {
        if (v != value(p)) ++wrong;
      });
  });
  if (wrong != 0) {
    std::fprintf(stderr, "pipelined row: %ld elements differ\n",
                 wrong.load());
    std::exit(1);
  }
  return row;
}

// ---------------------------------------------------------------------------
// Many-patch transfers
// ---------------------------------------------------------------------------

/// 2 -> 2, `n` doubles, cyclic sources to block destinations: each source
/// rank holds n/2 one-element patches, so each transfer moves n regions.
/// Every region names its patch (sched::Region), so the time per transfer
/// should grow linearly in n.
struct ManyPatchRow {
  Index n = 0;
  bench::Quartiles t;
};

ManyPatchRow run_many_patch(Index n) {
  constexpr int kM = 2, kN = 2;
  ManyPatchRow row{n, {}};
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(n, kM)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::block(n, kN)});
  const auto value = [](const Point& p) { return 0.5 * double(p[0]) + 1.0; };
  std::barrier<> gate(kM + kN);
  std::atomic<long> wrong = 0;
  rt::spawn(kM + kN, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, kM, kN);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill(value);
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);
    auto s = sched::build_region_schedule(*src, *dst, ms, md);
    const auto xfer = bench::closed_by(
        gate, [&] { sched::execute<double>(s, a.get(), b.get(), c, 5); });
    const auto t = bench::time_quartiles(kWarmup, kReps, {xfer});
    if (world.rank() == 0) row.t = t[0];
    if (md >= 0)
      b->for_each_owned([&](const Point& p, const double& v) {
        if (v != value(p)) ++wrong;
      });
  });
  if (wrong != 0) {
    std::fprintf(stderr, "many-patch row n=%lld: %ld elements differ\n",
                 static_cast<long long>(n), wrong.load());
    std::exit(1);
  }
  return row;
}

// ---------------------------------------------------------------------------
// Strided pack/unpack kernels vs the retained scalar reference
// ---------------------------------------------------------------------------

/// Single-threaded throughput of the kernel path against the pre-PR scalar
/// loops (pack_segments_scalar / unpack_segments_scalar) over the exact
/// segment shapes a 16x16 cyclic / block-cyclic redistribution hands the
/// executor. The kernel arm measures steady state — the plan is compiled
/// once (sched::compile_run_plan) and replayed per rep, exactly what the
/// mct Router/Rearranger do with their fixed schedules — while the scalar
/// arm pays the pre-PR per-transfer segment walk. Both arms run through
/// bench::time_quartiles, alternating pass by pass, and report the median
/// and quartiles of their per-pass throughput. Deterministic enough to gate
/// in CI: the kernel path must never be slower than the scalar reference.
struct KernelCase {
  const char* name;
  bench::Quartiles scalar;  // Melem/s; q1 is the slower quartile
  bench::Quartiles kernel;
  double speedup = 0;
};

/// Turn per-pass times of `elems` elements into Melem/s quartiles.
bench::Quartiles melem_s(double elems, const bench::Quartiles& t) {
  return {elems / t.q3 / 1e6, elems / t.median / 1e6, elems / t.q1 / 1e6};
}

KernelCase kernel_case(const char* name, double elems,
                       const std::function<void()>& scalar_arm,
                       const std::function<void()>& kernel_arm, int reps) {
  const auto t = bench::time_quartiles(5, reps, {scalar_arm, kernel_arm});
  KernelCase kc{name, melem_s(elems, t[0]), melem_s(elems, t[1])};
  kc.speedup = kc.kernel.median / kc.scalar.median;
  return kc;
}

KernelCase run_kernel_case(const char* name, Index block_len,
                           Index block_stride, bool owner_side = false) {
  namespace linear = mxn::linear;
  // Cache-resident, like the real thing: a rank's footprint in the 16x16
  // redistribution above is ~100 KiB, not tens of MiB — at DRAM-spilling
  // sizes every stride-16 element drags a whole cache line through the
  // memory bus and any copy strategy converges to the same bandwidth wall.
  const Index total = Index{1} << 16;  // 64K doubles = 512 KiB

  std::vector<linear::ProvenancedSegment> prov;
  std::vector<linear::Segment> segs;
  for (Index lo = 0; lo + block_len <= total; lo += block_stride)
    segs.push_back({lo, lo + block_len});
  Index elems = 0;
  for (const auto& s : segs) elems += s.hi - s.lo;
  if (owner_side) {
    // The cyclic OWNER's view: its footprint is the requested unit segments
    // themselves, stored contiguously — the coalescer must fuse the whole
    // transfer into one memcpy where the scalar loop issues one tiny memcpy
    // per segment.
    Index off = 0;
    for (const auto& s : segs) {
      linear::ProvenancedSegment ps;
      ps.seg = s;
      ps.storage_offset = off;
      ps.storage_stride = 1;
      prov.push_back(ps);
      off += s.hi - s.lo;
    }
  } else {
    // The block peer's view of a cyclic/block-cyclic exchange: one
    // contiguous local footprint, the peer's elements strewn across it in
    // `block_len` blocks every `block_stride` elements.
    linear::ProvenancedSegment ps;
    ps.seg = {0, total};
    ps.storage_offset = 0;
    ps.storage_stride = 1;
    prov.push_back(ps);
  }

  std::vector<double> storage(static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < storage.size(); ++i)
    storage[i] = double(i) * 0.5;
  std::vector<double> buf(static_cast<std::size_t>(elems));

  // Enough passes that each arm runs for milliseconds (one pass at
  // cache-resident sizes is a few microseconds).
  const int reps = static_cast<int>(std::max<Index>(101, 4'000'000 / elems));
  const bool unpacking = name[0] == 'u';
  const mxn::rt::kernels::RunPlan plan = sched::compile_run_plan(prov, segs);
  return kernel_case(
      name, double(elems),
      [&] {
        if (unpacking)
          sched::unpack_segments_scalar<double>(prov, segs, storage.data(),
                                                buf.data());
        else
          sched::pack_segments_scalar<double>(prov, segs, storage.data(),
                                              buf.data());
      },
      [&] {
        if (unpacking)
          plan.scatter(storage.data(), buf.data(), sizeof(double));
        else
          plan.gather(storage.data(), buf.data(), sizeof(double));
      },
      reps);
}

/// bulk_stream's source side as a region copy: a 256x512-double row block
/// cut into 8-column regions, each region a 256-row train of 64-byte rows.
/// The scalar arm is the per-row memcpy walk region copies used before
/// dad::gather_region/scatter_region emitted each region as one train.
KernelCase run_region_case(const char* name, bool unpacking) {
  constexpr Index kRows = 256, kCols = 512, kColBlock = 8;
  const dad::Patch owned =
      dad::Patch::make(2, Point{0, 0}, Point{kRows, kCols});
  std::vector<dad::Patch> regions;
  for (Index c = 0; c < kCols; c += kColBlock)
    regions.push_back(
        dad::Patch::make(2, Point{0, c}, Point{kRows, c + kColBlock}));
  std::vector<double> storage(static_cast<std::size_t>(kRows * kCols));
  for (std::size_t i = 0; i < storage.size(); ++i)
    storage[i] = double(i) * 0.5;
  std::vector<double> buf(storage.size());
  auto per_row = [&] {
    auto* b = reinterpret_cast<std::byte*>(buf.data());
    for (const auto& r : regions) {
      const auto row_bytes =
          static_cast<std::size_t>(r.extent(1)) * sizeof(double);
      for (Point row = r.lo; row[0] < r.hi[0]; ++row[0], b += row_bytes) {
        auto* s = reinterpret_cast<std::byte*>(storage.data() +
                                               owned.offset_of(row));
        if (unpacking)
          std::memcpy(s, b, row_bytes);
        else
          std::memcpy(b, s, row_bytes);
      }
    }
  };
  auto trains = [&] {
    double* b = buf.data();
    for (const auto& r : regions) {
      if (unpacking)
        dad::scatter_region(owned, 0, r, storage.data(), b, sizeof(double));
      else
        dad::gather_region(owned, 0, r, storage.data(), b, sizeof(double));
      b += r.volume();
    }
  };
  return kernel_case(name, static_cast<double>(storage.size()), per_row,
                     trains, 151);
}

}  // namespace

int main() {
  std::printf("=== Redistribution data plane: legacy copy path vs "
              "zero-copy pooled buffers ===\n");
  const Index extent = 24;  // 24^3 doubles = 110 KiB
  struct Case { int m, n; };
  // The last two rows put 64 and 128 rank threads on the data plane — the
  // configurations the sharded mailbox and kernel dispatch are sized for.
  const std::vector<Case> cases = {{4, 3}, {8, 2}, {16, 16}, {32, 32},
                                   {64, 64}};
  struct Row { int m, n; Result before, after; };
  std::vector<Row> rows;
  const double elements = double(extent) * extent * extent;
  const auto melem_s = [&](double seconds) {
    return bench::fmt("%.2f", elements / seconds / 1e6);
  };
  bench::Table t({"M", "N", "elements", "legacy_Melem/s", "zerocopy_Melem/s",
                  "zerocopy_q1", "zerocopy_q3", "legacy_copies/elem",
                  "zerocopy_copies/elem", "copy_ratio"});
  for (const auto& cs : cases) {
    const auto arms = run_case(cs.m, cs.n, extent);
    const Row r{cs.m, cs.n, arms[0], arms[1]};
    rows.push_back(r);
    t.row({std::to_string(r.m), std::to_string(r.n),
           std::to_string(extent * extent * extent),
           melem_s(r.before.t.median), melem_s(r.after.t.median),
           melem_s(r.after.t.q3), melem_s(r.after.t.q1),
           bench::fmt("%.2f", r.before.copies_per_elem),
           bench::fmt("%.2f", r.after.copies_per_elem),
           bench::fmt("%.2fx",
                      r.before.copies_per_elem / r.after.copies_per_elem)});
  }
  t.print();
  std::printf("\nMedian throughput of %d single transfers per arm (arms "
              "alternating rep by rep, %d warm-ups; q1 slower, q3 faster). "
              "Shape check: the zero-copy path performs exactly one counted "
              "copy per element (the pack); the legacy path two (pack + "
              "receive staging). The ratio must be >= 2.0x.\n",
              kReps, kWarmup);

  std::printf("\n=== Pipelined transfer: bulk_stream's shape (chunk = %zu "
              "KiB) ===\n",
              sched::kChunkBytes >> 10);
  const PipelinedRow pipe = run_pipelined();
  bench::Table pt({"M", "N", "field", "col_block", "us", "q1_us", "q3_us",
                   "msgs/xfer", "bytes/xfer"});
  pt.row({std::to_string(pipe.m), std::to_string(pipe.n),
          std::to_string(pipe.extent) + "x" + std::to_string(pipe.extent),
          std::to_string(pipe.col_block), bench::fmt_us(pipe.t.median),
          bench::fmt_us(pipe.t.q1), bench::fmt_us(pipe.t.q3),
          std::to_string(pipe.msgs), std::to_string(pipe.bytes)});
  pt.print();
  std::printf("\nMedian and quartiles of 101 single transfers, each closed "
              "by a thread barrier. CI checks msgs/xfer against the "
              "closed-form chunk count.\n");

  std::printf("\n=== Many-patch transfer: cyclic(n,2) -> block(n,2) "
              "doubles, 2 -> 2 ===\n");
  std::vector<ManyPatchRow> many;
  for (const Index n : {Index{4096}, Index{16384}, Index{65536}})
    many.push_back(run_many_patch(n));
  bench::Table mt({"n", "patches/rank", "us", "q1_us", "q3_us", "vs_4096"});
  for (const auto& r : many)
    mt.row({std::to_string(r.n), std::to_string(r.n / 2),
            bench::fmt_us(r.t.median), bench::fmt_us(r.t.q1),
            bench::fmt_us(r.t.q3),
            bench::fmt("%.1fx", r.t.median / many.front().t.median)});
  mt.print();
  std::printf("\nMedian and quartiles of %d single transfers per n, each "
              "closed by a thread barrier, data checked exact. Linear "
              "scaling reads 16x at n = 65536; CI gates it at <= 64x.\n",
              kReps);

  std::printf("\n=== Strided pack/unpack kernels vs scalar reference "
              "(isa=%s) ===\n",
              mxn::rt::kernels::isa_name(mxn::rt::kernels::active_isa()));
  const std::vector<KernelCase> kcases = {
      run_kernel_case("pack_cyclic16", 1, 16),
      run_kernel_case("unpack_cyclic16", 1, 16),
      run_kernel_case("pack_blockcyclic4x64", 4, 64),
      run_kernel_case("unpack_blockcyclic4x64", 4, 64),
      run_kernel_case("pack_cyclic_owner_memcpy", 1, 16, /*owner_side=*/true),
      run_region_case("extract_rowblock_to_cols8", /*unpacking=*/false),
      run_region_case("inject_rowblock_to_cols8", /*unpacking=*/true),
  };
  bench::Table kt({"pattern", "scalar_Melem/s", "kernel_Melem/s",
                   "kernel_q1", "kernel_q3", "speedup"});
  for (const auto& kc : kcases)
    kt.row({kc.name, bench::fmt("%.1f", kc.scalar.median),
            bench::fmt("%.1f", kc.kernel.median),
            bench::fmt("%.1f", kc.kernel.q1), bench::fmt("%.1f", kc.kernel.q3),
            bench::fmt("%.2fx", kc.speedup)});
  kt.print();
  std::printf("\nMedian and quartiles (q1 slower, q3 faster) of per-pass "
              "throughput; speedup is the ratio of medians. CI gates on "
              "speedup >= 1.0 for every pattern (the kernels must never lose "
              "to the scalar loops) and on the memcpy and block-train "
              "counters being exercised.\n");

  std::FILE* f = std::fopen("BENCH_redistribution.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_redistribution.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"redistribution\",\n"
                  "  \"extent\": %d,\n  \"reps\": %d,\n  \"cases\": [\n",
               int(extent), kReps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"m\": %d, \"n\": %d, \"elements\": %d,\n"
        "     \"legacy\": {\"elems_per_s\": %.0f, \"q1\": %.0f, "
        "\"q3\": %.0f, \"bytes_copied_per_elem\": %.2f},\n"
        "     \"zerocopy\": {\"elems_per_s\": %.0f, \"q1\": %.0f, "
        "\"q3\": %.0f, \"bytes_copied_per_elem\": %.2f},\n"
        "     \"copy_ratio\": %.2f}%s\n",
        r.m, r.n, int(extent * extent * extent),
        elements / r.before.t.median, elements / r.before.t.q3,
        elements / r.before.t.q1, r.before.copies_per_elem * sizeof(double),
        elements / r.after.t.median, elements / r.after.t.q3,
        elements / r.after.t.q1, r.after.copies_per_elem * sizeof(double),
        r.before.copies_per_elem / r.after.copies_per_elem,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"pipelined\": {\"m\": %d, \"n\": %d, \"extent\": %d, "
      "\"col_block\": %d, \"chunk_bytes\": %zu,\n"
      "    \"us\": %.1f, \"q1_us\": %.1f, \"q3_us\": %.1f, "
      "\"msgs_per_transfer\": %llu, \"bytes_per_transfer\": %llu},\n",
      pipe.m, pipe.n, int(pipe.extent), int(pipe.col_block),
      sched::kChunkBytes, pipe.t.median * 1e6, pipe.t.q1 * 1e6,
      pipe.t.q3 * 1e6, static_cast<unsigned long long>(pipe.msgs),
      static_cast<unsigned long long>(pipe.bytes));
  std::fprintf(f, "  \"many_patch\": {\"m\": 2, \"n\": 2, \"rows\": [\n");
  for (std::size_t i = 0; i < many.size(); ++i)
    std::fprintf(f,
                 "    {\"n\": %lld, \"patches_per_rank\": %lld, "
                 "\"us\": %.1f, \"q1_us\": %.1f, \"q3_us\": %.1f}%s\n",
                 static_cast<long long>(many[i].n),
                 static_cast<long long>(many[i].n / 2), many[i].t.median * 1e6,
                 many[i].t.q1 * 1e6, many[i].t.q3 * 1e6,
                 i + 1 < many.size() ? "," : "");
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"kernels\": {\n    \"isa\": \"%s\",\n    \"cases\": [\n",
               mxn::rt::kernels::isa_name(mxn::rt::kernels::active_isa()));
  for (std::size_t i = 0; i < kcases.size(); ++i) {
    const auto& kc = kcases[i];
    std::fprintf(f,
                 "      {\"pattern\": \"%s\", \"scalar_melem_s\": %.1f, "
                 "\"scalar_q1\": %.1f, \"scalar_q3\": %.1f, "
                 "\"kernel_melem_s\": %.1f, \"kernel_q1\": %.1f, "
                 "\"kernel_q3\": %.1f, \"speedup\": %.3f}%s\n",
                 kc.name, kc.scalar.median, kc.scalar.q1, kc.scalar.q3,
                 kc.kernel.median, kc.kernel.q1, kc.kernel.q3, kc.speedup,
                 i + 1 < kcases.size() ? "," : "");
  }
  std::fprintf(
      f,
      "    ],\n    \"counters\": {\"memcpy_bytes\": %llu, "
      "\"simd_bytes\": %llu}\n  }\n",
      static_cast<unsigned long long>(
          trace::counter("sched.kernel.memcpy_bytes").value()),
      static_cast<unsigned long long>(
          trace::counter("sched.kernel.simd_bytes").value()));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_redistribution.json\n");
  return 0;
}
