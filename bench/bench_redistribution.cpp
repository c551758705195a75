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
// Reports elements/sec and bytes_copied/element (the rt.bytes_copied
// counter, which counts payload construction and staging copies but not the
// final inject) and emits BENCH_redistribution.json for CI to archive.

#include <algorithm>
#include <cmath>
#include <cstdio>
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

struct Result {
  double elems_per_s = 0;
  double copies_per_elem = 0;  // bytes_copied / (elements * sizeof(double))
};

Result run_case(int m, int n, Index extent, bool legacy, int reps) {
  const auto gm = cube(m);
  const auto gn = cube(n);
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(extent, gm[0]), AxisDist::block(extent, gm[1]),
      AxisDist::block(extent, gm[2])});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(extent, gn[0]), AxisDist::block(extent, gn[1]),
      AxisDist::block(extent, gn[2])});
  const double elements = double(extent) * extent * extent;

  double seconds = 0;
  const auto copied0 = trace::counter("rt.bytes_copied").value();
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

    // Warm up (populates the buffer pool on the zero-copy path).
    if (legacy)
      execute_legacy(s, a.get(), b.get(), c, 5);
    else
      sched::execute<double>(s, a.get(), b.get(), c, 5);
    world.barrier();
    const double t0 = bench::now_s();
    for (int r = 0; r < reps; ++r) {
      if (legacy)
        execute_legacy(s, a.get(), b.get(), c, 5);
      else
        sched::execute<double>(s, a.get(), b.get(), c, 5);
    }
    world.barrier();
    if (world.rank() == 0) seconds = bench::now_s() - t0;
  }, opts);

  Result res;
  res.elems_per_s = elements * reps / seconds;
  const auto copied = trace::counter("rt.bytes_copied").value() - copied0;
  // The warm-up rep also counted: reps + 1 transfers of `elements` doubles.
  res.copies_per_elem =
      double(copied) / ((reps + 1) * elements * sizeof(double));
  return res;
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
  const int reps = 5;
  struct Case { int m, n; };
  // The last two rows put 64 and 128 rank threads on the data plane — the
  // configurations the sharded mailbox and kernel dispatch are sized for.
  const std::vector<Case> cases = {{4, 3}, {8, 2}, {16, 16}, {32, 32},
                                   {64, 64}};
  struct Row { int m, n; Result before, after; };
  std::vector<Row> rows;
  bench::Table t({"M", "N", "elements", "legacy_Melem/s", "zerocopy_Melem/s",
                  "legacy_copies/elem", "zerocopy_copies/elem", "copy_ratio"});
  for (const auto& cs : cases) {
    Row r{cs.m, cs.n, run_case(cs.m, cs.n, extent, /*legacy=*/true, reps),
          run_case(cs.m, cs.n, extent, /*legacy=*/false, reps)};
    rows.push_back(r);
    t.row({std::to_string(r.m), std::to_string(r.n),
           std::to_string(extent * extent * extent),
           bench::fmt("%.2f", r.before.elems_per_s / 1e6),
           bench::fmt("%.2f", r.after.elems_per_s / 1e6),
           bench::fmt("%.2f", r.before.copies_per_elem),
           bench::fmt("%.2f", r.after.copies_per_elem),
           bench::fmt("%.2fx",
                      r.before.copies_per_elem / r.after.copies_per_elem)});
  }
  t.print();
  std::printf("\nShape check: the zero-copy path performs exactly one "
              "counted copy per element (the pack); the legacy path two "
              "(pack + receive staging). The ratio must be >= 2.0x.\n");

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
               int(extent), reps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"m\": %d, \"n\": %d, \"elements\": %d,\n"
        "     \"legacy\": {\"elems_per_s\": %.0f, "
        "\"bytes_copied_per_elem\": %.2f},\n"
        "     \"zerocopy\": {\"elems_per_s\": %.0f, "
        "\"bytes_copied_per_elem\": %.2f},\n"
        "     \"copy_ratio\": %.2f}%s\n",
        r.m, r.n, int(extent * extent * extent), r.before.elems_per_s,
        r.before.copies_per_elem * sizeof(double), r.after.elems_per_s,
        r.after.copies_per_elem * sizeof(double),
        r.before.copies_per_elem / r.after.copies_per_elem,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
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
