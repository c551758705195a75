// §4.5 reproduction: MCT's higher-level coupling machinery.
//  (a) Router throughput between components of different sizes, single vs
//      multi-field AttrVects (the multi-field batching MCT advertises);
//  (b) interpolation as distributed sparse matvec: cost vs halo fraction
//      (how much of x must be fetched from other ranks);
//  (c) Rearranger (intra-component redistribution) vs Router round trip.
// Every Router, Rearranger and matvec result is checked against the serial
// answer; a mismatch prints FAILED and exits non-zero. The Router and
// Rearranger rows also count the messages and bytes of one transfer. Every
// row times single transfers (each closed by a thread barrier across all
// ranks) after warm-up reps and reports their median and quartiles; the
// rows are also written to BENCH_mct.json.

#include <barrier>
#include <numeric>
#include <stdexcept>

#include "bench_util.hpp"
#include "mct/router.hpp"
#include "mct/sparse_matrix.hpp"
#include "rt/runtime.hpp"

namespace mct = mxn::mct;
namespace rt = mxn::rt;
using mct::AttrVect;
using mct::GlobalSegMap;
using mct::Index;

namespace {

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

/// The value every field f holds at global point g before a transfer.
double value_at(int f, Index g) { return 1000.0 * f + double(g); }

void fill(AttrVect& av, const GlobalSegMap& map, int rank) {
  for (int f = 0; f < av.nfields(); ++f)
    for (Index l = 0; l < av.length(); ++l)
      av.field(f)[l] = value_at(f, map.global_index(rank, l));
}

void check_exact(const AttrVect& av, const GlobalSegMap& map, int rank,
                 const char* what) {
  for (int f = 0; f < av.nfields(); ++f)
    for (Index l = 0; l < av.length(); ++l)
      check(av.field(f)[l] == value_at(f, map.global_index(rank, l)),
            std::string(what) + " result differs from the serial answer");
}

/// Warm-up and timed transfers per row.
constexpr int kWarmup = 3;
constexpr int kReps = 31;

/// Time one transfer per rep on every rank, each rep closed by `gate` so
/// rank 0's rep time covers the whole transfer on all ranks.
template <class Xfer>
bench::Quartiles time_xfer(std::barrier<>& gate, const Xfer& xfer) {
  return bench::time_quartiles(kWarmup, kReps,
                               {bench::closed_by(gate, xfer)})[0];
}

/// Wall time per transfer plus the traffic of one counted transfer.
struct XferCost {
  bench::Quartiles t;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

/// Run `xfer` once with every rank quiesced on `gate` around it, so the
/// universe-wide traffic delta rank 0 reads is exactly that transfer's.
template <class Xfer>
void count_one(rt::Communicator& world, std::barrier<>& gate, XferCost& out,
               const Xfer& xfer) {
  gate.arrive_and_wait();
  const auto before = world.stats();
  gate.arrive_and_wait();
  try {
    xfer();
  } catch (...) {
    gate.arrive_and_drop();  // release the ranks waiting below
    throw;
  }
  gate.arrive_and_wait();
  if (world.rank() == 0) {
    const auto delta = world.stats() - before;
    out.msgs = delta.messages;
    out.bytes = delta.bytes;
  }
}

XferCost router_throughput(int m, int n, Index gsize, int nfields) {
  auto src_map = GlobalSegMap::block(gsize, m);
  auto dst_map = GlobalSegMap::cyclic(gsize, n, 16);
  XferCost out;
  std::barrier<> gate(m + n);
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const bool is_src = world.rank() < m;
    auto cohort = world.split(is_src ? 0 : 1, world.rank());
    mct::RouterConfig cfg;
    cfg.channel = world;
    cfg.cohort = cohort;
    std::vector<int> a(m), b(n);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), m);
    cfg.my_ranks = is_src ? a : b;
    cfg.peer_ranks = is_src ? b : a;
    cfg.tag = 200;
    std::vector<std::string> fields;
    for (int f = 0; f < nfields; ++f)
      fields.push_back(std::string("f").append(std::to_string(f)));
    if (is_src) {
      auto router = mct::Router::source(cfg, src_map);
      AttrVect av(fields, src_map.local_size(cohort.rank()));
      fill(av, src_map, cohort.rank());
      const auto t = time_xfer(gate, [&] { router.send(av); });
      if (world.rank() == 0) out.t = t;
      count_one(world, gate, out, [&] { router.send(av); });
    } else {
      auto router = mct::Router::destination(cfg, dst_map);
      AttrVect av(fields, dst_map.local_size(cohort.rank()));
      (void)time_xfer(gate, [&] { router.recv(av); });
      av.zero();
      count_one(world, gate, out, [&] { router.recv(av); });
      check_exact(av, dst_map, cohort.rank(), "Router");
    }
  });
  return out;
}

struct MatvecCost {
  bench::Quartiles t;
  std::size_t halo = 0;
};

/// y_r = (x_r + x_{(r+offset) mod n}) / 2: a fixed 2-nonzeros-per-row
/// matrix whose second column is `offset` away, so the halo fraction grows
/// with offset while the flop count stays constant — isolating the
/// communication share of the matvec.
MatvecCost matvec_cost(Index n, Index offset) {
  const int procs = 4;
  auto map = GlobalSegMap::block(n, procs);
  MatvecCost out;
  std::barrier<> gate(procs);
  rt::spawn(procs, [&](rt::Communicator& world) {
    const int me = world.rank();
    std::vector<mct::SparseMatrix::Element> es;
    for (const auto& s : map.segs_of(me)) {
      for (Index r = s.start; r < s.start + s.length; ++r) {
        es.push_back({r, r, 0.5});
        es.push_back({r, (r + offset) % n, 0.5});
      }
    }
    mct::SparseMatrix A(world, map, map, es, 210);
    AttrVect x({"t", "q"}, map.local_size(me));
    for (Index l = 0; l < x.length(); ++l)
      x.field(0)[l] = double(map.global_index(me, l));
    AttrVect y({"t", "q"}, map.local_size(me));
    const auto t = time_xfer(gate, [&] { A.matvec(x, y); });
    if (me == 0) {
      out.t = t;
      out.halo = A.halo_size();
    }
    for (Index l = 0; l < y.length(); ++l) {
      const Index r = map.global_index(me, l);
      check(y.field(0)[l] == 0.5 * double(r) + 0.5 * double((r + offset) % n),
            "matvec result differs from the serial answer");
    }
  });
  return out;
}

XferCost rearrange_cost(Index gsize) {
  const int procs = 4;
  auto block = GlobalSegMap::block(gsize, procs);
  auto cyc = GlobalSegMap::cyclic(gsize, procs, 32);
  XferCost out;
  std::barrier<> gate(procs);
  rt::spawn(procs, [&](rt::Communicator& world) {
    const int me = world.rank();
    mct::Rearranger rearr(world, block, cyc, 220);
    AttrVect src({"f"}, block.local_size(me));
    AttrVect dst({"f"}, cyc.local_size(me));
    fill(src, block, me);
    const auto t = time_xfer(gate, [&] { rearr.rearrange(src, dst); });
    if (me == 0) out.t = t;
    dst.zero();
    count_one(world, gate, out, [&] { rearr.rearrange(src, dst); });
    check_exact(dst, cyc, me, "Rearranger");
  });
  return out;
}

/// Median and quartile cells of a timed row, in microseconds.
std::vector<std::string> time_cells(const bench::Quartiles& t) {
  return {bench::fmt_us(t.median), bench::fmt_us(t.q1), bench::fmt_us(t.q3)};
}

/// Messages per transfer and mean payload bytes per message.
std::vector<std::string> traffic_cells(const XferCost& c) {
  return {std::to_string(c.msgs),
          bench::fmt("%.1f", c.msgs ? double(c.bytes) / double(c.msgs) : 0)};
}

/// JSON fields of a timed row: median and quartiles in microseconds.
std::string time_json(const bench::Quartiles& t) {
  return bench::fmt("\"us\": %.1f, ", t.median * 1e6) +
         bench::fmt("\"q1_us\": %.1f, ", t.q1 * 1e6) +
         bench::fmt("\"q3_us\": %.1f", t.q3 * 1e6);
}

int run() {
  std::vector<std::string> json;
  std::printf("=== MCT Router: intermodule AttrVect transfer ===\n");
  bench::Table t({"M", "N", "points", "fields", "per_xfer_us", "q1_us",
                  "q3_us", "MB/s", "msgs/xfer", "bytes/msg"});
  for (Index g : {4096, 65536}) {
    for (int nf : {1, 4}) {
      const XferCost c = router_throughput(3, 2, g, nf);
      std::vector<std::string> row = {"3", "2", std::to_string(g),
                                      std::to_string(nf)};
      for (auto& cell : time_cells(c.t)) row.push_back(std::move(cell));
      row.push_back(
          bench::fmt_mbs(double(g) * nf * sizeof(double), c.t.median));
      for (auto& cell : traffic_cells(c)) row.push_back(std::move(cell));
      t.row(std::move(row));
      json.push_back("{\"table\": \"router\", \"points\": " +
                     std::to_string(g) + ", \"fields\": " +
                     std::to_string(nf) + ", " + time_json(c.t) +
                     ", \"msgs\": " + std::to_string(c.msgs) +
                     ", \"bytes\": " + std::to_string(c.bytes) + "}");
    }
  }
  t.print();

  std::printf("\n=== Interpolation as distributed sparse matvec: cost vs "
              "halo (constant 2 nnz/row) ===\n");
  bench::Table t2({"points", "col_offset", "halo_points", "per_mv_us",
                   "q1_us", "q3_us"});
  for (Index offset : {0, 2, 512, 4096, 8192}) {
    const auto c = matvec_cost(16384, offset);
    std::vector<std::string> row = {"16384", std::to_string(offset),
                                    std::to_string(c.halo)};
    for (auto& cell : time_cells(c.t)) row.push_back(std::move(cell));
    t2.row(std::move(row));
    json.push_back("{\"table\": \"matvec\", \"points\": 16384, "
                   "\"col_offset\": " + std::to_string(offset) +
                   ", \"halo\": " + std::to_string(c.halo) + ", " +
                   time_json(c.t) + "}");
  }
  t2.print();

  std::printf("\n=== Rearranger: intra-component redistribution ===\n");
  bench::Table t3({"points", "per_rearrange_us", "q1_us", "q3_us",
                   "msgs/xfer", "bytes/msg"});
  for (Index g : {4096, 65536, 262144}) {
    const XferCost c = rearrange_cost(g);
    std::vector<std::string> row = {std::to_string(g)};
    for (auto& cell : time_cells(c.t)) row.push_back(std::move(cell));
    for (auto& cell : traffic_cells(c)) row.push_back(std::move(cell));
    t3.row(std::move(row));
    json.push_back("{\"table\": \"rearranger\", \"points\": " +
                   std::to_string(g) + ", " + time_json(c.t) +
                   ", \"msgs\": " + std::to_string(c.msgs) +
                   ", \"bytes\": " + std::to_string(c.bytes) + "}");
  }
  t3.print();
  std::printf("\nShape check: multi-field transfers amortize per-message "
              "overhead; with flops held constant, matvec cost tracks the "
              "halo volume the column offset drags across partition "
              "boundaries; the Rearranger scales with bytes crossing "
              "owners. Times are the median and quartiles of %d single "
              "transfers after %d warm-up transfers.\n",
              kReps, kWarmup);

  std::FILE* f = std::fopen("BENCH_mct.json", "w");
  if (f == nullptr) throw std::runtime_error("cannot write BENCH_mct.json");
  std::fprintf(f, "{\n  \"bench\": \"mct\",\n  \"warmup\": %d,\n"
                  "  \"reps\": %d,\n  \"rows\": [\n",
               kWarmup, kReps);
  for (std::size_t i = 0; i < json.size(); ++i)
    std::fprintf(f, "    %s%s\n", json[i].c_str(),
                 i + 1 < json.size() ? "," : "");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_mct.json\n");
  return 0;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::printf("FAILED: %s\n", e.what());
    return 1;
  }
}
