// Substrate characterization: the mxn::rt message-passing runtime that
// stands in for MPI (see DESIGN.md, Substitutions). These numbers set the
// floor under every other bench — a port invocation, a dataReady transfer
// or a Router exchange can never beat the raw ping-pong and collective
// costs reported here.
//
// Every row is the median and quartiles of per-rep times taken with
// bench::time_quartiles (a rep is a batch of operations; the row divides by
// the batch), and every row is also written to BENCH_rt.json for CI to
// archive.

#include <barrier>

#include "bench_util.hpp"
#include "rt/runtime.hpp"

namespace rt = mxn::rt;

namespace {

constexpr int kWarmup = 5;
constexpr int kReps = 51;

/// The per-operation quartiles of each of `ops` on `nprocs` ranks. Every
/// rank runs bench::time_quartiles over the ops as alternating arms, a rep
/// being `batch` calls; rank 0's rep times, divided by `batch`, are
/// reported. With `closed`, each rep ends at a thread barrier over every
/// rank, so it covers the batch on all of them (a bcast root would finish
/// first otherwise); a ping-pong closes itself.
std::vector<bench::Quartiles> per_op(
    int nprocs, int batch, bool closed,
    const std::vector<std::function<void(rt::Communicator&)>>& ops) {
  std::vector<bench::Quartiles> out;
  std::barrier<> gate(nprocs);
  rt::spawn(nprocs, [&](rt::Communicator& comm) {
    std::vector<std::function<void()>> arms;
    for (const auto& op : ops) {
      std::function<void()> rep = [&comm, &op, batch] {
        for (int i = 0; i < batch; ++i) op(comm);
      };
      arms.push_back(closed ? bench::closed_by(gate, std::move(rep))
                            : std::move(rep));
    }
    auto q = bench::time_quartiles(kWarmup, kReps, arms);
    if (comm.rank() != 0) return;
    for (auto& t : q) {
      t.q1 /= batch;
      t.median /= batch;
      t.q3 /= batch;
    }
    out = std::move(q);
  });
  return out;
}

std::string cell(const bench::Quartiles& q) {
  return bench::fmt_us(q.median) + " [" + bench::fmt_us(q.q1) + ", " +
         bench::fmt_us(q.q3) + "]";
}

std::string time_json(const bench::Quartiles& q) {
  return "\"us\": " + bench::fmt_us(q.median) +
         ", \"q1_us\": " + bench::fmt_us(q.q1) +
         ", \"q3_us\": " + bench::fmt_us(q.q3);
}

}  // namespace

int main() {
  std::vector<std::string> json;

  std::printf("=== mxn::rt substrate: point-to-point ping-pong ===\n");
  bench::Table t({"bytes", "roundtrip_us [q1, q3]", "MB/s_oneway"});
  for (std::size_t b : {8u, 1024u, 65536u, 1048576u}) {
    const std::vector<std::byte> payload(b);  // copied per send, read-only
    const auto pingpong = [&payload](rt::Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 1, payload);
        comm.recv(1, 2);
      } else {
        comm.recv(0, 1);
        comm.send(0, 2, payload);
      }
    };
    const auto q = per_op(2, b > 100000 ? 2 : 20, false, {pingpong})[0];
    t.row({std::to_string(b), cell(q),
           bench::fmt_mbs(double(b) * 2, q.median)});
    json.push_back("{\"table\": \"pingpong\", \"bytes\": " +
                   std::to_string(b) + ", " + time_json(q) + "}");
  }
  t.print();

  std::printf("\n=== collectives: per-operation cost vs process count ===\n");
  const std::vector<std::string> names = {"barrier", "bcast", "allgather",
                                          "alltoall"};
  const std::vector<std::function<void(rt::Communicator&)>> collectives = {
      [](rt::Communicator& comm) { comm.barrier(); },
      [](rt::Communicator& comm) { comm.bcast_value<int>(comm.rank(), 0); },
      [](rt::Communicator& comm) { comm.allgather_value<int>(comm.rank()); },
      [](rt::Communicator& comm) {
        std::vector<rt::Buffer> out(comm.size());
        for (auto& o : out) o = rt::Buffer::allocate(8);
        comm.alltoall(std::move(out));
      }};
  bench::Table t2({"procs", "barrier_us", "bcast_us", "allgather_us",
                   "alltoall_us"});
  for (int p : {2, 4, 8, 16}) {
    const auto q = per_op(p, 10, true, collectives);
    std::vector<std::string> row = {std::to_string(p)};
    for (std::size_t i = 0; i < q.size(); ++i) {
      row.push_back(cell(q[i]));
      json.push_back("{\"table\": \"collective\", \"op\": \"" + names[i] +
                     "\", \"procs\": " + std::to_string(p) + ", " +
                     time_json(q[i]) + "}");
    }
    t2.row(std::move(row));
  }
  t2.print();

  std::printf("\n=== communicator split (rendezvous board) ===\n");
  bench::Table t3({"procs", "split_us [q1, q3]"});
  for (int p : {2, 8, 16}) {
    const auto q = per_op(p, 4, true, {[](rt::Communicator& comm) {
                            (void)comm.split(comm.rank() % 2, comm.rank());
                          }})[0];
    t3.row({std::to_string(p), cell(q)});
    json.push_back("{\"table\": \"split\", \"procs\": " + std::to_string(p) +
                   ", " + time_json(q) + "}");
  }
  t3.print();

  std::printf("\nContext: all \"processes\" are threads sharing this "
              "machine's core(s); these are shared-memory message costs, "
              "the in-process analogue of MPI on one node. Each cell is the "
              "median [q1, q3] of %d reps after %d warm-up reps.\n",
              kReps, kWarmup);

  std::FILE* f = std::fopen("BENCH_rt.json", "w");
  if (f == nullptr) throw std::runtime_error("cannot write BENCH_rt.json");
  std::fprintf(f, "{\n  \"bench\": \"rt\",\n  \"warmup\": %d,\n"
                  "  \"reps\": %d,\n  \"rows\": [\n",
               kWarmup, kReps);
  for (std::size_t i = 0; i < json.size(); ++i)
    std::fprintf(f, "    %s%s\n", json[i].c_str(),
                 i + 1 < json.size() ? "," : "");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_rt.json\n");
  return 0;
}
