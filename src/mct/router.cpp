#include "mct/router.hpp"

#include <algorithm>

#include "sched/executor.hpp"

namespace mxn::mct {

using rt::UsageError;

namespace {

/// One copy plan per schedule entry over `rank`'s storage under `gsm`,
/// compiled once and replayed by every transfer. The rank's storage
/// provenance is its segments in local storage order, with cumulative
/// storage offsets (stride 1 — each segment is contiguous both in linear
/// space and locally), sorted by linear start.
std::vector<rt::kernels::RunPlan> compile_plans(
    const GlobalSegMap& gsm, int rank,
    const std::vector<sched::PeerSegments>& entries) {
  std::vector<linear::ProvenancedSegment> prov;
  Index off = 0;
  for (const auto& s : gsm.segs_of(rank)) {
    prov.push_back({{s.start, s.start + s.length}, off, 1});
    off += s.length;
  }
  std::sort(prov.begin(), prov.end(),
            [](const auto& a, const auto& b) { return a.seg.lo < b.seg.lo; });
  std::vector<rt::kernels::RunPlan> plans;
  plans.reserve(entries.size());
  for (const auto& e : entries)
    plans.push_back(sched::compile_run_plan(prov, e.segs));
  return plans;
}

/// Swap GSMaps leader-to-leader and broadcast the peer's within the cohort.
GlobalSegMap exchange_gsm(RouterConfig& cfg, const GlobalSegMap& mine,
                          int tag) {
  rt::Buffer bytes;
  if (cfg.cohort.rank() == 0) {
    rt::PackBuffer b;
    mine.pack(b);
    cfg.channel.send(cfg.peer_ranks.at(0), tag, std::move(b).take());
    bytes = cfg.channel.recv(cfg.peer_ranks.at(0), tag).payload;
  }
  bytes = cfg.cohort.bcast(std::move(bytes), 0);
  rt::UnpackBuffer u(bytes);
  return GlobalSegMap::unpack(u);
}

}  // namespace

void detail::FieldTransfer::run(const AttrVect* src, AttrVect* dst) const {
  // The engine hands back schedule entries; an entry's index picks its plan.
  const int nf = (src != nullptr ? src : dst)->nfields();
  sched::execute_bytes(
      sched, static_cast<std::size_t>(nf) * sizeof(double), coupling, tag,
      [&](const sched::PeerSegments& pe, std::byte* out) {
        const auto& plan = send_plans[static_cast<std::size_t>(
            &pe - sched.sends.data())];
        const auto field_bytes =
            static_cast<std::size_t>(pe.elements) * sizeof(double);
        for (int f = 0; f < nf; ++f)
          plan.gather(src->field(f).data(), out + f * field_bytes,
                      sizeof(double));
      },
      [&](const sched::PeerSegments& pe, std::span<const std::byte> in) {
        const auto& plan = recv_plans[static_cast<std::size_t>(
            &pe - sched.recvs.data())];
        const auto field_bytes =
            static_cast<std::size_t>(pe.elements) * sizeof(double);
        for (int f = 0; f < nf; ++f)
          plan.scatter(dst->field(f).data(), in.data() + f * field_bytes,
                       sizeof(double));
      });
}

Router Router::build(RouterConfig cfg, const GlobalSegMap& mine,
                     bool is_source) {
  if (mine.gsize() <= 0) throw UsageError("empty GSMap");
  const int me = cfg.cohort.rank();
  const GlobalSegMap peer_gsm = exchange_gsm(cfg, mine, cfg.tag);
  if (peer_gsm.gsize() != mine.gsize())
    throw UsageError("Router GSMaps must number the same grid (" +
                     std::to_string(mine.gsize()) + " vs " +
                     std::to_string(peer_gsm.gsize()) + " points)");
  const int npeers = static_cast<int>(cfg.peer_ranks.size());
  if (mine.nprocs() > cfg.cohort.size() || peer_gsm.nprocs() > npeers)
    throw UsageError("Router GSMap names more owners than its component "
                     "has ranks");

  Router r;
  r.is_source_ = is_source;
  r.local_size_ = mine.local_size(me);
  auto entries = sched::sweep_owners(mine.footprint(me),
                                     peer_gsm.ownership_runs(), npeers);
  auto plans = compile_plans(mine, me, entries);
  auto& x = r.xfer_;
  x.coupling.channel = std::move(cfg.channel);
  x.tag = cfg.tag + 1;
  if (is_source) {
    x.sched.sends = std::move(entries);
    x.send_plans = std::move(plans);
    x.coupling.src_ranks = std::move(cfg.my_ranks);
    x.coupling.dst_ranks = std::move(cfg.peer_ranks);
  } else {
    x.sched.recvs = std::move(entries);
    x.recv_plans = std::move(plans);
    x.coupling.src_ranks = std::move(cfg.peer_ranks);
    x.coupling.dst_ranks = std::move(cfg.my_ranks);
  }
  return r;
}

Router Router::source(RouterConfig cfg, const GlobalSegMap& mine) {
  return build(std::move(cfg), mine, /*is_source=*/true);
}

Router Router::destination(RouterConfig cfg, const GlobalSegMap& mine) {
  return build(std::move(cfg), mine, /*is_source=*/false);
}

void Router::send(const AttrVect& av) {
  if (!is_source_) throw UsageError("send() on a destination Router");
  if (av.length() != local_size_)
    throw UsageError("AttrVect length does not match the GSMap");
  xfer_.run(&av, nullptr);
}

void Router::recv(AttrVect& av) {
  if (is_source_) throw UsageError("recv() on a source Router");
  if (av.length() != local_size_)
    throw UsageError("AttrVect length does not match the GSMap");
  xfer_.run(nullptr, &av);
}

// ===========================================================================
// Rearranger
// ===========================================================================

Rearranger::Rearranger(rt::Communicator cohort, const GlobalSegMap& src,
                       const GlobalSegMap& dst, int tag) {
  if (src.gsize() != dst.gsize())
    throw UsageError("Rearranger GSMaps must number the same grid");
  const int n = cohort.size();
  const int me = cohort.rank();
  if (src.nprocs() > n || dst.nprocs() > n)
    throw UsageError("Rearranger GSMap names more owners than the cohort "
                     "has ranks");
  xfer_.sched.sends =
      sched::sweep_owners(src.footprint(me), dst.ownership_runs(), n);
  xfer_.sched.recvs =
      sched::sweep_owners(dst.footprint(me), src.ownership_runs(), n);
  xfer_.send_plans = compile_plans(src, me, xfer_.sched.sends);
  xfer_.recv_plans = compile_plans(dst, me, xfer_.sched.recvs);
  xfer_.coupling = sched::self_coupling(std::move(cohort));
  xfer_.tag = tag;
  src_size_ = src.local_size(me);
  dst_size_ = dst.local_size(me);
}

void Rearranger::rearrange(const AttrVect& src_av, AttrVect& dst_av) {
  if (src_av.length() != src_size_ || dst_av.length() != dst_size_)
    throw UsageError("AttrVect lengths do not match the Rearranger GSMaps");
  if (!src_av.same_schema(dst_av))
    throw UsageError("Rearranger AttrVects must share a field schema");
  xfer_.run(&src_av, &dst_av);
}

}  // namespace mxn::mct
