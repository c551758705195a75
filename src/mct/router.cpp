#include "mct/router.hpp"

#include <algorithm>

#include "sched/executor.hpp"

namespace mxn::mct {

using rt::UsageError;

namespace {

/// `rank`'s storage provenance under `gsm`: its segments in local storage
/// order, with cumulative storage offsets (stride 1 — each segment is
/// contiguous both in linear space and locally), sorted by linear start.
std::vector<linear::ProvenancedSegment> storage_provenance(
    const GlobalSegMap& gsm, int rank) {
  std::vector<linear::ProvenancedSegment> prov;
  Index off = 0;
  for (const auto& s : gsm.segs_of(rank)) {
    prov.push_back({{s.start, s.start + s.length}, off, 1});
    off += s.length;
  }
  std::sort(prov.begin(), prov.end(),
            [](const auto& a, const auto& b) { return a.seg.lo < b.seg.lo; });
  return prov;
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

void detail::FieldTransfer::Plans::compile(
    const std::vector<sched::PeerSegments>& entries,
    const std::vector<linear::ProvenancedSegment>& prov, std::size_t w) {
  if (!first.empty() && width == w) return;
  width = w;
  first.clear();
  chunks.clear();
  for (const auto& e : entries) {
    first.push_back(chunks.size());
    sched::for_each_chunk(e, w, [&](const sched::Chunk& c) {
      chunks.push_back(
          {c.first, c.elements,
           sched::compile_run_plan(prov,
                                   sched::chunk_items(e, c.first, c.last))});
    });
  }
  first.push_back(chunks.size());
}

const detail::FieldTransfer::Plans::Chunk&
detail::FieldTransfer::Plans::find(std::size_t e,
                                   std::size_t first_item) const {
  const auto end = chunks.begin() + static_cast<std::ptrdiff_t>(first[e + 1]);
  return *std::partition_point(
      chunks.begin() + static_cast<std::ptrdiff_t>(first[e]), end,
      [first_item](const Chunk& c) { return c.first_item < first_item; });
}

void detail::FieldTransfer::run(const AttrVect* src, AttrVect* dst) {
  // The engine hands back schedule entries and item ranges; an entry's
  // index and the range's first item pick the chunk's plan.
  const int nf = (src != nullptr ? src : dst)->nfields();
  const std::size_t width = static_cast<std::size_t>(nf) * sizeof(double);
  send_plans.compile(sched.sends, send_prov, width);
  recv_plans.compile(sched.recvs, recv_prov, width);
  sched::execute_bytes(
      sched, width, coupling, tag,
      [&](const sched::PeerSegments& pe, std::size_t first, std::size_t,
          std::byte* out) {
        const auto& c = send_plans.find(
            static_cast<std::size_t>(&pe - sched.sends.data()), first);
        const auto field_bytes =
            static_cast<std::size_t>(c.elements) * sizeof(double);
        for (int f = 0; f < nf; ++f)
          c.plan.gather(src->field(f).data(), out + f * field_bytes,
                        sizeof(double));
      },
      [&](const sched::PeerSegments& pe, std::size_t first, std::size_t,
          std::span<const std::byte> in) {
        const auto& c = recv_plans.find(
            static_cast<std::size_t>(&pe - sched.recvs.data()), first);
        const auto field_bytes =
            static_cast<std::size_t>(c.elements) * sizeof(double);
        for (int f = 0; f < nf; ++f)
          c.plan.scatter(dst->field(f).data(), in.data() + f * field_bytes,
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
  auto prov = storage_provenance(mine, me);
  auto& x = r.xfer_;
  x.coupling.channel = std::move(cfg.channel);
  x.tag = cfg.tag + 1;
  if (is_source) {
    x.sched.sends = std::move(entries);
    x.send_prov = std::move(prov);
    x.coupling.src_ranks = std::move(cfg.my_ranks);
    x.coupling.dst_ranks = std::move(cfg.peer_ranks);
  } else {
    x.sched.recvs = std::move(entries);
    x.recv_prov = std::move(prov);
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
  xfer_.send_prov = storage_provenance(src, me);
  xfer_.recv_prov = storage_provenance(dst, me);
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
