#include "intercomm/coupler.hpp"

#include "intercomm/distributed_schedule.hpp"
#include "trace/trace.hpp"

namespace mxn::intercomm {

using rt::UsageError;

namespace {

// Tag block per coupling id.
constexpr int kBase = 1 << 22;
constexpr int kStride = 8;
constexpr int desc_tag(int id) { return kBase + id * kStride + 0; }
constexpr int build_tag(int id) { return kBase + id * kStride + 1; }  // +2
constexpr int request_tag(int id) { return kBase + id * kStride + 3; }
constexpr int verdict_tag(int id) { return kBase + id * kStride + 4; }
constexpr int data_tag(int id) { return kBase + id * kStride + 5; }

enum class ReqKind : std::uint8_t { Request, Close };
enum class Verdict : std::uint8_t { Ok, NoMatch };

sched::Coupling exporter_coupling(const EndpointConfig& cfg) {
  sched::Coupling c;
  c.channel = cfg.channel;
  c.src_ranks = cfg.my_ranks;
  c.dst_ranks = cfg.peer_ranks;
  return c;
}

sched::Coupling importer_coupling(const EndpointConfig& cfg) {
  sched::Coupling c;
  c.channel = cfg.channel;
  c.src_ranks = cfg.peer_ranks;
  c.dst_ranks = cfg.my_ranks;
  return c;
}

/// Leader-swap of packed descriptors + cohort broadcast of the peer's.
dad::DescriptorPtr exchange_descriptor(EndpointConfig& cfg,
                                       const dad::DescriptorPtr& mine,
                                       int tag) {
  rt::Buffer bytes;
  if (cfg.cohort.rank() == 0) {
    rt::PackBuffer b;
    mine->pack(b);
    cfg.channel.send(cfg.peer_ranks[0], tag, std::move(b).take());
    bytes = cfg.channel.recv(cfg.peer_ranks[0], tag).payload;
  }
  bytes = cfg.cohort.bcast(std::move(bytes), 0);
  rt::UnpackBuffer u(bytes);
  return std::make_shared<const dad::Descriptor>(dad::Descriptor::unpack(u));
}

}  // namespace

// ===========================================================================
// Exporter
// ===========================================================================

Exporter Exporter::replicated(EndpointConfig cfg,
                              core::FieldRegistration field,
                              MatchPolicy policy, int buffer_depth) {
  if (!field.descriptor)
    throw UsageError("replicated coupling needs a field descriptor");
  if (buffer_depth < 1) throw UsageError("buffer depth must be >= 1");
  Exporter e;
  auto peer = exchange_descriptor(cfg, field.descriptor,
                                  desc_tag(cfg.coupling_id));
  e.sched_ = sched::build_region_schedule(*field.descriptor, *peer,
                                          cfg.cohort.rank(), -1);
  e.cfg_ = std::move(cfg);
  e.field_ = std::move(field);
  e.policy_ = policy;
  e.depth_ = buffer_depth;
  return e;
}

Exporter Exporter::partitioned(EndpointConfig cfg,
                               core::FieldRegistration field,
                               std::vector<dad::Patch> my_patches,
                               MatchPolicy policy, int buffer_depth) {
  if (buffer_depth < 1) throw UsageError("buffer depth must be >= 1");
  Exporter e;
  e.sched_ = build_region_schedule_partitioned(
      my_patches, {}, exporter_coupling(cfg), build_tag(cfg.coupling_id));
  e.cfg_ = std::move(cfg);
  e.field_ = std::move(field);
  e.policy_ = policy;
  e.depth_ = buffer_depth;
  return e;
}

void Exporter::do_export(std::int64_t ts) {
  trace::Span span("ic.export", "ic", static_cast<std::uint64_t>(ts));
  if (ts <= max_ts_ && max_ts_ != INT64_MIN)
    throw UsageError("export timestamps must be strictly increasing");
  max_ts_ = ts;

  Snapshot snap;
  snap.ts = ts;
  snap.per_peer.reserve(sched_.sends.size());
  for (const auto& pr : sched_.sends) {
    std::vector<std::byte> buf(static_cast<std::size_t>(pr.elements) *
                               field_.storage.width);
    sched::pack_regions(pr.regions, field_.storage, buf.data());
    snap.per_peer.push_back(std::move(buf));
  }
  buffer_.push_back(std::move(snap));
  while (static_cast<int>(buffer_.size()) > depth_) buffer_.pop_front();

  drain_and_process(/*until_closed=*/false);
}

void Exporter::drain_and_process(bool until_closed) {
  // The leader collects importer control messages and shares them with the
  // cohort so decisions are made collectively and identically.
  while (true) {
    // Answer whatever is already decidable BEFORE blocking for new control
    // traffic: entering finalize() can make previously-undecidable pending
    // requests decidable, and the importer is parked waiting for exactly
    // those verdicts (blocking for a new message first would deadlock).
    process_pending();
    if (until_closed && importer_closed_) break;

    std::vector<std::int64_t> new_requests;
    std::uint8_t closed_now = 0;
    if (cfg_.cohort.rank() == 0) {
      auto take = [&](rt::Message msg) {
        rt::UnpackBuffer u(msg.payload);
        const auto kind = static_cast<ReqKind>(u.unpack<std::uint8_t>());
        if (kind == ReqKind::Close)
          closed_now = 1;
        else
          new_requests.push_back(u.unpack<std::int64_t>());
      };
      if (until_closed && !importer_closed_) {
        // Block until at least one control message arrives.
        take(cfg_.channel.recv(cfg_.peer_ranks[0],
                               request_tag(cfg_.coupling_id)));
      }
      while (auto m = cfg_.channel.try_recv(cfg_.peer_ranks[0],
                                            request_tag(cfg_.coupling_id)))
        take(std::move(*m));
    }
    rt::PackBuffer b;
    if (cfg_.cohort.rank() == 0) {
      b.pack(closed_now);
      b.pack(new_requests);
    }
    auto bytes = cfg_.cohort.bcast(std::move(b).take(), 0);
    rt::UnpackBuffer u(bytes);
    if (u.unpack<std::uint8_t>()) importer_closed_ = true;
    for (auto ts : u.unpack_vector<std::int64_t>()) pending_.push_back(ts);

    process_pending();
    if (!until_closed || importer_closed_) break;
  }
}

void Exporter::process_pending() {
  const bool stream_over = importer_closed_ || finalizing_;
  while (!pending_.empty()) {
    const std::int64_t req = pending_.front();
    ++stats_.requests;

    std::optional<std::size_t> chosen;
    bool decidable = false;
    switch (policy_) {
      case MatchPolicy::Exact:
        for (std::size_t i = 0; i < buffer_.size(); ++i)
          if (buffer_[i].ts == req) chosen = i;
        decidable = chosen.has_value() || max_ts_ >= req || stream_over;
        break;
      case MatchPolicy::LowerBound:  // greatest export ts <= req
        for (std::size_t i = 0; i < buffer_.size(); ++i)
          if (buffer_[i].ts <= req) chosen = i;  // buffer is ts-ascending
        decidable = max_ts_ >= req || stream_over;
        break;
      case MatchPolicy::UpperBound:  // least export ts >= req
        for (std::size_t i = buffer_.size(); i-- > 0;)
          if (buffer_[i].ts >= req) chosen = i;
        decidable = chosen.has_value() || stream_over;
        break;
    }
    if (!decidable) break;  // wait for future exports
    answer(req, chosen);
    pending_.pop_front();
  }
}

void Exporter::answer(std::int64_t requested,
                      std::optional<std::size_t> snapshot) {
  (void)requested;
  // Verdict travels leader-to-leader; data rank-to-rank per the schedule.
  if (cfg_.cohort.rank() == 0) {
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(snapshot ? Verdict::Ok
                                              : Verdict::NoMatch));
    b.pack(snapshot ? buffer_[*snapshot].ts : std::int64_t{0});
    cfg_.channel.send(cfg_.peer_ranks[0], verdict_tag(cfg_.coupling_id),
                      std::move(b).take());
  }
  if (!snapshot) {
    ++stats_.unmatched;
    trace::instant("ic.unmatched", "ic");
    return;
  }
  const Snapshot& snap = buffer_[*snapshot];
  for (std::size_t i = 0; i < sched_.sends.size(); ++i) {
    cfg_.channel.send(cfg_.peer_ranks.at(sched_.sends[i].peer),
                      data_tag(cfg_.coupling_id), snap.per_peer[i]);
    stats_.elements += static_cast<std::uint64_t>(sched_.sends[i].elements);
  }
  ++stats_.transfers;
  static trace::Counter& transfers = trace::counter("ic.transfers");
  transfers.add(1);
}

void Exporter::finalize() {
  // From here on no further exports will come: every pending or future
  // request is decidable with end-of-stream semantics. Keep answering until
  // the importer says it is done.
  finalizing_ = true;
  drain_and_process(/*until_closed=*/true);
}

// ===========================================================================
// Importer
// ===========================================================================

Importer Importer::replicated(EndpointConfig cfg,
                              core::FieldRegistration field,
                              MatchPolicy policy) {
  if (!field.descriptor)
    throw UsageError("replicated coupling needs a field descriptor");
  Importer i;
  auto peer = exchange_descriptor(cfg, field.descriptor,
                                  desc_tag(cfg.coupling_id));
  i.sched_ = sched::build_region_schedule(*peer, *field.descriptor, -1,
                                          cfg.cohort.rank());
  i.cfg_ = std::move(cfg);
  i.field_ = std::move(field);
  i.policy_ = policy;
  return i;
}

Importer Importer::partitioned(EndpointConfig cfg,
                               core::FieldRegistration field,
                               std::vector<dad::Patch> my_patches,
                               MatchPolicy policy) {
  Importer i;
  i.sched_ = build_region_schedule_partitioned(
      {}, my_patches, importer_coupling(cfg), build_tag(cfg.coupling_id));
  i.cfg_ = std::move(cfg);
  i.field_ = std::move(field);
  i.policy_ = policy;
  return i;
}

std::int64_t Importer::do_import(std::int64_t ts) {
  trace::Span span("ic.import", "ic", static_cast<std::uint64_t>(ts));
  if (closed_) throw UsageError("importer already closed");
  if (!core::writable(field_.mode))
    throw UsageError("field '" + field_.name + "' is not writable");
  if (cfg_.cohort.rank() == 0) {
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(ReqKind::Request));
    b.pack(ts);
    cfg_.channel.send(cfg_.peer_ranks[0], request_tag(cfg_.coupling_id),
                      std::move(b).take());
  }
  ++stats_.requests;

  // Leader learns the verdict and shares it.
  rt::Buffer vbytes;
  if (cfg_.cohort.rank() == 0) {
    vbytes = cfg_.channel
                 .recv(cfg_.peer_ranks[0], verdict_tag(cfg_.coupling_id))
                 .payload;
  }
  vbytes = cfg_.cohort.bcast(std::move(vbytes), 0);
  rt::UnpackBuffer u(vbytes);
  const auto verdict = static_cast<Verdict>(u.unpack<std::uint8_t>());
  const auto matched = u.unpack<std::int64_t>();
  if (verdict == Verdict::NoMatch) {
    ++stats_.unmatched;
    throw NoMatchError("no export matches import timestamp " +
                       std::to_string(ts));
  }

  for (const auto& pr : sched_.recvs) {
    auto msg = cfg_.channel.recv(cfg_.peer_ranks.at(pr.peer),
                                 data_tag(cfg_.coupling_id));
    if (msg.payload.size() !=
        static_cast<std::size_t>(pr.elements) * field_.storage.width)
      throw UsageError("import payload size mismatch");
    sched::unpack_regions(pr.regions, field_.storage, msg.payload.data());
    stats_.elements += static_cast<std::uint64_t>(pr.elements);
  }
  ++stats_.transfers;
  return matched;
}

void Importer::close() {
  if (closed_) return;
  closed_ = true;
  if (cfg_.cohort.rank() == 0) {
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(ReqKind::Close));
    cfg_.channel.send(cfg_.peer_ranks[0], request_tag(cfg_.coupling_id),
                      std::move(b).take());
  }
}

}  // namespace mxn::intercomm
