#include "redundancy/redundancy.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rt/serialize.hpp"
#include "trace/trace.hpp"

// Erasure-coded state redundancy (docs/REDUNDANCY.md): the shuffile/redset
// flow mapped onto rt messages and DAD ownership maps. encode() stripes each
// member's patch snapshot across its partner group with rotated XOR parity
// (each member's chunks live only in OTHER members' parity blocks, so any
// single death per group is recoverable); recover() reassembles dead ranks'
// blobs at proxy survivors and redistributes everything onto a caller-chosen
// layout through MxNComponent::relayout, the engine the elastic rescale
// uses — rebuilding onto a replacement or a shrunken cohort is exactly a
// redistribution onto a new layout whose source for a dead slot is a
// rebuilt blob.

namespace mxn::redundancy {

using core::FieldRegistration;
using core::Layout;
using rt::Buffer;
using rt::UsageError;

namespace detail {

struct EncodeState {
  std::uint64_t epoch = 0;
  Layout layout;           // component layout at encode time
  std::vector<int> group;  // my partner group's channel ranks, ascending
  int my_pos = -1;
  int my_side = -1;
  int my_cohort = -1;
  Buffer blob;  // my snapshot: registered fields concatenated, sorted by name
  std::vector<FieldMeta> my_fields;
  std::vector<std::byte> parity;   // XOR accumulation (zero-extended)
  std::map<int, PeerHeader> peers; // channel rank -> header, my group only
};

}  // namespace detail

namespace {

// Encode traffic: one dedicated tag on the component channel, above every
// connection/migration/PRMI range (src/core/connection_impl.hpp), so an
// encode composes with live couplings. Data, acks and done markers share the
// tag and are told apart by a leading type byte.
constexpr int kRedTag = 710000;

constexpr std::uint8_t kMsgData = 0;
constexpr std::uint8_t kMsgAck = 1;
constexpr std::uint8_t kMsgDone = 2;

/// Partition the member channel ranks of both sides (ascending) into partner
/// groups of `m`; a trailing singleton folds into its predecessor so every
/// group has >= 2 members (a group of 1 could not hold parity anywhere).
std::vector<std::vector<int>> make_groups(const Layout& layout, int m) {
  std::vector<int> members = layout.side0;
  members.insert(members.end(), layout.side1.begin(), layout.side1.end());
  std::sort(members.begin(), members.end());
  std::vector<std::vector<int>> groups;
  for (std::size_t i = 0; i < members.size();
       i += static_cast<std::size_t>(m))
    groups.emplace_back(
        members.begin() + static_cast<std::ptrdiff_t>(i),
        members.begin() + static_cast<std::ptrdiff_t>(
                              std::min(members.size(),
                                       i + static_cast<std::size_t>(m))));
  if (groups.size() >= 2 && groups.back().size() == 1) {
    groups[groups.size() - 2].push_back(groups.back()[0]);
    groups.pop_back();
  }
  return groups;
}

const std::vector<int>* group_containing(
    const std::vector<std::vector<int>>& groups, int rank) {
  for (const auto& g : groups)
    if (std::ranges::find(g, rank) != g.end()) return &g;
  return nullptr;
}

/// Chunk geometry of one blob striped over a group of `m`: m-1 equal slices
/// (the last short, trailing ones possibly empty). Chunk c of the member at
/// group position i is held — XORed into the parity — by the member at
/// position (i + 1 + c) % m, redset style: a member's own parity never
/// covers its own data, so the death of any ONE member leaves every one of
/// its chunks recoverable from a survivor's parity.
struct ChunkGeom {
  std::uint64_t size = 0;
  std::uint64_t len = 0;  // full slice length

  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> chunk(int c) const {
    const std::uint64_t off =
        std::min(size, static_cast<std::uint64_t>(c) * len);
    return {off, std::min(size - off, len)};
  }
};

ChunkGeom geom(std::uint64_t blob_size, int group_size) {
  ChunkGeom g;
  g.size = blob_size;
  const auto nchunks = static_cast<std::uint64_t>(group_size - 1);
  g.len = nchunks > 0 ? (blob_size + nchunks - 1) / nchunks : 0;
  return g;
}

/// acc[i] ^= src[i], zero-extending acc: chunks of different lengths XOR as
/// if padded with zeros, so no group-wide size agreement round is needed.
void xor_into(std::vector<std::byte>& acc, std::span<const std::byte> src) {
  if (src.size() > acc.size()) acc.resize(src.size(), std::byte{0});
  for (std::size_t i = 0; i < src.size(); ++i) acc[i] ^= src[i];
}

}  // namespace

std::vector<std::byte> detail::pack_meta(int side, int cohort_rank,
                                         const std::vector<FieldMeta>& fields) {
  rt::PackBuffer b;
  b.pack(static_cast<std::int32_t>(side));
  b.pack(static_cast<std::int32_t>(cohort_rank));
  b.pack(static_cast<std::uint64_t>(fields.size()));
  for (const auto& f : fields) {
    b.pack(f.name);
    b.pack(f.elem_size);
    f.descriptor->pack(b);
  }
  return std::move(b).take();
}

detail::PeerHeader detail::unpack_meta(std::span<const std::byte> bytes,
                                       std::uint64_t blob_size) {
  // Smallest encoding of one field: its name's length prefix and its
  // element size (the descriptor adds more).
  constexpr std::size_t kMinFieldBytes = 2 * sizeof(std::uint64_t);
  rt::UnpackBuffer u(bytes);
  PeerHeader h;
  h.blob_size = blob_size;
  h.side = u.unpack<std::int32_t>();
  if (h.side != 0 && h.side != 1)
    throw UsageError("redundancy metadata: side " + std::to_string(h.side) +
                     " is neither 0 nor 1");
  h.cohort_rank = u.unpack<std::int32_t>();
  const auto n = u.unpack<std::uint64_t>();
  if (n > u.remaining() / kMinFieldBytes)
    throw UsageError("redundancy metadata: field count " + std::to_string(n) +
                     " exceeds what " + std::to_string(u.remaining()) +
                     " bytes can hold");
  std::uint64_t off = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    FieldMeta fm;
    fm.name = u.unpack_string();
    fm.elem_size = u.unpack<std::uint64_t>();
    fm.descriptor = std::make_shared<const dad::Descriptor>(
        dad::Descriptor::unpack(u));
    if (h.cohort_rank < 0 || h.cohort_rank >= fm.descriptor->nranks())
      throw UsageError("redundancy metadata: cohort rank " +
                       std::to_string(h.cohort_rank) + " outside field '" +
                       fm.name + "' (" +
                       std::to_string(fm.descriptor->nranks()) + " ranks)");
    const auto volume =
        static_cast<std::uint64_t>(fm.descriptor->local_volume(h.cohort_rank));
    // off <= blob_size holds here; the division keeps the product from
    // wrapping.
    if (fm.elem_size != 0 && volume > (blob_size - off) / fm.elem_size)
      throw UsageError("redundancy metadata: field '" + fm.name +
                       "' overruns the " + std::to_string(blob_size) +
                       "-byte blob");
    fm.offset = off;
    fm.bytes = volume * fm.elem_size;
    off += fm.bytes;
    h.fields.push_back(std::move(fm));
  }
  return h;
}

FieldRegistration blob_backed_field(std::string name,
                                    dad::DescriptorPtr descriptor,
                                    std::size_t elem_size,
                                    std::uint64_t offset, int cohort_rank,
                                    Buffer blob) {
  // Read-only: nothing writes through the view (every writer checks mode).
  std::byte* data = const_cast<std::byte*>(blob.data()) + offset;
  return {std::move(name), descriptor, core::AccessMode::Read,
          descriptor->storage(cohort_rank, data, elem_size), std::move(blob)};
}

// --- construction -----------------------------------------------------------

RedundancyGroup::RedundancyGroup(std::shared_ptr<core::MxNComponent> component,
                                 RedundancyOptions opts)
    : component_(std::move(component)), opts_(opts) {
  if (!component_) throw UsageError("RedundancyGroup: null component");
  if (!component_->elastic())
    throw UsageError("RedundancyGroup requires an elastic component "
                     "(make_elastic_mxn)");
  if (opts_.group_size < 2)
    throw UsageError("RedundancyGroup: group_size must be >= 2");
}

RedundancyGroup::~RedundancyGroup() = default;

bool RedundancyGroup::encoded() const {
  if (!state_) return false;
  const Layout now = component_->layout();
  return state_->layout.side0 == now.side0 && state_->layout.side1 == now.side1;
}

// --- encode -----------------------------------------------------------------

EncodeStats RedundancyGroup::encode() {
  auto& comp = *component_;
  if (!comp.is_member()) {
    // Keep the epoch in step with the members: a later rescale may admit
    // this rank, and partners drop (and are filtered by) other epochs.
    ++epoch_;
    state_.reset();
    return {};
  }
  trace::Span span("redundancy.encode", "redundancy");
  rt::Communicator channel = comp.channel();
  rt::Universe* uni = channel.universe();
  const Layout layout = comp.layout();
  const auto groups = make_groups(layout, opts_.group_size);
  const std::vector<int>* g = group_containing(groups, channel.rank());
  if (g == nullptr || g->size() < 2)
    throw UsageError("redundancy: encode needs at least 2 member ranks");

  auto st = std::make_unique<detail::EncodeState>();
  st->epoch = ++epoch_;
  st->layout = layout;
  st->group = *g;
  st->my_pos = static_cast<int>(
      std::ranges::find(st->group, channel.rank()) - st->group.begin());
  st->my_side = comp.side();
  st->my_cohort = comp.cohort().rank();

  // 1. Snapshot: every registered field's local storage, concatenated in
  // name order (std::map). A field's storage holds each patch at its
  // descriptor base, so the blob is itself a field's storage
  // (blob_backed_field) and is copied with one memcpy per field.
  std::uint64_t total = 0;
  for (const auto& [name, f] : comp.fields()) {
    if (!core::readable(f.mode))
      throw UsageError("redundancy: field '" + name +
                       "' is write-only; cannot snapshot it");
    detail::FieldMeta fm;
    fm.name = name;
    fm.elem_size = f.storage.width;
    fm.descriptor = f.descriptor;
    fm.offset = total;
    fm.bytes = f.storage.bytes();
    total += fm.bytes;
    st->my_fields.push_back(std::move(fm));
  }
  Buffer blob = Buffer::allocate(total);
  if (total > 0) {
    std::byte* out = blob.mutable_data();
    for (const auto& fm : st->my_fields)
      if (fm.bytes != 0)
        std::memcpy(out + fm.offset, comp.fields().at(fm.name).storage.data,
                    fm.bytes);
  }
  st->blob = std::move(blob);

  // 2. Stripe: chunk c of my blob goes to the partner at group position
  // (my_pos + 1 + c) % m; equivalently partner j holds my chunk
  // (j - my_pos - 1) mod m. Delivery is ack/retry/dedup on a dedicated tag
  // (chaos plans drop/dup/reorder user-tag traffic), with a done-marker
  // linger so no partner is left resending into a finished rank.
  const int m = static_cast<int>(st->group.size());
  const ChunkGeom gm = geom(total, m);
  const std::vector<std::byte> meta =
      detail::pack_meta(st->my_side, st->my_cohort, st->my_fields);

  struct Outgoing {
    int dst = -1;
    Buffer payload;
    bool acked = false;
  };
  std::vector<Outgoing> out;
  EncodeStats stats;
  stats.epoch = st->epoch;
  stats.blob_bytes = total;
  for (int j = 0; j < m; ++j) {
    if (j == st->my_pos) continue;
    const int c = (j - st->my_pos - 1 + m) % m;
    const auto [coff, clen] = gm.chunk(c);
    rt::PackBuffer b;
    b.pack(kMsgData);
    b.pack(st->epoch);
    b.pack(total);
    b.pack(static_cast<std::uint64_t>(meta.size()));
    b.pack_raw(std::span<const std::byte>(meta));
    b.pack(clen);
    b.pack_raw(st->blob.span().subspan(coff, clen));
    Outgoing o;
    o.dst = st->group[static_cast<std::size_t>(j)];
    o.payload = std::move(b).take_buffer();
    stats.sent_bytes += o.payload.size();
    out.push_back(std::move(o));
  }

  rt::PackBuffer db;
  db.pack(kMsgDone);
  db.pack(st->epoch);
  const Buffer done_msg = std::move(db).take_buffer();

  const int eff = opts_.timeout_ms < 0 ? uni->default_recv_timeout_ms()
                                       : opts_.timeout_ms;
  const std::int64_t deadline =
      eff > 0 ? trace::now_ns() + static_cast<std::int64_t>(eff) * 1'000'000 *
                                      (1 + std::max(0, opts_.max_retries))
              : 0;

  // The ack/retry/done machinery exists to survive DROPPED messages, and
  // the rt mailbox is lossless unless the active fault plan injects drops
  // (dup/reorder/delay perturb order and timing but never lose delivery).
  // On a lossless transport the whole acknowledgment protocol is dead
  // weight — two extra full-group message generations per epoch — so, like
  // an MPI implementation on a reliable fabric, encode skips it: send
  // chunks, fold in the partners' chunks, exit. The plan is spawn-global,
  // so every member picks the same mode.
  const rt::FaultInjector* fi = uni->faults();
  const bool lossy = fi != nullptr && fi->plan().drop > 0;
  std::set<int> data_from;  // partners whose chunk is already folded in
  std::set<int> done_from;  // partners known to have finished this epoch
  std::size_t unacked = out.size();
  if (!lossy) {
    for (auto& o : out) o.acked = true;
    unacked = 0;
  }
  const std::size_t partners = out.size();
  bool done_sent = false;
  int quiet_ticks = 0;  // consecutive silent waits since we finished
  const auto finished = [&] {
    return unacked == 0 && data_from.size() == partners;
  };
  auto broadcast_pending = [&] {
    for (const auto& o : out)
      if (!o.acked) channel.send(o.dst, kRedTag, o.payload);
    if (finished())
      for (const auto& o : out)
        if (!done_from.count(o.dst)) channel.send(o.dst, kRedTag, done_msg);
  };
  for (const auto& o : out) channel.send(o.dst, kRedTag, o.payload);
  // Exit: all my data acked, all partner chunks folded in, and every partner
  // is known finished (sent Done) — OR, should a partner's Done itself be
  // lost after the partner exited, a quiet linger (no traffic for several
  // ticks while finished) stands in for it. A partner that still needs my
  // acks resends its data every tick, which resets the linger, so the quiet
  // exit cannot starve anyone.
  while (true) {
    if (finished()) {
      if (!lossy) break;
      if (!done_sent) {
        // Transition, not tick: a rank can finish and collect every
        // partner's Done without ever waiting out a recv, so Done must go
        // out the moment the conditions are met or partners hang on it.
        for (const auto& o : out) channel.send(o.dst, kRedTag, done_msg);
        done_sent = true;
      }
      if (done_from.size() == partners || quiet_ticks >= 4) break;
    }
    if (deadline != 0 && trace::now_ns() >= deadline)
      throw rt::TimeoutError("redundancy encode: partner exchange deadline "
                             "of " +
                             std::to_string(eff) + " ms exceeded" +
                             uni->timeout_dead_report());
    // Admit only this epoch's (or older, drained below) traffic: with
    // back-to-back encodes the group is never in epoch lockstep, and a
    // partner one epoch ahead would otherwise have its data consumed and
    // dropped here — costing it a full resend tick. Leaving future-epoch
    // messages queued hands them to this rank's own next encode() intact.
    const auto this_epoch = [&](const rt::Message& m) {
      rt::UnpackBuffer u(m.payload);
      (void)u.unpack<std::uint8_t>();
      return u.unpack<std::uint64_t>() <= st->epoch;
    };
    rt::Message msg;
    try {
      msg = channel.recv_matching(rt::kAnySource, kRedTag, this_epoch, 50);
    } catch (const rt::TimeoutError&) {
      ++quiet_ticks;
      if (lossy) broadcast_pending();  // absorb drops: resend the undelivered
      continue;
    }
    quiet_ticks = 0;
    rt::UnpackBuffer u(msg.payload);
    const auto type = u.unpack<std::uint8_t>();
    const auto ep = u.unpack<std::uint64_t>();
    if (ep != st->epoch) continue;  // stale epoch: drain and drop
    if (type == kMsgAck) {
      for (auto& o : out)
        if (o.dst == msg.src && !o.acked) {
          o.acked = true;
          --unacked;
        }
      continue;
    }
    if (type == kMsgDone) {
      done_from.insert(msg.src);
      continue;
    }
    const auto blob_size = u.unpack<std::uint64_t>();
    const auto meta_len = u.unpack<std::uint64_t>();
    const auto meta_bytes = u.unpack_raw(meta_len);
    const auto clen = u.unpack<std::uint64_t>();
    const auto chunk = u.unpack_raw(clen);
    if (lossy) {
      rt::PackBuffer ab;
      ab.pack(kMsgAck);
      ab.pack(st->epoch);
      channel.send(msg.src, kRedTag, std::move(ab).take_buffer());
    }
    if (data_from.count(msg.src)) continue;  // duplicate: re-acked, not re-XORed
    data_from.insert(msg.src);
    st->peers[msg.src] = detail::unpack_meta(meta_bytes, blob_size);
    xor_into(st->parity, chunk);
  }

  stats.parity_bytes = st->parity.size();
  static trace::Counter& encodes = trace::counter("redundancy.encodes");
  static trace::Counter& enc_bytes =
      trace::counter("redundancy.encoded_bytes");
  static trace::Counter& par_bytes = trace::counter("redundancy.parity_bytes");
  encodes.add(1);
  enc_bytes.add(stats.blob_bytes);
  par_bytes.add(stats.parity_bytes);
  state_ = std::move(st);
  return stats;
}

// --- recover ----------------------------------------------------------------

RecoverStats RedundancyGroup::recover(
    const Layout& new_layout, std::vector<FieldRegistration> new_fields,
    int timeout_ms, int max_retries) {
  auto& comp = *component_;
  const std::int64_t t0 = trace::now_ns();
  trace::Span span("redundancy.rebuild", "redundancy");
  rt::Communicator old_channel = comp.channel();
  rt::Universe* uni = old_channel.universe();
  const int eff_timeout = timeout_ms >= 0 ? timeout_ms : opts_.timeout_ms;
  const int eff_retries = max_retries >= 0 ? max_retries : opts_.max_retries;

  // 1. Survivor rendezvous. The live communicator's membership — not each
  // rank's local reading of the death flags, which can race a second kill —
  // is the authoritative agreement on who is dead.
  if (uni->dead() == 0)
    throw UsageError("recover: the universe reports no dead ranks");
  rt::Communicator live =
      old_channel.split_live(0, old_channel.rank(), eff_timeout);
  std::map<int, int> old_by_uid;
  for (int r = 0; r < old_channel.size(); ++r)
    old_by_uid[old_channel.world_rank(r)] = r;
  std::vector<int> old_of_live(static_cast<std::size_t>(live.size()));
  std::vector<int> live_of_old(static_cast<std::size_t>(old_channel.size()),
                               -1);
  for (int lr = 0; lr < live.size(); ++lr) {
    const int orank = old_by_uid.at(live.world_rank(lr));
    old_of_live[static_cast<std::size_t>(lr)] = orank;
    live_of_old[static_cast<std::size_t>(orank)] = lr;
  }
  const int me_old = old_of_live[static_cast<std::size_t>(live.rank())];

  RecoverStats stats;
  for (int r = 0; r < old_channel.size(); ++r)
    if (live_of_old[static_cast<std::size_t>(r)] < 0)
      stats.dead_channel_ranks.push_back(r);
  if (stats.dead_channel_ranks.empty())
    throw UsageError("recover: every channel rank is still live");

  // 2. Argument agreement: the new layout must be byte-identical on every
  // live rank (it seeds collectives and tag assignment below).
  {
    rt::PackBuffer b;
    if (live.rank() == 0) {
      b.pack(new_layout.side0);
      b.pack(new_layout.side1);
    }
    auto bytes = live.bcast(std::move(b).take_buffer(), 0);
    rt::UnpackBuffer u(bytes);
    if (u.unpack_vector<int>() != new_layout.side0 ||
        u.unpack_vector<int>() != new_layout.side1)
      throw UsageError("recover: new layout disagrees across live ranks");
  }
  new_layout.validate(old_channel.size());
  for (int s = 0; s < 2; ++s)
    for (int r : new_layout.side(s))
      if (live_of_old[static_cast<std::size_t>(r)] < 0)
        throw UsageError("recover: new layout lists dead channel rank " +
                         std::to_string(r));

  // 3. Parity coverage. Every live MEMBER must hold an encode epoch for the
  // current layout, and the epochs must agree (every channel rank calls
  // encode, so they do unless a member skipped one).
  const Layout old_layout = comp.layout();
  const bool covered = comp.is_member() && state_ != nullptr &&
                       state_->layout.side0 == old_layout.side0 &&
                       state_->layout.side1 == old_layout.side1;
  const std::uint64_t mine = covered ? state_->epoch : 0;
  const auto lo = live.allreduce(
      comp.is_member() ? mine : ~std::uint64_t{0},
      [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; });
  const auto hi = live.allreduce(
      comp.is_member() ? mine : std::uint64_t{0},
      [](std::uint64_t a, std::uint64_t b) { return a < b ? b : a; });

  std::vector<int> dead_members;
  for (int d : stats.dead_channel_ranks)
    if (old_layout.side_of(d) >= 0) dead_members.push_back(d);
  if (lo == 0 || lo == ~std::uint64_t{0} || lo != hi)
    throw RebuildError(
        "recover: no common encode epoch covers the current layout — "
        "encode() was never run, predates a layout change, or was skipped "
        "by a member");

  // 4. Tolerance: one death per parity group. A second death in the same
  // group takes both the data and the parity covering it.
  const auto groups = make_groups(old_layout, opts_.group_size);
  std::map<int, int> proxy_of;  // dead member -> proxy's LIVE rank
  for (int d : dead_members) {
    const std::vector<int>* g = group_containing(groups, d);
    if (g == nullptr)
      throw UsageError("recover: dead rank " + std::to_string(d) +
                       " is not in any parity group");
    std::vector<int> survivors;
    std::vector<int> lost;
    for (int r : *g)
      (live_of_old[static_cast<std::size_t>(r)] >= 0 ? survivors : lost)
          .push_back(r);
    if (lost.size() > 1) {
      std::string who;
      for (int r : lost) who += (who.empty() ? "" : ", ") + std::to_string(r);
      throw RebuildError(
          "recover: ranks " + who +
          " share one parity group; XOR parity tolerates one death per "
          "group (group_size=" +
          std::to_string(opts_.group_size) + ")");
    }
    proxy_of[d] = live_of_old[static_cast<std::size_t>(survivors.front())];
  }

  // 5. Who sources which old slot in the relayout, in live numbering.
  // Exchange 0: every survivor holds its own slot, sourced from its
  // encode-time snapshot (recover restores the snapshot state — see
  // docs/REDUNDANCY.md). Exchange 1: each proxy holds its dead rank's slot,
  // sourced from the blob rebuilt below. A proxy stands in only for the
  // one dead member of its own parity group, so no rank holds two slots in
  // one exchange.
  std::vector<core::RelayoutExchange> exchanges(2);
  for (int s = 0; s < 2; ++s) {
    auto& own =
        s == 0 ? exchanges[0].holders.side0 : exchanges[0].holders.side1;
    auto& adopted =
        s == 0 ? exchanges[1].holders.side0 : exchanges[1].holders.side1;
    for (int r : old_layout.side(s)) {
      const int lr = live_of_old[static_cast<std::size_t>(r)];
      own.push_back(lr >= 0 ? lr : -2);
      adopted.push_back(lr >= 0 ? -2 : proxy_of.at(r));
    }
  }
  if (dead_members.empty()) exchanges.pop_back();
  if (comp.is_member())
    for (const auto& fm : state_->my_fields)
      exchanges[0].fields[state_->my_side].emplace(
          fm.name, blob_backed_field(fm.name, fm.descriptor, fm.elem_size,
                                     fm.offset, state_->my_cohort,
                                     state_->blob));

  // 6. Rebuild each dead member's blob at its proxy: survivors of its group
  // re-shuffle the chunks their parities consumed at encode, XOR them out,
  // and ship the recovered chunks to the proxy for reassembly. Collectives
  // on the live comm (alltoall: fault-exempt reserved tags), one round per
  // dead member, every live rank participating (empty payloads outside the
  // group).
  static trace::Counter& rebuilt_ctr =
      trace::counter("redundancy.rebuilt_bytes");
  for (int d : dead_members) {
    const std::vector<int>& g = *group_containing(groups, d);
    const int m = static_cast<int>(g.size());
    const int pd = static_cast<int>(std::ranges::find(g, d) - g.begin());
    std::vector<int> survivors;
    for (int r : g)
      if (live_of_old[static_cast<std::size_t>(r)] >= 0)
        survivors.push_back(r);
    const int proxy_live = proxy_of.at(d);
    const bool i_survive =
        std::ranges::find(survivors, me_old) != survivors.end();
    const int my_pos =
        i_survive ? static_cast<int>(std::ranges::find(g, me_old) - g.begin())
                  : -1;

    // Phase A: survivor pair shuffle (shuffile: move surviving blocks to
    // where the rebuild needs them). Survivor j sends each other survivor h
    // the chunk of j's blob that h's parity consumed.
    std::vector<Buffer> ship(static_cast<std::size_t>(live.size()));
    if (i_survive) {
      const ChunkGeom gmine = geom(state_->blob.size(), m);
      for (int h_old : survivors) {
        if (h_old == me_old) continue;
        const int ph =
            static_cast<int>(std::ranges::find(g, h_old) - g.begin());
        const int c = (ph - my_pos - 1 + m) % m;
        const auto [coff, clen] = gmine.chunk(c);
        rt::PackBuffer b;
        b.pack(clen);
        b.pack_raw(state_->blob.span().subspan(coff, clen));
        ship[static_cast<std::size_t>(
            live_of_old[static_cast<std::size_t>(h_old)])] =
            std::move(b).take_buffer();
      }
    }
    std::vector<Buffer> got = live.alltoall(std::move(ship));

    // Phase B: XOR the survivors' chunks out of my parity; the residue is
    // the dead rank's chunk my parity covered (redset: rebuild the missing
    // block from the XOR of the stripe).
    Buffer my_piece;
    int my_chunk = -1;
    if (i_survive) {
      std::vector<std::byte> acc = state_->parity;
      for (int j_old : survivors) {
        if (j_old == me_old) continue;
        rt::UnpackBuffer u(
            got[static_cast<std::size_t>(
                live_of_old[static_cast<std::size_t>(j_old)])]);
        const auto clen = u.unpack<std::uint64_t>();
        xor_into(acc, u.unpack_raw(clen));
      }
      my_chunk = (my_pos - pd - 1 + m) % m;
      const detail::PeerHeader& hdr = state_->peers.at(d);
      const auto [doff, dlen] = geom(hdr.blob_size, m).chunk(my_chunk);
      (void)doff;
      // Zero-extension padded the parity to the longest contribution; the
      // dead rank's chunk is a prefix of it.
      acc.resize(static_cast<std::size_t>(dlen));
      my_piece = Buffer(std::move(acc));
    }

    // Phase C: recovered chunks converge on the proxy, which reassembles
    // the dead rank's blob (its own chunk folded in locally).
    std::vector<Buffer> ship2(static_cast<std::size_t>(live.size()));
    if (i_survive && live.rank() != proxy_live) {
      rt::PackBuffer b;
      b.pack(static_cast<std::int32_t>(my_chunk));
      b.pack(static_cast<std::uint64_t>(my_piece.size()));
      b.pack_raw(my_piece.span());
      ship2[static_cast<std::size_t>(proxy_live)] = std::move(b).take_buffer();
    }
    std::vector<Buffer> got2 = live.alltoall(std::move(ship2));
    if (live.rank() == proxy_live) {
      const detail::PeerHeader& hdr = state_->peers.at(d);
      const ChunkGeom gd = geom(hdr.blob_size, m);
      std::vector<std::byte> blob(static_cast<std::size_t>(hdr.blob_size),
                                  std::byte{0});
      auto place = [&](int c, std::span<const std::byte> bytes) {
        const auto [off, clen] = gd.chunk(c);
        if (bytes.size() != clen)
          throw UsageError("recover: rebuilt chunk size mismatch");
        if (clen > 0) std::memcpy(blob.data() + off, bytes.data(), clen);
      };
      place(my_chunk, my_piece.span());
      for (int j_old : survivors) {
        if (j_old == me_old) continue;
        rt::UnpackBuffer u(
            got2[static_cast<std::size_t>(
                live_of_old[static_cast<std::size_t>(j_old)])]);
        const auto c = u.unpack<std::int32_t>();
        const auto len = u.unpack<std::uint64_t>();
        place(c, u.unpack_raw(len));
      }
      const Buffer rebuilt(std::move(blob));
      for (const auto& fm : hdr.fields)
        exchanges[1].fields[hdr.side].emplace(
            fm.name, blob_backed_field(fm.name, fm.descriptor, fm.elem_size,
                                       fm.offset, hdr.cohort_rank, rebuilt));
      stats.rebuilt_bytes += hdr.blob_size;
      rebuilt_ctr.add(hdr.blob_size);
    }
  }

  // 7. Relayout onto the new layout over the live communicator. The
  // per-attempt timeout is a slice of `timeout_ms`: the retry chain as a
  // whole gets roughly `timeout_ms`, not `timeout_ms` per attempt — a rank
  // burning a full budget on each failed attempt would lag the collective
  // splice rendezvous its peers are already waiting in.
  Layout live_layout;
  for (int r : new_layout.side0)
    live_layout.side0.push_back(live_of_old[static_cast<std::size_t>(r)]);
  for (int r : new_layout.side1)
    live_layout.side1.push_back(live_of_old[static_cast<std::size_t>(r)]);
  const int slice = std::max(200, eff_timeout / (1 + std::max(0, eff_retries)));
  const core::RelayoutStats moved =
      comp.relayout(live, exchanges, live_layout, std::move(new_fields), slice,
                    eff_retries);
  stats.migrated_bytes = moved.migrated_bytes;
  stats.local_bytes = moved.local_bytes;
  static trace::Counter& mig_bytes =
      trace::counter("redundancy.migrated_bytes");
  static trace::Counter& loc_bytes = trace::counter("redundancy.local_bytes");
  static trace::Counter& mig_retries = trace::counter("redundancy.retries");
  mig_bytes.add(moved.migrated_bytes);
  loc_bytes.add(moved.local_bytes);
  mig_retries.add(moved.retries);

  // The encode epoch covered the pre-recovery layout; it is spent.
  state_.reset();
  static trace::Counter& recoveries = trace::counter("redundancy.recoveries");
  recoveries.add(1);
  stats.recover_ns = trace::now_ns() - t0;
  return stats;
}

}  // namespace mxn::redundancy
