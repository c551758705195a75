#include <algorithm>
#include <string>
#include <vector>

#include "core/connection_impl.hpp"
#include "core/reliable_exchange.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

// Elastic M×N rescaling (docs/RESCALING.md): live repartitioning of a
// component onto a new channel-rank layout without quiescing the coupling.
// One relayout engine serves both rescale() and the dead-rank recovery of
// src/redundancy, which only differ in who sources the old slots. The
// control plane (field lists, flags, descriptors) travels exclusively on
// collectives — whose reserved negative tags the fault injector always
// spares — so a relayout stays deterministic under chaos; the data plane
// (patch migration) runs the same two-phase reliable exchange as reliable
// connection transfers and absorbs drop/dup/reorder/delay through retries
// and attempt serials.

namespace mxn::core {

using rt::UsageError;

namespace {

int index_of(int channel_rank, const std::vector<int>& ranks) {
  for (std::size_t i = 0; i < ranks.size(); ++i)
    if (ranks[i] == channel_rank) return static_cast<int>(i);
  return -1;
}

std::vector<std::string> bcast_names(rt::Communicator& ch, int root,
                                     const std::vector<std::string>& mine) {
  rt::PackBuffer b;
  if (ch.rank() == root) b.pack(mine);
  auto bytes = ch.bcast(std::move(b).take_buffer(), root);
  rt::UnpackBuffer u(bytes);
  return u.unpack_string_vector();
}

}  // namespace

dad::DescriptorPtr MxNComponent::bcast_descriptor(
    rt::Communicator& ch, int root, const dad::DescriptorPtr& mine) {
  rt::PackBuffer b;
  if (ch.rank() == root) {
    if (!mine)
      throw UsageError("descriptor broadcast root lacks the descriptor");
    mine->pack(b);
  }
  return intern_descriptor(ch.bcast(std::move(b).take_buffer(), root));
}

// --- Layout ----------------------------------------------------------------

int Layout::side_of(int channel_rank) const {
  if (index_of(channel_rank, side0) >= 0) return 0;
  if (index_of(channel_rank, side1) >= 0) return 1;
  return -1;
}

void Layout::validate(int channel_size) const {
  if (side0.empty() || side1.empty())
    throw UsageError("layout: both sides must be non-empty");
  std::vector<int> seen(static_cast<std::size_t>(channel_size), 0);
  for (int s = 0; s < 2; ++s) {
    for (int r : side(s)) {
      if (r < 0 || r >= channel_size)
        throw UsageError("layout: channel rank " + std::to_string(r) +
                         " out of range");
      if (seen[static_cast<std::size_t>(r)]++ != 0)
        throw UsageError("layout: channel rank " + std::to_string(r) +
                         " appears twice");
    }
  }
}

// --- construction ----------------------------------------------------------

MxNComponent::MxNComponent(rt::Communicator channel, rt::Communicator cohort,
                           int side, Layout layout)
    : channel_(std::move(channel)),
      cohort_(std::move(cohort)),
      side_(side) {
  layout.validate(channel_.size());
  if (side < -1 || side > 1) throw UsageError("side must be -1, 0 or 1");
  if (side >= 0 &&
      static_cast<int>(layout.side(side).size()) != cohort_.size())
    throw UsageError("cohort size does not match this side's rank list");
  if (side < 0 && !cohort_.is_null())
    throw UsageError("spectator ranks must pass a null cohort");
  side_ranks_[0] = std::move(layout.side0);
  side_ranks_[1] = std::move(layout.side1);
  elastic_ = true;
}

std::shared_ptr<MxNComponent> make_elastic_mxn(rt::Communicator channel,
                                               Layout initial) {
  initial.validate(channel.size());
  // Two collective subset() calls mint the side cohorts; spectators draw
  // null from both.
  rt::Communicator c0 = channel.subset(initial.side0);
  rt::Communicator c1 = channel.subset(initial.side1);
  const int side = initial.side_of(channel.rank());
  rt::Communicator cohort = side == 0   ? std::move(c0)
                            : side == 1 ? std::move(c1)
                                        : rt::Communicator{};
  return std::make_shared<MxNComponent>(std::move(channel), std::move(cohort),
                                        side, std::move(initial));
}

// --- elastic establishment --------------------------------------------------

ConnectionId MxNComponent::establish_elastic(const ConnectionSpec& spec) {
  trace::Span span("mxn.establish", "mxn");
  if (spec.src_side != 0 && spec.src_side != 1)
    throw UsageError("spec.src_side must be 0 or 1");
  if (spec.period < 1) throw UsageError("spec.period must be >= 1");

  auto c = std::make_unique<Connection>();
  c->spec = spec;
  c->seq = seq_++;
  c->i_am_src = side_ >= 0 && side_ == spec.src_side;
  c->i_am_dst = side_ >= 0 && side_ == 1 - spec.src_side;
  c->policy = policy_from_spec(spec);

  if (c->i_am_src || c->i_am_dst) {
    const std::string& local_name =
        c->i_am_src ? spec.src_field : spec.dst_field;
    const FieldRegistration& local = field(local_name);
    if (c->i_am_src && !readable(local.mode))
      throw UsageError("field '" + local_name +
                       "' is write-only; cannot export it");
    if (c->i_am_dst && !writable(local.mode))
      throw UsageError("field '" + local_name +
                       "' is read-only; cannot import into it");
  }

  // Descriptor exchange over channel collectives (reserved negative tags:
  // fault-exempt), with spectators participating — they will need every
  // connection's record if a later rescale admits them.
  const std::vector<int>& src_ranks = side_ranks_[spec.src_side];
  const std::vector<int>& dst_ranks = side_ranks_[1 - spec.src_side];
  const dad::DescriptorPtr src_desc = bcast_descriptor(
      channel_, src_ranks[0],
      c->i_am_src ? field(spec.src_field).descriptor : nullptr);
  const dad::DescriptorPtr dst_desc = bcast_descriptor(
      channel_, dst_ranks[0],
      c->i_am_dst ? field(spec.dst_field).descriptor : nullptr);

  c->coupling.channel = channel_;
  c->coupling.src_ranks = src_ranks;
  c->coupling.dst_ranks = dst_ranks;
  c->coupling.recv_timeout_ms = spec.timeout_ms;

  if (side_ >= 0) {
    const int my_src = c->i_am_src ? cohort_.rank() : -1;
    const int my_dst = c->i_am_dst ? cohort_.rank() : -1;
    c->schedule = cache_.get_shared(src_desc, dst_desc, my_src, my_dst);
  }

  const ConnectionId id = next_id_++;
  connections_[id] = std::move(c);
  return id;
}

void MxNComponent::reestablish_connections() {
  // Re-exchange descriptors and rebuild coupling + schedule for every live
  // connection, in id order (deterministic across the channel). Runs on the
  // NEW layout: side_ranks_/side_/cohort_/fields_ are already spliced.
  for (auto& [id, cptr] : connections_) {
    Connection& c = *cptr;
    if (c.retired) continue;
    const int src_side = c.spec.src_side;
    const std::vector<int>& src_ranks = side_ranks_[src_side];
    const std::vector<int>& dst_ranks = side_ranks_[1 - src_side];
    c.i_am_src = side_ >= 0 && side_ == src_side;
    c.i_am_dst = side_ >= 0 && side_ == 1 - src_side;
    if (c.i_am_src || c.i_am_dst) {
      const std::string& local_name =
          c.i_am_src ? c.spec.src_field : c.spec.dst_field;
      if (fields_.find(local_name) == fields_.end())
        throw UsageError("relayout: live connection " + std::to_string(id) +
                         " references field '" + local_name +
                         "', which the new cohort did not re-register");
      const FieldRegistration& local = fields_.at(local_name);
      if (c.i_am_src && !readable(local.mode))
        throw UsageError("field '" + local_name +
                         "' is write-only; cannot export it");
      if (c.i_am_dst && !writable(local.mode))
        throw UsageError("field '" + local_name +
                         "' is read-only; cannot import into it");
    }
    const dad::DescriptorPtr src_desc = bcast_descriptor(
        channel_, src_ranks[0],
        c.i_am_src ? fields_.at(c.spec.src_field).descriptor : nullptr);
    const dad::DescriptorPtr dst_desc = bcast_descriptor(
        channel_, dst_ranks[0],
        c.i_am_dst ? fields_.at(c.spec.dst_field).descriptor : nullptr);
    c.coupling.channel = channel_;
    c.coupling.src_ranks = src_ranks;
    c.coupling.dst_ranks = dst_ranks;
    c.coupling.recv_timeout_ms = c.spec.timeout_ms;
    if (side_ >= 0) {
      const int my_src = c.i_am_src ? cohort_.rank() : -1;
      const int my_dst = c.i_am_dst ? cohort_.rank() : -1;
      c.schedule = cache_.get_shared(src_desc, dst_desc, my_src, my_dst);
    } else {
      c.schedule = nullptr;
    }
    // Align the reliable-mode attempt serial across the channel. Ranks
    // admitted into a role start at 0 while survivors carry the serial of
    // every attempt they ever ran; without alignment a fresh source's
    // first attempt reads as stale to a veteran destination and the
    // connection only converges by timeout racing. The fence has already
    // quiesced in-flight attempts, so jumping everyone to the maximum is
    // safe — and makes any pre-rescale straggler strictly stale.
    c.epoch = c.coupling.channel.allreduce(
        c.epoch,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? b : a; });
  }
}

// --- relayout ---------------------------------------------------------------

RelayoutStats MxNComponent::relayout(
    rt::Communicator comm, const std::vector<RelayoutExchange>& exchanges,
    const Layout& new_layout, std::vector<FieldRegistration> new_fields,
    int attempt_timeout_ms, int max_retries) {
  if (!elastic_)
    throw UsageError(
        "relayout requires an elastic component (make_elastic_mxn)");
  if (exchanges.empty()) throw UsageError("relayout: no exchanges");
  new_layout.validate(comm.size());

  ++repoch_;
  ++rstats_.epochs;
  static trace::Counter& epochs = trace::counter("rescale.epochs");
  epochs.add(1);
  cache_.set_epoch(repoch_);

  const int me = comm.rank();
  const int new_side = new_layout.side_of(me);
  std::map<std::string, FieldRegistration> incoming;
  for (auto& f : new_fields) {
    if (new_side < 0)
      throw UsageError("relayout: ranks that are spectators under the new "
                       "layout must not pass field registrations");
    if (f.name.empty()) throw UsageError("field name must not be empty");
    if (!f.descriptor) throw UsageError("field needs a descriptor");
    if (f.storage.width == 0) throw UsageError("field width must be > 0");
    const auto new_cohort_size =
        static_cast<int>(new_layout.side(new_side).size());
    if (f.descriptor->nranks() != new_cohort_size)
      throw UsageError("relayout: field '" + f.name + "' is decomposed over " +
                       std::to_string(f.descriptor->nranks()) +
                       " ranks but the new side has " +
                       std::to_string(new_cohort_size));
    const std::string name = f.name;
    if (!incoming.emplace(name, std::move(f)).second)
      throw UsageError("relayout: field '" + name + "' passed twice");
  }

  // Migrate both sides' fields onto the new layout (deterministic order:
  // side 0 then side 1, field names sorted within a side, exchanges in
  // order within a field).
  RelayoutStats st;
  std::map<std::string, FieldRegistration> new_regs;
  const int attempts = 1 + std::max(0, max_retries);
  for (int s = 0; s < 2; ++s) {
    const std::vector<int>& new_ranks = new_layout.side(s);
    const int my_new = new_side == s ? index_of(me, new_ranks) : -1;

    // 1. The side's field roster, from whichever rank holds old slot 0
    // (its source map is ordered, so the list is sorted).
    const RelayoutExchange* root_x = nullptr;
    for (const auto& x : exchanges)
      if (x.holders.side(s).at(0) >= 0) {
        root_x = &x;
        break;
      }
    if (root_x == nullptr)
      throw UsageError("relayout: no exchange sources old slot 0 of side " +
                       std::to_string(s));
    const int root = root_x->holders.side(s)[0];
    const std::map<std::string, FieldRegistration>& root_src =
        root_x->fields[s];
    std::vector<std::string> names;
    if (me == root)
      for (const auto& [n, f] : root_src) names.push_back(n);
    names = bcast_names(comm, root, names);

    // 2. Which fields were re-registered, from the side's NEW leader.
    std::vector<std::uint8_t> flags(names.size(), 0);
    if (me == new_ranks[0])
      for (std::size_t i = 0; i < names.size(); ++i)
        flags[i] = incoming.count(names[i]) ? 1 : 0;
    flags = comm.bcast_vector(std::move(flags), new_ranks[0]);

    for (std::size_t fi = 0; fi < names.size(); ++fi) {
      const std::string& name = names[fi];
      const bool has_new = flags[fi] != 0;
      if (my_new >= 0 && (incoming.count(name) != 0) != has_new)
        throw UsageError("relayout: re-registration of field '" + name +
                         "' disagrees across the new cohort");
      for (const auto& x : exchanges)
        if (index_of(me, x.holders.side(s)) >= 0 && !x.fields[s].count(name))
          throw UsageError("relayout: field '" + name +
                           "' is not registered on every old member");

      if (!has_new) {
        // Kept field: legal only when every old slot stays with the rank
        // that holds it under the new layout, sourced from that rank's own
        // live registration (array, descriptor generation).
        if (exchanges.front().holders.side(s) != new_ranks)
          throw UsageError("relayout: field '" + name +
                           "' was not re-registered but side " +
                           std::to_string(s) + "'s rank list changed");
        if (my_new >= 0) new_regs.emplace(name, fields_.at(name));
        continue;
      }

      // 3. Element size and descriptor agreement over collectives.
      const auto old_elem = comm.bcast_value<std::uint64_t>(
          me == root ? root_src.at(name).storage.width : 0, root);
      const auto new_elem = comm.bcast_value<std::uint64_t>(
          me == new_ranks[0] ? incoming.at(name).storage.width : 0,
          new_ranks[0]);
      if (old_elem != new_elem)
        throw UsageError("relayout: field '" + name +
                         "' changes element size across the relayout");
      const dad::DescriptorPtr old_desc = bcast_descriptor(
          comm, root, me == root ? root_src.at(name).descriptor : nullptr);
      // The new descriptor travels stamped with the new epoch, so every
      // rank keys caches on the new generation.
      dad::DescriptorPtr new_stamped;
      if (my_new >= 0)
        new_stamped = std::make_shared<const dad::Descriptor>(
            incoming.at(name).descriptor->with_version(repoch_));
      const dad::DescriptorPtr new_desc =
          bcast_descriptor(comm, new_ranks[0], new_stamped);
      if (my_new >= 0 && !(*new_desc == *new_stamped))
        throw UsageError("relayout: field '" + name +
                         "' is registered with different descriptors across "
                         "the new cohort");
      if (!old_desc->same_shape(*new_desc))
        throw UsageError("relayout: field '" + name +
                         "' changes shape across the relayout");

      // 4. Migrate, one exchange after another: local fast path plus the
      // two-phase reliable wire exchange.
      const FieldRegistration* newf =
          my_new >= 0 ? &incoming.at(name) : nullptr;
      for (std::size_t k = 0; k < exchanges.size(); ++k) {
        const std::vector<int>& from = exchanges[k].holders.side(s);
        const int my_old = index_of(me, from);
        const FieldRegistration* oldf =
            my_old >= 0 ? &exchanges[k].fields[s].at(name) : nullptr;
        sched::DeltaSchedule delta;
        if (my_old >= 0 || my_new >= 0) {
          // Slots sourced in another exchange map to -2, which matches no
          // rank: their regions are neither local here nor received here.
          delta = sched::build_delta_schedule(*old_desc, *new_desc, my_old,
                                              my_new, from, new_ranks);
          std::erase_if(delta.wire.recvs, [&](const sched::PeerRegions& pr) {
            return from[static_cast<std::size_t>(pr.peer)] < 0;
          });
        }
        const bool local = delta.local_elements > 0;
        const bool sends_out = local || !delta.wire.sends.empty();
        const bool takes_in = local || !delta.wire.recvs.empty();
        const bool wire =
            !delta.wire.sends.empty() || !delta.wire.recvs.empty();
        if (oldf != nullptr && sends_out && !readable(oldf->mode))
          throw UsageError("relayout: field '" + name +
                           "' is write-only; cannot migrate out of it");
        if (newf != nullptr && takes_in && !writable(newf->mode))
          throw UsageError("relayout: field '" + name +
                           "' is read-only; cannot migrate into it");

        if (delta.local_elements > 0) {
          const std::size_t bytes =
              static_cast<std::size_t>(delta.local_elements) * old_elem;
          std::vector<std::byte> buf(bytes);
          sched::pack_regions(delta.local, oldf->storage, buf.data());
          sched::unpack_regions(delta.local, newf->storage, buf.data());
          st.local_bytes += bytes;
        }

        sched::Coupling cpl;
        cpl.channel = comm;
        cpl.src_ranks = from;
        cpl.dst_ranks = new_ranks;
        cpl.recv_timeout_ms = attempt_timeout_ms;
        // Fresh tags per (epoch, side, field, exchange). The tag block wraps
        // every 64 epochs, so the attempt serial starts from the epoch: a
        // duplicated straggler of the migration that last used these tags
        // carries an older serial and is drained as stale.
        const int tag_base = detail::migration_tag_base(
            repoch_, s, fi * exchanges.size() + k);
        std::uint64_t serial = repoch_ << 32;
        ReliableExchange x;
        x.schedule = &delta.wire;
        x.src = oldf;
        x.dst = newf;
        x.coupling = &cpl;
        x.data_tag = tag_base;
        x.ack_tag = tag_base + 1;
        x.commit_tag = tag_base + 2;
        x.timeout_ms = attempt_timeout_ms;
        x.serial = &serial;
        for (int a = 0;; ++a) {
          bool ok = true;
          if (wire) {
            const auto moved = run_reliable_attempt(x);
            if (moved) st.migrated_bytes += moved->bytes;
            ok = moved.has_value();
          }
          // Every rank agrees on the attempt's outcome (collective tags are
          // fault-exempt). A destination whose commit was lost cannot
          // finish a retry alone: its sources have already moved on. So
          // either every rank is done or every rank retries.
          const auto all_ok = comm.allreduce<std::uint8_t>(
              ok ? 1 : 0,
              [](std::uint8_t l, std::uint8_t r) { return l < r ? l : r; });
          if (all_ok != 0) break;
          if (a + 1 == attempts)
            throw TransferError("relayout: migration of field '" + name +
                                "' (side " + std::to_string(s) +
                                ") failed after " + std::to_string(attempts) +
                                " attempts");
          if (wire) {
            ++st.retries;
            trace::instant("rescale.retry", "mxn",
                           static_cast<std::uint64_t>(fi));
          }
        }
      }

      if (my_new >= 0) {
        FieldRegistration reg = std::move(incoming.at(name));
        reg.descriptor = new_desc;  // stamped, agreed copy
        new_regs.emplace(name, std::move(reg));
        incoming.erase(name);
      }
    }
  }
  if (!incoming.empty())
    throw UsageError("relayout: field '" + incoming.begin()->first +
                     "' is not a currently registered field of this rank's "
                     "new side");

  // 5. Splice the side cohorts on `comm`: collective admission/retirement.
  channel_ = std::move(comm);
  rt::Communicator c0 = channel_.subset(new_layout.side0);
  rt::Communicator c1 = channel_.subset(new_layout.side1);
  cohort_ = new_side == 0   ? std::move(c0)
            : new_side == 1 ? std::move(c1)
                            : rt::Communicator{};
  side_ = new_side;
  side_ranks_[0] = new_layout.side0;
  side_ranks_[1] = new_layout.side1;
  fields_ = std::move(new_regs);

  // 6. Swap every live connection onto the new epoch's schedules, then
  // retire the previous schedule-cache generation (their references are
  // all replaced, so nothing dangles).
  reestablish_connections();
  cache_.retire_epochs_before(repoch_);
  return st;
}

// --- rescale ----------------------------------------------------------------

void MxNComponent::rescale(const Layout& new_layout,
                           std::vector<FieldRegistration> new_fields,
                           int timeout_ms, int max_retries) {
  if (!elastic_)
    throw UsageError(
        "rescale requires an elastic component (make_elastic_mxn)");
  trace::Span span("mxn.rescale", "mxn", repoch_ + 1);
  const std::int64_t t0 = trace::now_ns();

  // Epoch fence: the rescale is channel-collective, so reaching the fence
  // means every rank finished its pre-fence data_ready calls; sends
  // complete eagerly into mailboxes, so the old epoch's traffic is drained
  // (reliable-mode stragglers duplicated by faults are discarded later by
  // their stale attempt serials).
  const std::int64_t stall = channel_.epoch_fence();
  rstats_.stall_ns += stall;
  static trace::Counter& stall_ns = trace::counter("rescale.stall_ns");
  stall_ns.add(static_cast<std::uint64_t>(stall));

  // Every old member sources its own slot from its live registrations.
  std::vector<RelayoutExchange> own(1);
  own[0].holders = layout();
  if (side_ >= 0) own[0].fields[side_] = fields_;
  const RelayoutStats moved = relayout(channel_, own, new_layout,
                                       std::move(new_fields), timeout_ms,
                                       max_retries);

  rstats_.migrated_bytes += moved.migrated_bytes;
  rstats_.local_bytes += moved.local_bytes;
  rstats_.retries += moved.retries;
  static trace::Counter& mig_bytes = trace::counter("rescale.migrated_bytes");
  static trace::Counter& loc_bytes = trace::counter("rescale.local_bytes");
  static trace::Counter& mig_retries = trace::counter("rescale.retries");
  mig_bytes.add(moved.migrated_bytes);
  loc_bytes.add(moved.local_bytes);
  mig_retries.add(moved.retries);
  rstats_.rescale_ns += trace::now_ns() - t0;
}

}  // namespace mxn::core
