#include "core/mxn_component.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "core/connection_impl.hpp"
#include "core/transmission_policy.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

namespace mxn::core {

using detail::kProposalTag;
using rt::UsageError;

void ConnectionSpec::pack(rt::PackBuffer& b) const {
  b.pack(src_field);
  b.pack(dst_field);
  b.pack(src_side);
  b.pack(one_shot);
  b.pack(period);
  b.pack(handshake);
  b.pack(reliable);
  b.pack(timeout_ms);
  b.pack(max_retries);
}

ConnectionSpec ConnectionSpec::unpack(rt::UnpackBuffer& u) {
  ConnectionSpec s;
  s.src_field = u.unpack_string();
  s.dst_field = u.unpack_string();
  s.src_side = u.unpack<int>();
  s.one_shot = u.unpack<bool>();
  s.period = u.unpack<int>();
  s.handshake = u.unpack<bool>();
  s.reliable = u.unpack<bool>();
  s.timeout_ms = u.unpack<int>();
  s.max_retries = u.unpack<int>();
  return s;
}

MxNComponent::MxNComponent(rt::Communicator channel, rt::Communicator cohort,
                           int side, std::vector<int> side0_ranks,
                           std::vector<int> side1_ranks)
    : channel_(std::move(channel)),
      cohort_(std::move(cohort)),
      side_(side) {
  if (side != 0 && side != 1) throw UsageError("side must be 0 or 1");
  side_ranks_[0] = std::move(side0_ranks);
  side_ranks_[1] = std::move(side1_ranks);
  if (static_cast<int>(side_ranks_[side_].size()) != cohort_.size())
    throw UsageError("cohort size does not match this side's rank list");
}

void MxNComponent::set_services(Services& services) {
  services.add_provides_port(
      "mxn", "mxn.MxNService",
      std::shared_ptr<MxNService>(this, [](MxNService*) {}));
}

void MxNComponent::register_field(const FieldRegistration& field) {
  if (elastic_ && side_ < 0)
    throw UsageError("spectator ranks hold no data; fields are registered "
                     "by side members only");
  if (field.name.empty()) throw UsageError("field name must not be empty");
  if (!field.descriptor) throw UsageError("field needs a descriptor");
  if (field.storage.width == 0) throw UsageError("field width must be > 0");
  if (field.descriptor->nranks() != cohort_.size())
    throw UsageError("field '" + field.name + "' is decomposed over " +
                     std::to_string(field.descriptor->nranks()) +
                     " ranks but the cohort has " +
                     std::to_string(cohort_.size()));
  if (fields_.count(field.name))
    throw UsageError("field '" + field.name + "' already registered");
  fields_[field.name] = field;
}

void MxNComponent::unregister_field(const std::string& name) {
  if (!fields_.erase(name))
    throw UsageError("field '" + name + "' is not registered");
}

const FieldRegistration& MxNComponent::field(const std::string& name) const {
  auto it = fields_.find(name);
  if (it == fields_.end())
    throw UsageError("field '" + name + "' is not registered");
  return it->second;
}

ConnectionId MxNComponent::establish(const ConnectionSpec& spec) {
  return elastic_ ? establish_elastic(spec) : establish_impl(spec);
}

ConnectionId MxNComponent::propose(const ConnectionSpec& spec) {
  if (elastic_)
    throw UsageError("elastic components establish connections "
                     "channel-collectively; propose/accept is a paired-mode "
                     "mechanism");
  if (cohort_.rank() == 0) {
    rt::PackBuffer b;
    spec.pack(b);
    channel_.send(side_ranks_[1 - side_][0], kProposalTag,
                  std::move(b).take());
  }
  return establish_impl(spec);
}

ConnectionId MxNComponent::accept_proposal() {
  if (elastic_)
    throw UsageError("elastic components establish connections "
                     "channel-collectively; propose/accept is a paired-mode "
                     "mechanism");
  rt::Buffer bytes;
  if (cohort_.rank() == 0) {
    auto msg = channel_.recv(side_ranks_[1 - side_][0], kProposalTag);
    bytes = std::move(msg.payload);
  }
  bytes = cohort_.bcast(std::move(bytes), 0);
  rt::UnpackBuffer u(bytes);
  return establish_impl(ConnectionSpec::unpack(u));
}

ConnectionId MxNComponent::establish_impl(const ConnectionSpec& spec) {
  trace::Span span("mxn.establish", "mxn");
  if (spec.src_side != 0 && spec.src_side != 1)
    throw UsageError("spec.src_side must be 0 or 1");
  if (spec.period < 1) throw UsageError("spec.period must be >= 1");

  auto c = std::make_unique<Connection>();
  c->spec = spec;
  c->seq = seq_++;
  c->i_am_src = side_ == spec.src_side;
  c->i_am_dst = !c->i_am_src;
  c->policy = policy_from_spec(spec);

  const std::string& local_name =
      c->i_am_src ? spec.src_field : spec.dst_field;
  const FieldRegistration& local = field(local_name);
  if (c->i_am_src && !readable(local.mode))
    throw UsageError("field '" + local_name +
                     "' is write-only; cannot export it");
  if (c->i_am_dst && !writable(local.mode))
    throw UsageError("field '" + local_name +
                     "' is read-only; cannot import into it");

  // Exchange descriptors: cohort leaders swap over the channel, then
  // broadcast the peer's descriptor within the cohort.
  rt::Buffer peer_bytes;
  if (cohort_.rank() == 0) {
    rt::PackBuffer b;
    local.descriptor->pack(b);
    channel_.send(side_ranks_[1 - side_][0], c->desc_tag(),
                  std::move(b).take());
    auto msg = channel_.recv(side_ranks_[1 - side_][0], c->desc_tag());
    peer_bytes = std::move(msg.payload);
  }
  const dad::DescriptorPtr peer_desc =
      intern_descriptor(cohort_.bcast(std::move(peer_bytes), 0));

  const dad::DescriptorPtr src_desc =
      c->i_am_src ? local.descriptor : peer_desc;
  const dad::DescriptorPtr dst_desc =
      c->i_am_dst ? local.descriptor : peer_desc;

  c->coupling.channel = channel_;
  c->coupling.src_ranks = side_ranks_[spec.src_side];
  c->coupling.dst_ranks = side_ranks_[1 - spec.src_side];
  c->coupling.recv_timeout_ms = spec.timeout_ms;

  const int my_src = c->i_am_src ? cohort_.rank() : -1;
  const int my_dst = c->i_am_dst ? cohort_.rank() : -1;
  c->schedule = cache_.get_shared(src_desc, dst_desc, my_src, my_dst);

  const ConnectionId id = next_id_++;
  connections_[id] = std::move(c);
  return id;
}

dad::DescriptorPtr MxNComponent::intern_descriptor(const rt::Buffer& bytes) {
  const std::string_view key(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size());
  const auto it = interned_.find(key);
  if (it != interned_.end())
    if (dad::DescriptorPtr d = it->second.lock()) return d;
  rt::UnpackBuffer u(bytes);
  auto d = std::make_shared<const dad::Descriptor>(dad::Descriptor::unpack(u));
  if (it != interned_.end()) {
    it->second = d;
    return d;
  }
  if (interned_.size() >= interned_sweep_at_) {
    std::erase_if(interned_,
                  [](const auto& e) { return e.second.expired(); });
    interned_sweep_at_ = 2 * interned_.size() + 64;
  }
  interned_.emplace(std::string(key), d);
  return d;
}

void MxNComponent::run_transfer(Connection& c) {
  trace::Span span("mxn.transfer", "mxn",
                   static_cast<std::uint64_t>(c.seq));
  TransferContext ctx;
  ctx.schedule = c.schedule.get();
  ctx.src = c.i_am_src ? &field(c.spec.src_field) : nullptr;
  ctx.dst = c.i_am_dst ? &field(c.spec.dst_field) : nullptr;
  ctx.coupling = &c.coupling;
  ctx.data_tag = c.data_tag();
  ctx.ack_tag = c.ack_tag();
  ctx.commit_tag = c.commit_tag();
  ctx.timeout_ms = c.spec.timeout_ms;
  ctx.max_retries = c.spec.max_retries;
  ctx.serial = &c.epoch;
  ctx.seq = c.seq;
  ctx.stats = &c.stats;
  c.policy->transfer(ctx);
  ++c.stats.transfers;
  if (c.spec.one_shot) c.retired = true;
}

int MxNComponent::data_ready(const std::string& field_name) {
  trace::Span span("mxn.data_ready", "mxn");
  if (elastic_ && side_ < 0)
    throw UsageError("spectator ranks hold no data; data_ready is for side "
                     "members only");
  // Require the field to exist, even if no connection currently moves it.
  (void)field(field_name);
  int moved = 0;
  for (auto& [id, cptr] : connections_) {
    Connection& c = *cptr;
    if (c.retired) continue;
    if (c.i_am_src && c.spec.src_field == field_name) {
      ++c.src_calls;
      if (c.src_calls % c.spec.period != 0) continue;
      run_transfer(c);
      ++moved;
    } else if (c.i_am_dst && c.spec.dst_field == field_name) {
      run_transfer(c);
      ++moved;
    }
  }
  return moved;
}

bool MxNComponent::data_ready_connection(ConnectionId id) {
  trace::Span span("mxn.data_ready_connection", "mxn");
  if (elastic_ && side_ < 0)
    throw UsageError("spectator ranks hold no data; data_ready is for side "
                     "members only");
  auto it = connections_.find(id);
  if (it == connections_.end())
    throw UsageError("no such connection: " + std::to_string(id));
  Connection& c = *it->second;
  if (c.retired) return false;
  if (c.i_am_src) {
    ++c.src_calls;
    if (c.src_calls % c.spec.period != 0) return false;
  }
  run_transfer(c);
  return true;
}

void MxNComponent::set_policy(
    ConnectionId id, std::shared_ptr<const TransmissionPolicy> policy) {
  if (!policy) throw UsageError("set_policy: null policy");
  auto it = connections_.find(id);
  if (it == connections_.end())
    throw UsageError("no such connection: " + std::to_string(id));
  it->second->policy = std::move(policy);
}

const char* MxNComponent::policy_name(ConnectionId id) const {
  auto it = connections_.find(id);
  if (it == connections_.end())
    throw UsageError("no such connection: " + std::to_string(id));
  return it->second->policy->name();
}

void MxNComponent::disconnect(ConnectionId id) {
  auto it = connections_.find(id);
  if (it == connections_.end())
    throw UsageError("no such connection: " + std::to_string(id));
  it->second->retired = true;
}

TransferStats MxNComponent::stats(ConnectionId id) const {
  auto it = connections_.find(id);
  if (it == connections_.end())
    throw UsageError("no such connection: " + std::to_string(id));
  return it->second->stats;
}

bool MxNComponent::active(ConnectionId id) const {
  auto it = connections_.find(id);
  return it != connections_.end() && !it->second->retired;
}

std::vector<std::byte> MxNComponent::checkpoint_fields() const {
  // A field's storage is the row-major concatenation of its patches at
  // their bases, so its bytes are the checkpoint as they stand.
  rt::PackBuffer b;
  std::uint64_t count = 0;
  for (const auto& [name, f] : fields_)
    if (readable(f.mode)) ++count;
  b.pack(count);
  for (const auto& [name, f] : fields_) {
    if (!readable(f.mode)) continue;  // write-only fields cannot be checkpointed
    b.pack(name);
    b.pack_span(std::span<const std::byte>(f.storage.data, f.storage.bytes()));
  }
  return std::move(b).take();
}

void MxNComponent::restore_fields(std::span<const std::byte> blob) {
  rt::UnpackBuffer u(blob);
  const auto count = u.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name = u.unpack_string();
    auto data = u.unpack_vector<std::byte>();
    const FieldRegistration& f = field(name);
    if (!writable(f.mode))
      throw UsageError("field '" + name + "' is not writable; cannot "
                       "restore it");
    if (data.size() != f.storage.bytes())
      throw UsageError("checkpoint of field '" + name +
                       "' does not match the registered decomposition");
    if (!data.empty()) std::memcpy(f.storage.data, data.data(), data.size());
  }
}

std::shared_ptr<MxNComponent> make_paired_mxn(rt::Communicator world, int m,
                                              int n) {
  if (m + n != world.size())
    throw UsageError("make_paired_mxn: m + n must equal world size");
  const int side = world.rank() < m ? 0 : 1;
  auto cohort = world.split(side, world.rank());
  std::vector<int> side0(m), side1(n);
  for (int i = 0; i < m; ++i) side0[i] = i;
  for (int i = 0; i < n; ++i) side1[i] = m + i;
  return std::make_shared<MxNComponent>(world, cohort, side, side0, side1);
}

}  // namespace mxn::core
