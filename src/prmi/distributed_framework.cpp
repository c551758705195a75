#include "prmi/distributed_framework.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/erased_exec.hpp"
#include "trace/trace.hpp"

namespace mxn::prmi {

using rt::UsageError;
using sidl::takes_input;
using sidl::yields_output;

namespace {

/// Indices of the parallel parameters of a method, in signature order.
std::vector<int> parallel_params(const sidl::Method& m) {
  std::vector<int> out;
  for (std::size_t i = 0; i < m.params.size(); ++i)
    if (m.params[i].type.parallel) out.push_back(static_cast<int>(i));
  if (static_cast<int>(out.size()) > kMaxParallelParams)
    throw UsageError("too many parallel parameters in method '" + m.name +
                     "'");
  return out;
}

// Kinds carried on a connection's return-tag stream: ordinary returns,
// mid-call pull requests for deferred parallel parameters (§2.4, second
// strategy), and coalesced batch returns.
enum class ReplyKind : std::uint8_t { Return = 0, Pull = 1, Batch = 2 };

// Per-parallel-parameter layout flags in the layout reply.
enum class LayoutKind : std::uint8_t { Registered = 0, Deferred = 1 };

sched::Coupling make_coupling(rt::Communicator world,
                              const std::vector<int>& src,
                              const std::vector<int>& dst) {
  sched::Coupling c;
  c.channel = std::move(world);
  c.src_ranks = src;
  c.dst_ranks = dst;
  return c;
}

}  // namespace

// ===========================================================================
// DistributedFramework
// ===========================================================================

std::shared_ptr<RemotePort> DistributedFramework::get_port(
    const std::string& comp_name, const std::string& uses_port) {
  return port(comp_name, uses_port,
              [this](int conn, const sidl::Interface& iface,
                     const rt::Communicator& cohort) {
                return std::shared_ptr<RemotePort>(
                    new RemotePort(this, conn, iface, cohort));
              });
}

int DistributedFramework::serve(const std::string& comp_name, int max_calls) {
  auto& provider = member(comp_name, "serve");
  int served = 0;
  bool shutdown = false;
  while (!shutdown && (max_calls < 0 || served < max_calls)) {
    rt::Message msg = world_.recv(rt::kAnySource, listen_tag(provider));
    served += dispatch(provider, std::move(msg), &shutdown);
  }
  return served;
}

int DistributedFramework::drain(const std::string& comp_name) {
  auto& provider = member(comp_name, "drain");
  const int tag = listen_tag(provider);
  int served = 0;
  bool shutdown = false;
  while (!shutdown && world_.probe(rt::kAnySource, tag)) {
    rt::Message msg = world_.recv(rt::kAnySource, tag);
    served += dispatch(provider, std::move(msg), &shutdown);
  }
  return served;
}

int DistributedFramework::serve_ordered(const std::string& comp_name,
                                        int max_calls) {
  auto& provider = member(comp_name, "serve_ordered");
  rt::Communicator cohort = provider.cohort;
  const int tag = listen_tag(provider);
  int served = 0;

  // Control block broadcast by the arbiter per decision.
  enum class Ctl : std::uint8_t { Stop, Go };

  while (max_calls < 0 || served < max_calls) {
    rt::Buffer ctl_bytes;
    rt::Message my_header;  // rank 0's own header for the announced call

    if (cohort.rank() == 0) {
      // Arbiter: pull the next listen-tag message; its arrival order IS the
      // global order.
      bool announced = false;
      while (!announced) {
        rt::Message msg = world_.recv(rt::kAnySource, tag);
        rt::UnpackBuffer u(msg.payload);
        const auto kind = static_cast<MsgKind>(u.unpack<std::uint8_t>());
        const int conn_id = u.unpack<int>();
        auto [conn, servant] = route(provider, conn_id);
        switch (kind) {
          case MsgKind::LayoutRequest:
            handle_layout_request(conn, servant, u, msg.src);
            break;  // control traffic; keep looking
          case MsgKind::Shutdown: {
            rt::PackBuffer b;
            b.pack(static_cast<std::uint8_t>(Ctl::Stop));
            ctl_bytes = std::move(b).take();
            announced = true;
            break;
          }
          case MsgKind::InvokeIndependent:
          case MsgKind::InvokeBatch:
            throw UsageError(
                "independent invocations cannot be globally ordered; use "
                "serve() for ports with independent methods");
          case MsgKind::Invoke: {
            // Peek seq/epoch/method/participants for the announcement.
            (void)u.unpack<int>();  // seq
            (void)u.unpack<int>();  // epoch
            (void)u.unpack<int>();  // method
            const auto participants = unpack_ranks(u);
            rt::PackBuffer b;
            b.pack(static_cast<std::uint8_t>(Ctl::Go));
            b.pack(conn_id);
            b.pack(participants);
            ctl_bytes = std::move(b).take();
            my_header = std::move(msg);
            announced = true;
            break;
          }
        }
      }
    }

    ctl_bytes = cohort.bcast(std::move(ctl_bytes), 0);
    rt::UnpackBuffer cu(ctl_bytes);
    if (static_cast<Ctl>(cu.unpack<std::uint8_t>()) == Ctl::Stop) break;
    const int conn_id = cu.unpack<int>();
    const auto participants = cu.unpack_vector<int>();

    rt::Message header;
    if (cohort.rank() == 0) {
      header = std::move(my_header);
    } else {
      // Pull OUR header for the announced call: from our designated caller,
      // oldest Invoke on the announced connection (FIFO among matches keeps
      // same-(conn, caller) streams in program order).
      const int designated =
          participants.at(cohort.rank() % participants.size());
      header = world_.recv_matching(
          designated, tag, [&](const rt::Message& m) {
            rt::UnpackBuffer u(m.payload);
            const auto kind = static_cast<MsgKind>(u.unpack<std::uint8_t>());
            return kind == MsgKind::Invoke && u.unpack<int>() == conn_id;
          });
    }

    rt::UnpackBuffer u(header.payload);
    (void)u.unpack<std::uint8_t>();  // kind
    (void)u.unpack<int>();           // conn
    auto [conn, servant] = route(provider, conn_id);
    if (handle_invoke(conn, servant, u, /*independent=*/false, header.src))
      ++served;
  }
  return served;
}

int DistributedFramework::dispatch(Component& provider, rt::Message msg,
                                   bool* shutdown) {
  rt::UnpackBuffer u(msg.payload);
  const auto kind = static_cast<MsgKind>(u.unpack<std::uint8_t>());
  auto [conn, servant] = route(provider, u.unpack<int>());

  switch (kind) {
    case MsgKind::Invoke:
      return handle_invoke(conn, servant, u, /*independent=*/false, msg.src)
                 ? 1
                 : 0;
    case MsgKind::InvokeIndependent:
      return handle_invoke(conn, servant, u, /*independent=*/true, msg.src)
                 ? 1
                 : 0;
    case MsgKind::InvokeBatch:
      return handle_invoke_batch(conn, servant, u, msg.src);
    case MsgKind::LayoutRequest:
      handle_layout_request(conn, servant, u, msg.src);
      return 0;
    case MsgKind::Shutdown:
      *shutdown = true;
      return 0;
  }
  throw UsageError("corrupt PRMI header");
}

void DistributedFramework::handle_layout_request(Connection& conn,
                                                 Servant& servant,
                                                 rt::UnpackBuffer& u,
                                                 int src_world) {
  const auto& m = servant.interface_desc().method_at(u.unpack<int>());
  rt::PackBuffer reply;
  std::string missing;
  std::vector<const core::FieldRegistration*> targets;  // null => deferred
  for (int p : parallel_params(m)) {
    const auto* t = servant.parallel_target(m.name, m.params[p].name);
    if (!t && yields_output(m.params[p].mode)) {
      // Deferral only works for inputs: outputs must flow back before the
      // call completes, so their layout must be known up front.
      missing = m.params[p].name;
      break;
    }
    targets.push_back(t);
  }
  if (!missing.empty()) {
    reply.pack(static_cast<std::uint8_t>(CallStatus::Error));
    reply.pack(std::string("no parallel target registered for out/inout "
                           "parameter '" +
                           missing + "' of method '" + m.name + "'"));
  } else {
    reply.pack(static_cast<std::uint8_t>(CallStatus::Ok));
    for (const auto* t : targets) {
      if (t) {
        reply.pack(static_cast<std::uint8_t>(LayoutKind::Registered));
        t->descriptor->pack(reply);
      } else {
        reply.pack(static_cast<std::uint8_t>(LayoutKind::Deferred));
      }
    }
  }
  world_.send(src_world, layout_reply_tag(conn.id), std::move(reply).take());
}

bool DistributedFramework::admit(Connection& conn, bool per_source, int seq,
                                 int epoch, int src_world) {
  // Sequence numbers are strictly increasing per stream; gaps are legal
  // because a caller's counter advances on every call even when the routing
  // (M != N, independent targets) sends it no header for some of them. A
  // header at or below the watermark is a retransmission of a call this
  // rank already executed: never re-run the handler — resend the cached
  // reply so the retrying caller can complete (idempotent, at-most-once
  // execution).
  DedupState& st = conn.state;
  int& last = per_source ? st.last_seq[src_world] : st.last_collective_seq;
  if (seq <= last) {
    static trace::Counter& dups = trace::counter("prmi.dup_requests");
    dups.add(1);
    trace::instant("prmi.dup_request", "prmi",
                   static_cast<std::uint64_t>(seq));
    auto it = st.reply_cache.find(src_world);
    if (it != st.reply_cache.end() && it->second.first == seq)
      world_.send(src_world, return_tag(conn.id), it->second.second);
    return false;
  }
  last = seq;
  if (epoch > 0)
    trace::instant("prmi.late_first_delivery", "prmi",
                   static_cast<std::uint64_t>(epoch));
  return true;
}

void DistributedFramework::send_reply(Connection& conn, int dst, int seq,
                                      const rt::Buffer& bytes) {
  conn.state.reply_cache[dst] = {seq, bytes};
  world_.send(dst, return_tag(conn.id), bytes);
}

bool DistributedFramework::handle_invoke(Connection& conn, Servant& servant,
                                         rt::UnpackBuffer& u,
                                         bool independent, int src_world) {
  trace::Span span("prmi.handle", "prmi",
                   static_cast<std::uint64_t>(conn.id));
  const int seq = u.unpack<int>();
  const int epoch = u.unpack<int>();  // caller attempt number, 0 = first
  const auto& m = servant.interface_desc().method_at(u.unpack<int>());
  const auto participants = unpack_ranks(u);
  // Collective calls are deduplicated per connection: the retransmitted
  // header may arrive from a different caller rank than the original.
  if (!admit(conn, independent, seq, epoch, src_world)) return false;

  auto& provider = comp(conn.prov_comp);
  const int j = provider.cohort.rank();
  const int caller_count = static_cast<int>(participants.size());

  // Unpack simple input arguments.
  std::vector<Value> args(m.params.size());
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    const auto& p = m.params[i];
    if (!p.type.parallel && takes_input(p.mode))
      args[i] = sidl::unpack_value<Value>(u, p.type);
  }
  // Caller-side descriptors of the parallel parameters.
  const auto pidx = parallel_params(m);
  std::vector<dad::DescriptorPtr> caller_descs;
  caller_descs.reserve(pidx.size());
  for (std::size_t k = 0; k < pidx.size(); ++k)
    caller_descs.push_back(std::make_shared<const dad::Descriptor>(
        dad::Descriptor::unpack(u)));

  auto coupling_in = make_coupling(world_, participants, conn.callee_ranks);

  // Redistribute parallel inputs into the pre-registered targets; inputs
  // without a target are DEFERRED — the handler pulls them when it has
  // decided the layout (§2.4, second strategy).
  std::vector<const core::FieldRegistration*> targets(pidx.size(), nullptr);
  std::vector<bool> deferred(pidx.size(), false);
  for (std::size_t k = 0; k < pidx.size(); ++k) {
    const auto& p = m.params[pidx[k]];
    targets[k] = servant.parallel_target(m.name, p.name);
    if (!targets[k]) {
      if (yields_output(p.mode))
        throw UsageError("no parallel target for out/inout '" + p.name +
                         "' of '" + m.name + "'");
      deferred[k] = true;
      continue;  // args slot stays empty until pulled
    }
    if (takes_input(p.mode)) {
      const auto s = cache_.get_shared(caller_descs[k],
                                       targets[k]->descriptor, -1, j);
      core::execute_erased(*s, nullptr, targets[k], coupling_in,
                           data_in_tag(conn.id, static_cast<int>(k)));
    }
    args[pidx[k]] = ParallelRef{targets[k]};
  }

  // Run the handler on this cohort rank.
  CalleeContext ctx;
  ctx.cohort = provider.cohort;
  ctx.caller_count = caller_count;
  ctx.collective = !independent;
  ctx.seq = seq;
  ctx.pull = [&](int param_index, const core::FieldRegistration& target) {
    if (m.oneway)
      throw UsageError("oneway handlers cannot pull deferred parameters");
    int k = -1;
    for (std::size_t i2 = 0; i2 < pidx.size(); ++i2)
      if (pidx[i2] == param_index) k = static_cast<int>(i2);
    if (k < 0 || !deferred[k])
      throw UsageError("pull: parameter " + std::to_string(param_index) +
                       " of '" + m.name + "' is not a deferred parallel "
                       "input");
    if (!target.descriptor || !core::writable(target.mode))
      throw UsageError("pull target needs a descriptor and write access");
    // The cohort leader asks every participant to send; all ranks receive
    // their share.
    if (j == 0) {
      rt::PackBuffer b;
      b.pack(static_cast<std::uint8_t>(ReplyKind::Pull));
      b.pack(k);
      target.descriptor->pack(b);
      // One refcounted block fanned to every participant.
      const rt::Buffer bytes = std::move(b).take_buffer();
      for (int pw : participants)
        world_.send(pw, return_tag(conn.id), bytes);
    }
    const auto s =
        cache_.get_shared(caller_descs[k], target.descriptor, -1, j);
    core::execute_erased(*s, nullptr, &target, coupling_in,
                         data_in_tag(conn.id, k));
  };

  rt::PackBuffer reply;
  reply.pack(static_cast<std::uint8_t>(ReplyKind::Return));
  const bool ok = sidl::run_handler(reply, m, seq, args, [&] {
    return servant.handler(m.name)(ctx, args);
  });
  if (m.oneway) return true;

  // Return values: independent calls answer their single caller; collective
  // calls answer the caller ranks mapped to this callee (replicating the
  // return when M > N — every caller receives a value, §4.2). The cache
  // entries and every destination share one reply block.
  const rt::Buffer reply_bytes = std::move(reply).take_buffer();
  if (independent) {
    send_reply(conn, src_world, seq, reply_bytes);
  } else {
    const int n = static_cast<int>(conn.callee_ranks.size());
    for (int i = j; i < caller_count; i += n)
      send_reply(conn, participants[i], seq, reply_bytes);
  }

  // Parallel outputs flow back, roles reversed.
  if (ok && !independent) {
    auto coupling_out =
        make_coupling(world_, conn.callee_ranks, participants);
    for (std::size_t k = 0; k < pidx.size(); ++k) {
      const auto& p = m.params[pidx[k]];
      if (!yields_output(p.mode)) continue;
      const auto s = cache_.get_shared(targets[k]->descriptor,
                                       caller_descs[k], j, -1);
      core::execute_erased(*s, targets[k], nullptr, coupling_out,
                           data_out_tag(conn.id, static_cast<int>(k)));
    }
  }
  return true;
}

int DistributedFramework::handle_invoke_batch(Connection& conn,
                                              Servant& servant,
                                              rt::UnpackBuffer& u,
                                              int src_world) {
  trace::Span span("prmi.handle_batch", "prmi",
                   static_cast<std::uint64_t>(conn.id));
  const int epoch = u.unpack<int>();
  const int first_seq = u.unpack<int>();
  const int count = u.unpack<int>();
  const auto participants = unpack_ranks(u);

  // Batch-wide dedup: the batch travelled as ONE wire message, so delivery
  // is all-or-nothing — if its first sub-sequence is at or below the
  // per-source watermark, this rank already executed the whole batch.
  // Answer wholesale from the reply cache.
  if (!admit(conn, /*per_source=*/true, first_seq, epoch, src_world))
    return 0;

  CalleeContext ctx;
  ctx.cohort = comp(conn.prov_comp).cohort;
  ctx.caller_count = static_cast<int>(participants.size());
  ctx.collective = false;

  rt::PackBuffer reply;
  reply.pack(static_cast<std::uint8_t>(ReplyKind::Batch));
  reply.pack(first_seq);
  reply.pack(count);
  int executed = 0;
  for (int i = 0; i < count; ++i) {
    const int seq = u.unpack<int>();
    const auto& m = servant.interface_desc().method_at(u.unpack<int>());
    const auto arg_bytes = u.unpack_vector<std::byte>();
    if (!parallel_params(m).empty())
      throw UsageError("batched call to '" + m.name +
                       "' carries parallel parameters");
    rt::UnpackBuffer au(arg_bytes);
    std::vector<Value> args(m.params.size());
    for (std::size_t p = 0; p < m.params.size(); ++p)
      if (takes_input(m.params[p].mode))
        args[p] = sidl::unpack_value<Value>(au, m.params[p].type);
    ctx.seq = seq;
    sidl::run_handler(reply, m, seq, args,
                      [&] { return servant.handler(m.name)(ctx, args); });
    conn.state.last_seq[src_world] = seq;
    ++executed;
  }

  static trace::Counter& batches = trace::counter("prmi.batches");
  static trace::Counter& batched = trace::counter("prmi.batched_calls");
  batches.add(1);
  batched.add(static_cast<std::uint64_t>(executed));

  // One reply block: the cache entry and the send share it, and a
  // retransmitted batch resends it without re-execution.
  send_reply(conn, src_world, first_seq, std::move(reply).take_buffer());
  return executed;
}

// ===========================================================================
// RemotePort
// ===========================================================================

RemotePort::RemotePort(DistributedFramework* fw, int conn,
                       sidl::Interface iface, rt::Communicator cohort)
    : fw_(fw), conn_(conn), iface_(std::move(iface)),
      cohort_(std::move(cohort)) {
  participants_world_ = fw_->conns_.at(conn_).caller_ranks;
}

std::shared_ptr<RemotePort> RemotePort::subset(
    const std::vector<int>& cohort_ranks) {
  const int me = cohort_.rank();
  int key = 0;
  bool member = false;
  std::vector<int> world;
  world.reserve(cohort_ranks.size());
  for (std::size_t i = 0; i < cohort_ranks.size(); ++i) {
    const int r = cohort_ranks[i];
    if (r < 0 || r >= cohort_.size())
      throw UsageError("subset rank out of cohort range");
    world.push_back(participants_world_.at(r));
    if (r == me) {
      member = true;
      key = static_cast<int>(i);
    }
  }
  auto sub = cohort_.split(member ? 0 : rt::kUndefinedColor, key);
  if (!member) return nullptr;
  auto proxy = std::shared_ptr<RemotePort>(
      new RemotePort(fw_, conn_, iface_, std::move(sub)));
  proxy->participants_world_ = std::move(world);
  proxy->seq_ = seq_;  // share per-connection monotonic sequence numbers
  proxy->check_simple_ = check_simple_;
  proxy->retry_ = retry_;
  return proxy;
}

const std::vector<std::optional<dad::DescriptorPtr>>& RemotePort::layouts(
    int method_idx, const sidl::Method& m) {
  auto it = layout_cache_.find(method_idx);
  if (it != layout_cache_.end()) return it->second;

  auto& conn = fw_->conns_.at(conn_);
  rt::Buffer bytes;
  if (cohort_.rank() == 0) {
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(MsgKind::LayoutRequest));
    b.pack(conn_);
    b.pack(method_idx);
    fw_->world_.send(conn.callee_ranks[0], conn.listen, std::move(b).take());
    bytes = fw_->world_.recv(conn.callee_ranks[0], layout_reply_tag(conn_))
                .payload;
  }
  bytes = cohort_.bcast(std::move(bytes), 0);
  rt::UnpackBuffer u(bytes);
  const auto status = static_cast<CallStatus>(u.unpack<std::uint8_t>());
  if (status == CallStatus::Error) throw RemoteError(u.unpack_string());
  std::vector<std::optional<dad::DescriptorPtr>> descs;
  for (std::size_t k = 0; k < parallel_params(m).size(); ++k) {
    if (static_cast<LayoutKind>(u.unpack<std::uint8_t>()) ==
        LayoutKind::Deferred) {
      descs.push_back(std::nullopt);
    } else {
      descs.push_back(std::make_shared<const dad::Descriptor>(
          dad::Descriptor::unpack(u)));
    }
  }
  return layout_cache_[method_idx] = std::move(descs);
}

template <class Resend, class Classify>
rt::Message RemotePort::await_reply(int src, int seq, bool replayable,
                                    Resend&& resend, Classify&& classify) {
  static trace::Counter& retries = trace::counter("prmi.retries");
  static trace::Counter& stale = trace::counter("prmi.stale_replies");
  const bool can_retry = replayable && retry_ && retry_->max_retries > 0;
  const int wait_ms = retry_ ? retry_->timeout_ms : -1;
  for (int attempt = 0;;) {
    rt::Message msg;
    try {
      msg = fw_->world_.recv(src, return_tag(conn_), wait_ms);
    } catch (const rt::TimeoutError&) {
      if (!can_retry || attempt >= retry_->max_retries) throw;
      ++attempt;
      retries.add(1);
      trace::instant("prmi.retry", "prmi", static_cast<std::uint64_t>(seq));
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retry_->backoff_ms * attempt));
      resend(attempt);
      continue;
    }
    rt::UnpackBuffer peek(msg.payload);
    switch (classify(peek)) {
      case Reply::Mine: return msg;
      case Reply::Stale:
        stale.add(1);
        trace::instant("prmi.stale_reply", "prmi");
        break;
      case Reply::Served: break;
    }
  }
}

RemotePort::Result RemotePort::invoke(MsgKind kind,
                                      const std::string& method_name,
                                      std::vector<Value> args,
                                      bool oneway_call, int target) {
  auto& conn = fw_->conns_.at(conn_);
  if (!pending_.empty())
    throw UsageError("proxy has " + std::to_string(pending_.size()) +
                     " queued batched call(s); flush_batch() before making "
                     "non-batched calls (sequence numbers must hit the wire "
                     "in order)");
  const int midx = iface_.method_index(method_name);
  const auto& m = iface_.methods[midx];
  const int caller_count = static_cast<int>(participants_world_.size());
  const int callee_count = static_cast<int>(conn.callee_ranks.size());
  const int my = cohort_.rank();  // participant index
  const bool independent = kind == MsgKind::InvokeIndependent;

  sidl::check_args(m, args, conforms);

  // Optional enforcement of the simple-argument convention (§2.4).
  if (check_simple_ && !independent) {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      const auto& p = m.params[i];
      if (!p.type.parallel && takes_input(p.mode))
        h = h * 31 + value_hash(args[i], p.type);
    }
    // One 2-element min-allreduce instead of a min round plus a max round:
    // min(~h) == ~max(h), so {h, ~h} under min yields both extremes.
    const std::uint64_t pair[2] = {h, ~h};
    const auto mins = cohort_.allreduce(
        std::span<const std::uint64_t>(pair),
        [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
    const std::uint64_t lo = mins[0];
    const std::uint64_t hi = ~mins[1];
    if (lo != hi)
      throw UsageError("simple arguments of '" + method_name +
                       "' differ across caller ranks");
  }

  const auto pidx = parallel_params(m);
  const std::vector<std::optional<dad::DescriptorPtr>>* callee_layouts =
      nullptr;
  bool any_deferred = false;
  if (!pidx.empty()) {
    callee_layouts = &layouts(midx, m);
    for (const auto& d : *callee_layouts) any_deferred = any_deferred || !d;
    if (any_deferred && oneway_call)
      throw UsageError(
          "oneway methods cannot take deferred parallel parameters (nobody "
          "stays to serve the pull)");
  }

  const int seq = ++*seq_;

  static trace::Histogram& invoke_ns = trace::histogram("prmi.invoke_ns");
  static trace::Counter& invocations = trace::counter("prmi.invocations");
  invocations.add(1);
  trace::Span invoke_span("prmi.invoke", "prmi",
                          static_cast<std::uint64_t>(seq), &invoke_ns);

  // Header. It carries the participants' world ranks: with subset
  // participation the callee cannot derive them from static connection
  // metadata ("any parallel remote invocation must somehow include
  // sufficient information to identify the participating tasks", §2.4).
  // Rebuilt per attempt: the epoch field distinguishes retransmissions.
  auto make_header = [&](int epoch) {
    trace::Span marshal("prmi.marshal", "prmi");
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(kind));
    b.pack(conn_);
    b.pack(seq);
    b.pack(epoch);
    b.pack(midx);
    b.pack(participants_world_);
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      const auto& p = m.params[i];
      if (!p.type.parallel && takes_input(p.mode))
        sidl::pack_value(b, args[i], p.type);
    }
    for (int p : pidx)
      std::get<ParallelRef>(args[p]).binding->descriptor->pack(b);
    return std::move(b).take_buffer();
  };

  if (independent) {
    if (target < 0) target = my % callee_count;
    if (target >= callee_count)
      throw UsageError("independent call target rank out of range");
  }
  // The callee whose reply this rank waits for. For collective calls it is
  // `my % callee_count` — included on retries even when the original
  // routing sent it no header from this rank (M > N), so the resend always
  // reaches the rank holding our cached reply.
  const int replier = independent ? target : my % callee_count;
  auto send_headers = [&](int epoch) {
    // All callees share one refcounted header block.
    const rt::Buffer header = make_header(epoch);
    trace::Span deliver("prmi.deliver", "prmi", header.size());
    if (independent) {
      fw_->world_.send(conn.callee_ranks[target], conn.listen, header);
      return;
    }
    bool sent_to_replier = false;
    for (int j = my; j < callee_count; j += caller_count) {
      fw_->world_.send(conn.callee_ranks[j], conn.listen, header);
      sent_to_replier = sent_to_replier || j == replier;
    }
    if (epoch > 0 && !sent_to_replier)
      fw_->world_.send(conn.callee_ranks[replier], conn.listen, header);
  };

  {
    send_headers(/*epoch=*/0);
    trace::Span deliver("prmi.deliver_parallel", "prmi");

    // Parallel inputs.
    if (!pidx.empty()) {
      auto coupling =
          make_coupling(fw_->world_, participants_world_, conn.callee_ranks);
      for (std::size_t k = 0; k < pidx.size(); ++k) {
        const auto& p = m.params[pidx[k]];
        if (!takes_input(p.mode)) continue;
        if (!(*callee_layouts)[k]) continue;  // deferred: pulled mid-call
        const auto* binding = std::get<ParallelRef>(args[pidx[k]]).binding;
        const auto s = fw_->cache_.get_shared(binding->descriptor,
                                              *(*callee_layouts)[k], my, -1);
        core::execute_erased(*s, binding, nullptr, coupling,
                             data_in_tag(conn_, static_cast<int>(k)));
      }
    }
  }

  if (oneway_call) return {};

  // Park on the reply stream: serve any mid-call pull requests for
  // deferred parameters, discard stale replies (a retried predecessor's
  // duplicate), retry on deadline expiry, then take the return. Parallel
  // and deferred parameters carry data streams that cannot be replayed, so
  // those methods get the deadline (typed TimeoutError) but no resend.
  rt::Message msg;
  {
    trace::Span wait_ret("prmi.wait_return", "prmi");
    msg = await_reply(
        rt::kAnySource, seq, pidx.empty() && !any_deferred, send_headers,
        [&](rt::UnpackBuffer& peek) {
          switch (static_cast<ReplyKind>(peek.unpack<std::uint8_t>())) {
            case ReplyKind::Batch:
              // A duplicated batch reply from an earlier flush (retry
              // fallout); that flush already completed.
              return Reply::Stale;
            case ReplyKind::Return:
              (void)peek.unpack<std::uint8_t>();  // status
              return peek.unpack<int>() < seq ? Reply::Stale : Reply::Mine;
            case ReplyKind::Pull: break;
            default: throw UsageError("corrupt PRMI reply");
          }
          // Pull request: {index within the parallel list, dst descriptor}.
          const int k = peek.unpack<int>();
          if (k < 0 || k >= static_cast<int>(pidx.size()))
            throw UsageError("pull request for a non-parallel parameter");
          auto dst_desc = std::make_shared<const dad::Descriptor>(
              dad::Descriptor::unpack(peek));
          const auto* binding = std::get<ParallelRef>(args[pidx[k]]).binding;
          auto coupling = make_coupling(fw_->world_, participants_world_,
                                        conn.callee_ranks);
          const auto s =
              fw_->cache_.get_shared(binding->descriptor, dst_desc, my, -1);
          core::execute_erased(*s, binding, nullptr, coupling,
                               data_in_tag(conn_, k));
          return Reply::Served;
        });
  }
  rt::UnpackBuffer u(msg.payload);
  (void)u.unpack<std::uint8_t>();  // ReplyKind::Return
  Result result;
  sidl::unpack_reply(u, m, seq, result.ret, args);

  // Parallel outputs.
  if (!pidx.empty() && !independent) {
    auto coupling =
        make_coupling(fw_->world_, conn.callee_ranks, participants_world_);
    for (std::size_t k = 0; k < pidx.size(); ++k) {
      const auto& p = m.params[pidx[k]];
      if (!yields_output(p.mode)) continue;
      const auto* binding = std::get<ParallelRef>(args[pidx[k]]).binding;
      // Out/inout parallel params are always Registered (layout fetch
      // enforces it), so the optional holds a descriptor here.
      const auto s = fw_->cache_.get_shared(*(*callee_layouts)[k],
                                            binding->descriptor, -1, my);
      core::execute_erased(*s, nullptr, binding, coupling,
                           data_out_tag(conn_, static_cast<int>(k)));
    }
  }

  result.args = std::move(args);
  return result;
}

RemotePort::Result RemotePort::call(const std::string& method,
                                    std::vector<Value> args) {
  const auto& m = iface_.method(method);
  if (m.kind != sidl::InvocationKind::Collective)
    throw UsageError("method '" + method +
                     "' is independent; use call_independent");
  if (m.oneway)
    throw UsageError("method '" + method + "' is oneway; use call_oneway");
  return invoke(MsgKind::Invoke, method, std::move(args), false, -1);
}

void RemotePort::call_oneway(const std::string& method,
                             std::vector<Value> args) {
  const auto& m = iface_.method(method);
  if (!m.oneway)
    throw UsageError("method '" + method + "' is not oneway");
  if (m.kind != sidl::InvocationKind::Collective)
    throw UsageError("oneway independent methods use call_independent");
  invoke(MsgKind::Invoke, method, std::move(args), true, -1);
}

RemotePort::Result RemotePort::call_independent(const std::string& method,
                                                std::vector<Value> args,
                                                int target) {
  const auto& m = iface_.method(method);
  if (m.kind != sidl::InvocationKind::Independent)
    throw UsageError("method '" + method +
                     "' is collective; use call / call_oneway");
  return invoke(MsgKind::InvokeIndependent, method, std::move(args),
                m.oneway, target);
}

int RemotePort::queue_independent(const std::string& method,
                                  std::vector<Value> args, int target) {
  auto& conn = fw_->conns_.at(conn_);
  const int midx = iface_.method_index(method);
  const auto& m = iface_.methods[midx];
  if (m.kind != sidl::InvocationKind::Independent)
    throw UsageError("method '" + method +
                     "' is collective; only independent calls can be "
                     "batched");
  if (m.oneway)
    throw UsageError("oneway methods cannot be batched (a batch completes "
                     "through its reply)");
  if (!parallel_params(m).empty())
    throw UsageError("method '" + method +
                     "' has parallel parameters; its data streams cannot "
                     "be coalesced");
  sidl::check_args(m, args, conforms);
  const int callee_count = static_cast<int>(conn.callee_ranks.size());
  if (target < 0) target = cohort_.rank() % callee_count;
  if (target >= callee_count)
    throw UsageError("independent call target rank out of range");

  PendingCall pc;
  pc.seq = ++*seq_;  // the ordinary per-connection counter: dedup machinery
                     // sees batched and plain calls as one stream
  pc.midx = midx;
  pc.target = target;
  rt::PackBuffer b;
  for (std::size_t i = 0; i < m.params.size(); ++i)
    if (takes_input(m.params[i].mode))
      sidl::pack_value(b, args[i], m.params[i].type);
  pc.args = std::move(b).take();
  pending_.push_back(std::move(pc));
  return static_cast<int>(pending_.size()) - 1;
}

std::vector<RemotePort::Result> RemotePort::flush_batch() {
  if (pending_.empty()) return {};
  auto& conn = fw_->conns_.at(conn_);

  static trace::Counter& batches = trace::counter("prmi.batches_sent");
  static trace::Counter& batched = trace::counter("prmi.batched_calls_sent");
  trace::Span span("prmi.flush_batch", "prmi", pending_.size());

  // Group queued calls by target callee, preserving queue order per target.
  std::map<int, std::vector<std::size_t>> by_target;
  for (std::size_t i = 0; i < pending_.size(); ++i)
    by_target[pending_[i].target].push_back(i);

  // One wire message per target. Rebuilt per attempt (the epoch field
  // distinguishes retransmissions, as for plain calls).
  auto make_batch = [&](const std::vector<std::size_t>& idxs, int epoch) {
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(MsgKind::InvokeBatch));
    b.pack(conn_);
    b.pack(epoch);
    b.pack(pending_[idxs.front()].seq);  // first_seq: the dedup key
    b.pack(static_cast<int>(idxs.size()));
    b.pack(participants_world_);
    for (std::size_t i : idxs) {
      b.pack(pending_[i].seq);
      b.pack(pending_[i].midx);
      b.pack(pending_[i].args);
    }
    return std::move(b).take_buffer();
  };
  for (const auto& [target, idxs] : by_target) {
    fw_->world_.send(conn.callee_ranks[target], conn.listen,
                     make_batch(idxs, /*epoch=*/0));
    batches.add(1);
    batched.add(idxs.size());
  }

  // Collect one batch reply per target. Receives are per-source, so
  // replies from different targets cannot be confused; per-(src, tag) FIFO
  // keeps each target's stream ordered. Whatever goes wrong, the batch is
  // poisoned: drop it rather than wedge the proxy.
  std::vector<Result> results(pending_.size());
  try {
    for (const auto& [target, idxs] : by_target) {
      const int src_world = conn.callee_ranks[target];
      const int first_seq = pending_[idxs.front()].seq;
      const rt::Message msg = await_reply(
          src_world, first_seq, /*replayable=*/true,
          [&](int attempt) {
            fw_->world_.send(src_world, conn.listen, make_batch(idxs, attempt));
          },
          [&](rt::UnpackBuffer& peek) {
            // Anything else on this stream predates the batch: a duplicated
            // reply to an earlier (plain or batched) call.
            const bool mine =
                static_cast<ReplyKind>(peek.unpack<std::uint8_t>()) ==
                    ReplyKind::Batch &&
                peek.unpack<int>() == first_seq;
            return mine ? Reply::Mine : Reply::Stale;
          });
      rt::UnpackBuffer u(msg.payload);
      (void)u.unpack<std::uint8_t>();  // ReplyKind::Batch
      (void)u.unpack<int>();           // first_seq
      if (u.unpack<int>() != static_cast<int>(idxs.size()))
        throw UsageError("batch reply count mismatch on connection " +
                         std::to_string(conn_));
      for (std::size_t i : idxs) {
        const auto& m = iface_.methods[pending_[i].midx];
        results[i].args.resize(m.params.size());
        sidl::unpack_reply(u, m, pending_[i].seq, results[i].ret,
                           results[i].args);
      }
    }
  } catch (...) {
    pending_.clear();
    throw;
  }
  pending_.clear();
  return results;
}

void RemotePort::shutdown_provider() {
  auto& conn = fw_->conns_.at(conn_);
  const int caller_count = static_cast<int>(participants_world_.size());
  const int callee_count = static_cast<int>(conn.callee_ranks.size());
  rt::PackBuffer b;
  b.pack(static_cast<std::uint8_t>(MsgKind::Shutdown));
  b.pack(conn_);
  const rt::Buffer bytes = std::move(b).take_buffer();
  for (int j = cohort_.rank(); j < callee_count; j += caller_count)
    fw_->world_.send(conn.callee_ranks[j], conn.listen, bytes);
}

}  // namespace mxn::prmi
