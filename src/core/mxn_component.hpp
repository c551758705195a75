#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/component.hpp"
#include "core/field.hpp"
#include "sched/cache.hpp"
#include "sched/coupling.hpp"

namespace mxn::core {

using ConnectionId = int;

class TransmissionPolicy;  // core/transmission_policy.hpp

/// How a coupling moves data (paper §4.1, unifying the PAWS and CUMULVS
/// connection models under one interface):
///  - one_shot == true: a single transfer (PAWS send/receive pairing); the
///    connection retires after it completes.
///  - persistent: recurs automatically — the source's every `period`-th
///    dataReady() initiates a transfer (CUMULVS periodic channels).
///  - handshake: "tight" synchronization option — the source's dataReady
///    blocks until every destination peer acknowledges receipt, bounding
///    the skew between producer and consumer. Without it the source runs
///    ahead freely (loose synchronization; sends are buffered).
struct ConnectionSpec {
  std::string src_field;
  std::string dst_field;
  int src_side = 0;  // which side of the pair exports (0 or 1)
  bool one_shot = true;
  int period = 1;
  bool handshake = false;

  /// Reliable (two-phase, ack'd) transfer mode — see docs/FAULTS.md. Every
  /// transfer runs as: serial-framed data → per-peer acks → commit;
  /// destinations stage incoming payloads and inject only after every
  /// commit arrived, so a faulted attempt leaves the destination field
  /// untouched. Failed attempts are retried up to `max_retries` times under
  /// a bumped attempt serial (stale traffic from an aborted attempt is
  /// drained and discarded, never delivered); exhaustion raises
  /// TransferError with the destination state unchanged.
  bool reliable = false;

  /// Per-receive deadline (ms) during a transfer: < 0 inherits the spawn
  /// default, 0 waits forever (retries then never trigger), > 0 recommended
  /// whenever `reliable` is set.
  int timeout_ms = -1;

  /// Extra attempts after the first, in reliable mode.
  int max_retries = 2;

  void pack(rt::PackBuffer& b) const;
  static ConnectionSpec unpack(rt::UnpackBuffer& u);
};

/// Cumulative per-connection counters.
struct TransferStats {
  std::uint64_t transfers = 0;
  std::uint64_t elements = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retries = 0;   // failed attempts that were retried
  std::uint64_t failures = 0;  // transfers abandoned after max_retries
};

/// Channel-rank layout of an elastic component's two sides: `side0[i]` /
/// `side1[i]` is the channel rank holding cohort rank i of that side. Every
/// channel rank on neither side is a *spectator* — it participates in the
/// collective lifecycle calls (establish, rescale) but holds no fields and
/// moves no data, and can be admitted into a side by a later rescale.
struct Layout {
  std::vector<int> side0;
  std::vector<int> side1;

  [[nodiscard]] const std::vector<int>& side(int s) const {
    return s == 0 ? side0 : side1;
  }
  /// 0, 1, or -1 for a spectator.
  [[nodiscard]] int side_of(int channel_rank) const;
  /// Throws UsageError unless both sides are non-empty, disjoint,
  /// duplicate-free and within [0, channel_size).
  void validate(int channel_size) const;
};

/// Cumulative per-component rescale counters (also mirrored into the global
/// trace registry as rescale.*). Byte counts are this rank's local view:
/// senders count what they shipped, receivers what they staged.
struct RescaleStats {
  std::uint64_t epochs = 0;
  std::uint64_t migrated_bytes = 0;  // moved over the channel
  std::uint64_t local_bytes = 0;     // same-rank fast path (local copy)
  std::uint64_t retries = 0;         // migration attempts that were retried
  std::int64_t stall_ns = 0;         // this rank's wait at the epoch fences
  std::int64_t rescale_ns = 0;       // total wall time inside rescale()
};

/// What one MxNComponent::relayout() moved, in this rank's local view.
struct RelayoutStats {
  std::uint64_t migrated_bytes = 0;  // moved over the communicator
  std::uint64_t local_bytes = 0;     // same-rank fast path (local copy)
  std::uint64_t retries = 0;         // migration attempts that were retried
};

/// One exchange of a relayout: who sources which old cohort slot.
/// `holders.side(s)[i]` is the rank (in the relayout communicator) that
/// sources old slot i of side s in this exchange, or -2 when another
/// exchange sources it. `fields[s]` maps field name to this rank's source
/// registration for the slot it holds on side s (empty if it holds none).
struct RelayoutExchange {
  Layout holders;
  std::map<std::string, FieldRegistration> fields[2];
};

/// A reliable transfer exhausted its retries without completing. The local
/// destination field (if any) is untouched: payloads are staged and only
/// injected after the commit phase. The connection stays established — the
/// next data_ready() retries on fresh epoch tags, so a transient fault (or
/// a restored peer) can still succeed later.
class TransferError : public rt::Error {
 public:
  using Error::Error;
};

/// The provides-port interface of the M×N component (paper §4.1). Paired
/// instances are co-located with the two coupled parallel programs; the pair
/// communicates over an internal channel that is out-of-band as far as the
/// CCA specification is concerned (Figure 3).
class MxNService : public Port {
 public:
  /// Register a parallel data field by its DAD handle and local memory.
  /// Cohort-collective.
  virtual void register_field(const FieldRegistration& field) = 0;

  virtual void unregister_field(const std::string& name) = 0;

  /// Establish a connection. Cohort-collective on BOTH sides of the pair
  /// (both programs call establish with an equivalent spec); descriptors
  /// are exchanged over the channel and the communication schedule is
  /// computed (and cached) locally.
  virtual ConnectionId establish(const ConnectionSpec& spec) = 0;

  /// Propose a connection to the peer side without its prior agreement: the
  /// spec travels over the channel and the peer picks it up in
  /// accept_proposal(). Lets one side — or a third-party controller driving
  /// one side — initiate coupling, so legacy codes need no coupling logic
  /// (paper §4.1: "neither side of an M×N connection need be fully aware...
  /// of the nature of any such connections"). Cohort-collective on the
  /// calling side; returns the local connection id.
  virtual ConnectionId propose(const ConnectionSpec& spec) = 0;

  /// Receive a proposed spec from the channel and establish it locally.
  /// Cohort-collective; blocks until a proposal arrives.
  virtual ConnectionId accept_proposal() = 0;

  /// Declare this instance's local portion of `field` consistent and ready
  /// (paper §4.1). Source instances initiate their pairwise sends for every
  /// due connection on the field; destination instances complete their
  /// pairwise receives. No synchronization barrier is involved on either
  /// side. Returns the number of connections that moved data.
  virtual int data_ready(const std::string& field) = 0;

  /// Retire a connection locally.
  virtual void disconnect(ConnectionId id) = 0;

  [[nodiscard]] virtual TransferStats stats(ConnectionId id) const = 0;
  [[nodiscard]] virtual bool active(ConnectionId id) const = 0;

  /// Serialize this rank's local contents of every registered readable
  /// field — the checkpointing half of CUMULVS's fault-tolerance role
  /// ("CUMULVS: Providing fault tolerance, visualization and steering of
  /// parallel applications", paper ref [14]). The blob is per-rank; a
  /// restarted cohort re-registers its fields (same names, same
  /// decomposition) and calls restore_fields.
  [[nodiscard]] virtual std::vector<std::byte> checkpoint_fields() const = 0;

  /// Inverse of checkpoint_fields. Fields present in the blob but not
  /// currently registered (or with mismatched sizes) raise UsageError.
  virtual void restore_fields(std::span<const std::byte> blob) = 0;
};

/// Concrete M×N component. Instantiate one per process on each side of a
/// coupling; `side` is 0 or 1, `channel` spans both programs, and
/// `side_ranks[s]` lists the channel ranks of side s (index == cohort rank).
class MxNComponent final : public Component, public MxNService {
 public:
  MxNComponent(rt::Communicator channel, rt::Communicator cohort, int side,
               std::vector<int> side0_ranks, std::vector<int> side1_ranks);

  /// Elastic instance (docs/RESCALING.md): `side` is this rank's side under
  /// `layout` (-1 for a spectator, whose `cohort` is the null communicator).
  /// Prefer make_elastic_mxn, which derives cohort and side collectively.
  MxNComponent(rt::Communicator channel, rt::Communicator cohort, int side,
               Layout layout);

  // Component
  void set_services(Services& services) override;

  // MxNService
  void register_field(const FieldRegistration& field) override;
  void unregister_field(const std::string& name) override;
  ConnectionId establish(const ConnectionSpec& spec) override;
  ConnectionId propose(const ConnectionSpec& spec) override;
  ConnectionId accept_proposal() override;
  int data_ready(const std::string& field) override;
  void disconnect(ConnectionId id) override;
  [[nodiscard]] TransferStats stats(ConnectionId id) const override;
  [[nodiscard]] bool active(ConnectionId id) const override;
  [[nodiscard]] std::vector<std::byte> checkpoint_fields() const override;
  void restore_fields(std::span<const std::byte> blob) override;

  [[nodiscard]] int side() const { return side_; }

  // --- multi-tenant fabric hooks (src/fabric, docs/PERFORMANCE.md) ---------
  /// Drive exactly one connection's transfer, regardless of which field it
  /// couples — the per-tenant analogue of data_ready(field), used by the
  /// fabric to tick tenants independently. Period gating applies on the
  /// source side as in data_ready. Returns true if the connection moved
  /// data (false if retired or gated off this call).
  bool data_ready_connection(ConnectionId id);

  /// Replace the connection's transmission policy (eager / rendezvous /
  /// reliable two-phase / custom) chosen at establish time from the spec's
  /// flags. Local: each side may be overridden independently, but the two
  /// sides' policies must agree on the wire protocol they speak.
  void set_policy(ConnectionId id,
                  std::shared_ptr<const TransmissionPolicy> policy);
  /// The connection's current policy name ("eager", "rendezvous", ...).
  [[nodiscard]] const char* policy_name(ConnectionId id) const;

  /// Re-shard and budget this component's schedule cache (see
  /// sched::ScheduleCacheConfig). Connections pin their schedules, so
  /// eviction under a byte budget never invalidates an established tenant.
  void configure_schedule_cache(const sched::ScheduleCacheConfig& cfg) {
    cache_.configure(cfg);
  }
  [[nodiscard]] sched::ScheduleCache::Stats schedule_cache_stats() const {
    return cache_.stats();
  }
  [[nodiscard]] std::size_t schedule_cache_bytes() const {
    return cache_.bytes();
  }
  [[nodiscard]] std::size_t schedule_cache_evicted() const {
    return cache_.evicted();
  }

  // --- elastic rescaling (docs/RESCALING.md) -------------------------------
  /// Live repartition of this component onto `new_layout`, channel-collective
  /// over EVERY channel rank (members of either side and spectators alike):
  ///
  ///  1. epoch fence — a channel barrier drains all in-flight traffic of the
  ///     old epoch (collectivity means every rank has finished its pre-fence
  ///     data_ready calls);
  ///  2. migrate — for every registered field, an old→new delta schedule
  ///     (sched::build_delta_schedule) moves each owned region from its old
  ///     owner to its new one: same-rank regions by a local extract→inject,
  ///     the rest over the channel via the two-phase reliable exchange on
  ///     per-epoch migration tags (fault-tolerant: drop/dup/reorder/delay
  ///     are absorbed by retries and attempt serials);
  ///  3. splice — the side cohorts are rebuilt with Communicator::subset,
  ///     admitting ranks that were spectators and retiring ranks that now
  ///     are;
  ///  4. swap — field registrations are replaced by `new_fields` (their
  ///     descriptors stamped with the new epoch via Descriptor::with_version)
  ///     and every live connection's coupling and schedule are rebuilt;
  ///     only then is the previous epoch's schedule-cache generation retired.
  ///
  /// `new_fields` holds this rank's registrations for its NEW side — one per
  /// currently registered field name of that side (a field name may be
  /// omitted cohort-wide only when the side's rank list is unchanged, in
  /// which case the old registration is kept and no migration runs for it).
  /// Spectator ranks pass an empty vector. Migrated fields must be readable
  /// on the old side and writable on the new one.
  void rescale(const Layout& new_layout,
               std::vector<FieldRegistration> new_fields, int timeout_ms = -1,
               int max_retries = 2);

  /// False on spectator ranks (elastic components only).
  [[nodiscard]] bool is_member() const { return side_ >= 0; }
  [[nodiscard]] bool elastic() const { return elastic_; }
  /// Number of completed rescales (the current descriptor generation).
  [[nodiscard]] std::uint64_t rescale_epoch() const { return repoch_; }
  [[nodiscard]] const RescaleStats& rescale_stats() const { return rstats_; }
  /// Current channel-rank layout: side(0) and side(1) of the live epoch.
  [[nodiscard]] Layout layout() const { return {side_ranks_[0], side_ranks_[1]}; }

  // --- failure-recovery hooks (src/redundancy, docs/REDUNDANCY.md) ----------
  /// The pair-wide channel communicator (cheap shared handle).
  [[nodiscard]] rt::Communicator channel() const { return channel_; }
  /// This rank's side cohort communicator (null on spectators).
  [[nodiscard]] rt::Communicator cohort() const { return cohort_; }
  /// This rank's registered fields (empty on spectators).
  [[nodiscard]] const std::map<std::string, FieldRegistration>& fields() const {
    return fields_;
  }
  /// The relayout engine behind rescale() and RedundancyGroup::recover().
  /// Opens the next descriptor generation, migrates every field of both
  /// sides from the old slots' holders onto `new_layout`, and splices the
  /// component onto `comm`: side cohorts re-minted with subset, field
  /// registrations swapped, live connections re-established, the previous
  /// schedule-cache generation retired. Collective over every rank of
  /// `comm`; `exchanges` and `new_layout` use its numbering, and
  /// `new_fields` means what it means for rescale(). `exchanges` run in
  /// order: a rescale passes one, where every old member holds its own slot;
  /// a recovery adds one in which proxies hold dead ranks' slots. Each
  /// exchange gets `1 + max_retries` attempts with a per-receive deadline of
  /// `attempt_timeout_ms`. No epoch fence: the caller has quiesced `comm`.
  RelayoutStats relayout(rt::Communicator comm,
                         const std::vector<RelayoutExchange>& exchanges,
                         const Layout& new_layout,
                         std::vector<FieldRegistration> new_fields,
                         int attempt_timeout_ms, int max_retries);

 private:
  struct Connection;

  const FieldRegistration& field(const std::string& name) const;
  ConnectionId establish_impl(const ConnectionSpec& spec);
  ConnectionId establish_elastic(const ConnectionSpec& spec);
  void run_transfer(Connection& c);
  void reestablish_connections();
  // The descriptor packed in `bytes`, shared by every connection that got
  // the same bytes while one of them lives: unpacked only on first sight
  // or after the last user let go, so schedule-cache keys compare by
  // pointer and each distinct descriptor builds its spatial index once.
  dad::DescriptorPtr intern_descriptor(const rt::Buffer& bytes);
  // Collective broadcast of a descriptor from `root` (which packs `mine`;
  // other ranks pass null), interned on every rank.
  dad::DescriptorPtr bcast_descriptor(rt::Communicator& ch, int root,
                                      const dad::DescriptorPtr& mine);

  rt::Communicator channel_;
  rt::Communicator cohort_;
  int side_;
  std::vector<int> side_ranks_[2];

  std::map<std::string, FieldRegistration> fields_;
  std::map<ConnectionId, std::unique_ptr<Connection>> connections_;
  sched::ScheduleCache cache_;
  // Interned descriptors by wire bytes; expired ones are swept once the map
  // passes interned_sweep_at_.
  std::unordered_map<std::string, std::weak_ptr<const dad::Descriptor>>
      interned_;
  std::size_t interned_sweep_at_ = 64;
  int next_id_ = 1;
  // Pair-wide connection sequence number; advances identically on both
  // sides because establishment is collective across the pair.
  int seq_ = 0;

  bool elastic_ = false;
  std::uint64_t repoch_ = 0;
  RescaleStats rstats_;
};

/// Wire a pair of MxN components across one world communicator: side 0 =
/// world ranks [0, m), side 1 = [m, m+n). Every process gets its own
/// instance (SPMD). Purely a convenience for tests, examples and benches.
std::shared_ptr<MxNComponent> make_paired_mxn(rt::Communicator world, int m,
                                              int n);

/// Wire an elastic pair over `channel` (docs/RESCALING.md): channel-collective
/// — EVERY channel rank calls it with the same layout and gets an instance
/// (spectator instances included), so the component can later rescale onto
/// any subset of the channel.
std::shared_ptr<MxNComponent> make_elastic_mxn(rt::Communicator channel,
                                               Layout initial);

}  // namespace mxn::core
