#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mxn_component.hpp"
#include "rt/buffer.hpp"
#include "rt/error.hpp"

namespace mxn::redundancy {

/// A recovery could not reconstruct the lost state: more ranks died than the
/// XOR parity scheme tolerates (one per partner group), or no encode epoch
/// covers the layout the ranks died under. Raised identically on every live
/// rank, so the cohort fails closed instead of hanging.
class RebuildError : public rt::Error {
 public:
  using Error::Error;
};

struct RedundancyOptions {
  /// Partner-group size m. The member ranks of both sides are partitioned
  /// (in ascending channel-rank order) into groups of m, and each group
  /// tolerates ONE death: every member XOR-stripes its snapshot across the
  /// other m-1 members, redset style, so each member holds one parity block
  /// of roughly blob_size / (m-1) bytes per peer group. m = 2 degrades to
  /// plain mirroring. A trailing group of 1 is folded into its predecessor.
  int group_size = 4;
  /// Per-wait deadline for encode/recover traffic; < 0 inherits the spawn
  /// default (SpawnOptions::default_recv_timeout_ms), 0 waits forever.
  int timeout_ms = -1;
  /// Extra delivery/migration attempts after the first (encode acks and the
  /// reliable exchanges of the rebuild migration).
  int max_retries = 2;
};

struct EncodeStats {
  std::uint64_t epoch = 0;        // encode generation (monotonic per group)
  std::uint64_t blob_bytes = 0;   // this rank's serialized field snapshot
  std::uint64_t parity_bytes = 0; // parity this rank now holds for partners
  std::uint64_t sent_bytes = 0;   // chunk + header bytes shipped
};

struct RecoverStats {
  std::vector<int> dead_channel_ranks;  // in the OLD channel's numbering
  std::uint64_t rebuilt_bytes = 0;   // reconstructed blob bytes (at proxies)
  std::uint64_t migrated_bytes = 0;  // wire bytes of the relayout exchanges
  std::uint64_t local_bytes = 0;     // same-rank local-copy bytes
  std::int64_t recover_ns = 0;
};

/// Read-only FieldRegistration over a serialized blob: its storage view is
/// a field's local storage held in `blob` from byte `offset`, laid out as
/// `descriptor`'s patches for cohort slot `cohort_rank` (the layout a
/// DistArray stores), and the registration keeps `blob` alive. This is how
/// both survivor snapshots and rebuilt dead-rank blobs feed the relayout.
core::FieldRegistration blob_backed_field(std::string name,
                                          dad::DescriptorPtr descriptor,
                                          std::size_t elem_size,
                                          std::uint64_t offset,
                                          int cohort_rank, rt::Buffer blob);

namespace detail {

struct FieldMeta {
  std::string name;
  std::uint64_t elem_size = 0;
  dad::DescriptorPtr descriptor;
  std::uint64_t offset = 0;  // byte offset of the field in the owner's blob
  std::uint64_t bytes = 0;
};

/// What a member knows about one partner: enough to rebuild and re-inject
/// the partner's blob without the partner (serialized group metadata).
struct PeerHeader {
  std::uint64_t blob_size = 0;
  int side = -1;
  int cohort_rank = -1;
  std::vector<FieldMeta> fields;
};

/// The group metadata a member sends with its encode chunk.
std::vector<std::byte> pack_meta(int side, int cohort_rank,
                                 const std::vector<FieldMeta>& fields);

/// Decode a partner's metadata for a blob of `blob_size` bytes. Hostile
/// input is a UsageError (docs/FAULTS.md, decode contract): a side other
/// than 0 or 1, a cohort rank outside a field descriptor's ranks, a field
/// count the bytes cannot hold, or fields that overrun the blob.
PeerHeader unpack_meta(std::span<const std::byte> bytes,
                       std::uint64_t blob_size);

struct EncodeState;

}  // namespace detail

/// Erasure-coded state redundancy for one MxNComponent (docs/REDUNDANCY.md).
///
///   encode()  — called by EVERY channel rank (spectators no-op): each
///               member packs its locally owned patches of every registered
///               field into one pooled rt::Buffer blob, splits the blob into
///               m-1 chunks and sends
///               chunk c to the partner at group position (pos + 1 + c) % m,
///               which XORs it (zero-extended) into its parity block. Runs
///               on a dedicated tag with ack/retry/dedup delivery, so it
///               composes with live couplings and survives drop/dup/reorder
///               chaos.
///   recover() — called by EVERY live channel rank (members and spectators)
///               after the universe reports rank death: survivors rendezvous
///               via Communicator::split_live, shuffle their surviving
///               chunks, XOR-reconstruct each dead rank's blob at a proxy
///               survivor, and relayout the component onto the caller-chosen
///               new layout over the live communicator
///               (MxNComponent::relayout, the engine rescale uses, with dead
///               ranks' slots sourced from the rebuilt blobs).
///
/// One RedundancyGroup instance per rank per component, same as the
/// component itself (SPMD).
class RedundancyGroup {
 public:
  explicit RedundancyGroup(std::shared_ptr<core::MxNComponent> component,
                           RedundancyOptions opts = {});
  ~RedundancyGroup();

  RedundancyGroup(const RedundancyGroup&) = delete;
  RedundancyGroup& operator=(const RedundancyGroup&) = delete;

  /// Snapshot + parity-distribute this rank's registered fields. EVERY
  /// channel rank calls it: members (both sides) exchange parity, spectator
  /// ranks no-op but advance their epoch counter, so a spectator that a
  /// later rescale admits encodes in step with its partners. Each call
  /// opens a new encode epoch that supersedes the previous one; recover()
  /// rebuilds from the latest epoch only.
  /// Requires every registered field to be readable (a write-only field
  /// cannot be snapshotted) and at least 2 member ranks.
  EncodeStats encode();

  /// True when this rank holds an encode epoch matching the component's
  /// current layout (i.e. recover() would have parity to rebuild from).
  [[nodiscard]] bool encoded() const;

  /// Rebuild dead ranks' state and splice the component onto `new_layout`.
  /// Collective over every LIVE channel rank. `new_layout` is expressed in
  /// the OLD channel's rank numbering and must list only live ranks — shrink
  /// onto survivors or promote spectators as replacements (or both).
  /// `new_fields` carries this rank's registrations for its new side, with
  /// the same semantics as MxNComponent::rescale (spectators-to-be pass
  /// none; omitting a field cohort-wide keeps it only if its side's rank
  /// list is unchanged and lost no rank). Throws RebuildError when two dead
  /// ranks share a parity group or when no encode epoch covers the current
  /// layout; throws UsageError on inconsistent arguments.
  RecoverStats recover(const core::Layout& new_layout,
                       std::vector<core::FieldRegistration> new_fields,
                       int timeout_ms = -1, int max_retries = -1);

  [[nodiscard]] const RedundancyOptions& options() const { return opts_; }

 private:
  std::shared_ptr<core::MxNComponent> component_;
  RedundancyOptions opts_;
  std::uint64_t epoch_ = 0;
  std::unique_ptr<detail::EncodeState> state_;
};

}  // namespace mxn::redundancy
