#pragma once

// Internal to mxn_core: the per-connection record and the channel tag plan,
// shared by mxn_component.cpp (establishment, transfers) and rescale.cpp
// (the relayout engine and re-establishment after a splice). Not a public
// header.

#include <cstdint>
#include <memory>

#include "core/mxn_component.hpp"
#include "core/transmission_policy.hpp"
#include "sched/schedule.hpp"

namespace mxn::core {

namespace detail {

// Channel tag plan: connection `seq` uses kConnBase + 4*seq + {0: data,
// 1: ack, 2: descriptor exchange, 3: commit}; proposals travel on
// kProposalTag. The `seq` counter advances identically on both sides
// because establishment is collective across the pair (channel-collective
// for elastic components).
inline constexpr int kProposalTag = 900;
inline constexpr int kConnBase = 1000;

// Relayout migration tag block (docs/RESCALING.md), shared by rescale and
// dead-rank recovery: each (epoch, side, field slot) gets a fresh {data,
// ack, commit} triplet, cycling within [kMigBase, kMigBase + 64*2*64*4) —
// far above any realistic connection count's kConnBase stream and below the
// PRMI reservation (tags >= 2^20). Fresh per-epoch tags keep duplicated
// stragglers of one migration out of the next one's matched streams; once
// the block wraps, the epoch-seeded attempt serials discard them.
inline constexpr int kMigBase = 600000;

[[nodiscard]] inline int migration_tag_base(std::uint64_t epoch, int side,
                                            std::size_t field_idx) {
  return kMigBase +
         static_cast<int>(((epoch % 64) * 2 + static_cast<std::uint64_t>(side)) *
                              64 +
                          field_idx % 64) *
             4;
}

}  // namespace detail

struct MxNComponent::Connection {
  ConnectionSpec spec;
  bool i_am_src = false;
  bool i_am_dst = false;
  // Shared pin into the schedule cache (null on spectators): keeps the
  // schedule alive even if a bounded cache evicts the entry under other
  // tenants' pressure.
  std::shared_ptr<const sched::RegionSchedule> schedule;
  // How this connection's bytes move — derived from the spec's flags at
  // establish time (policy_from_spec), overridable per tenant via
  // MxNComponent::set_policy.
  std::shared_ptr<const TransmissionPolicy> policy;
  sched::Coupling coupling;
  int seq = 0;
  int src_calls = 0;
  TransferStats stats;
  bool retired = false;
  // Reliable-mode attempt serial ("invocation epoch"): bumped at the start
  // of every attempt, carried in every message, ratcheted forward when a
  // peer is seen to have retried past us.
  std::uint64_t epoch = 0;

  [[nodiscard]] int data_tag() const { return detail::kConnBase + 4 * seq; }
  [[nodiscard]] int ack_tag() const { return detail::kConnBase + 4 * seq + 1; }
  [[nodiscard]] int desc_tag() const {
    return detail::kConnBase + 4 * seq + 2;
  }
  [[nodiscard]] int commit_tag() const {
    return detail::kConnBase + 4 * seq + 3;
  }
};

}  // namespace mxn::core
