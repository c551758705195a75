#pragma once

#include "mct/attr_vect.hpp"
#include "mct/global_seg_map.hpp"
#include "rt/communicator.hpp"
#include "rt/kernels.hpp"
#include "sched/coupling.hpp"
#include "sched/schedule.hpp"

namespace mxn::mct {

/// Binding of a Router to processes: a channel spanning both components and
/// the channel ranks of each side.
struct RouterConfig {
  rt::Communicator channel;
  rt::Communicator cohort;     // my component
  std::vector<int> my_ranks;   // channel ranks, index == cohort rank
  std::vector<int> peer_ranks;
  int tag = 0;  // distinct tag per Router pair sharing a channel
};

namespace detail {

/// The transfer both MCT movers replay: a fixed segment schedule run
/// through sched::execute_bytes, with one compiled copy plan per chunk (an
/// unsplit entry is one chunk). A chunk's payload is its elements one field
/// after another (element width nfields * sizeof(double)); each field is
/// gathered or scattered by that chunk's plan. The chunk cuts depend on the
/// width, so the plans are compiled on the first transfer and again only
/// when the field count changes.
struct FieldTransfer {
  /// One side's plans: chunk k of entry e is chunks[first[e] + k].
  struct Plans {
    struct Chunk {
      std::size_t first_item = 0;
      Index elements = 0;
      rt::kernels::RunPlan plan;
    };
    std::size_t width = 0;           // element width the cuts were taken at
    std::vector<std::size_t> first;  // per entry, then one past the last
    std::vector<Chunk> chunks;

    /// (Re)compile for `width` unless already compiled for it.
    void compile(const std::vector<sched::PeerSegments>& entries,
                 const std::vector<linear::ProvenancedSegment>& prov,
                 std::size_t width);
    /// The chunk of entry `e` that starts at item `first_item`.
    [[nodiscard]] const Chunk& find(std::size_t e,
                                    std::size_t first_item) const;
  };

  sched::SegmentSchedule sched;
  /// This rank's storage provenance on its sending / receiving side.
  std::vector<linear::ProvenancedSegment> send_prov, recv_prov;
  Plans send_plans, recv_plans;
  sched::Coupling coupling;
  int tag = 0;

  /// Send `src`'s share and drain into `dst` in arrival order. Either may
  /// be null when this rank has no entries on that side.
  void run(const AttrVect* src, AttrVect* dst);
};

}  // namespace detail

/// MCT's intermodule communications scheduler (paper §4.5): moves AttrVect
/// field data between two components decomposed by different GlobalSegMaps.
/// Both sides construct their Router collectively (the GSMaps are swapped
/// leader-to-leader and broadcast); the transfer schedule — which linear
/// segments go to which peer — is computed once and reused by every
/// send/recv.
class Router {
 public:
  /// Source-side Router: this component exports.
  static Router source(RouterConfig cfg, const GlobalSegMap& mine);

  /// Destination-side Router: this component imports.
  static Router destination(RouterConfig cfg, const GlobalSegMap& mine);

  /// Export all fields of `av` (length must equal the local GSMap size).
  /// Point-to-point, no barriers; safe to call before the peer posts recv.
  void send(const AttrVect& av);

  /// Import into `av`; blocks until all expected pieces arrive, unpacking
  /// them in arrival order.
  void recv(AttrVect& av);

  [[nodiscard]] Index local_size() const { return local_size_; }
  [[nodiscard]] std::size_t peer_count() const {
    return xfer_.sched.message_count();
  }

 private:
  Router() = default;
  static Router build(RouterConfig cfg, const GlobalSegMap& mine,
                      bool is_source);

  detail::FieldTransfer xfer_;
  bool is_source_ = true;
  Index local_size_ = 0;
};

/// MCT's intramodule parallel data redistribution: moves an AttrVect from
/// one decomposition to another within the same component (both GSMaps over
/// the same cohort). Implemented as a self-coupled Router schedule; data
/// that keeps its owner still travels as a message to self.
class Rearranger {
 public:
  Rearranger(rt::Communicator cohort, const GlobalSegMap& src,
             const GlobalSegMap& dst, int tag);

  void rearrange(const AttrVect& src_av, AttrVect& dst_av);

 private:
  detail::FieldTransfer xfer_;
  Index src_size_ = 0, dst_size_ = 0;
};

}  // namespace mxn::mct
