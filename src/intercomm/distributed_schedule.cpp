#include "intercomm/distributed_schedule.hpp"

#include "rt/serialize.hpp"

namespace mxn::intercomm {

using dad::Patch;

sched::RegionSchedule build_region_schedule_partitioned(
    const std::vector<Patch>& my_src_patches,
    const std::vector<Patch>& my_dst_patches, const sched::Coupling& c,
    int tag) {
  rt::Communicator channel = c.channel;
  const int patches_tag = tag;
  const int regions_tag = tag + 1;
  const int my_src = c.my_src_rank();
  const int my_dst = c.my_dst_rank();

  sched::RegionSchedule out;

  // Phase 1: source ranks publish their patch lists.
  if (my_src >= 0) {
    rt::PackBuffer b;
    b.pack(static_cast<std::uint64_t>(my_src_patches.size()));
    for (const auto& p : my_src_patches) p.pack(b);
    // One refcounted patch-list block shared by every destination.
    const rt::Buffer bytes = std::move(b).take_buffer();
    for (int d : c.dst_ranks) channel.send(d, patches_tag, bytes);
  }

  // Phase 2: destination ranks intersect and reply with expected regions.
  if (my_dst >= 0) {
    for (std::size_t s = 0; s < c.src_ranks.size(); ++s) {
      auto msg = channel.recv(c.src_ranks[s], patches_tag);
      rt::UnpackBuffer u(msg.payload);
      const auto n = u.unpack<std::uint64_t>();
      sched::PeerRegions pr;
      pr.peer = static_cast<int>(s);
      for (std::uint64_t i = 0; i < n; ++i) {
        const Patch sp = Patch::unpack(u);
        for (std::size_t j = 0; j < my_dst_patches.size(); ++j)
          if (auto r = Patch::intersect(sp, my_dst_patches[j])) {
            pr.regions.push_back({*r, static_cast<std::uint32_t>(i),
                                  static_cast<std::uint32_t>(j)});
            pr.elements += r->volume();
          }
      }
      rt::PackBuffer reply;
      reply.pack(static_cast<std::uint64_t>(pr.regions.size()));
      for (const auto& r : pr.regions) {
        r.pack(reply);
        reply.pack(r.src_patch);
        reply.pack(r.dst_patch);
      }
      channel.send(c.src_ranks[s], regions_tag, std::move(reply).take());
      if (!pr.regions.empty()) out.recvs.push_back(std::move(pr));
    }
  }

  // Phase 3: source ranks adopt the returned lists as their send schedule.
  // The reply is outside input: its count is checked against the bytes
  // that remain before anything is sized, and each region against the
  // local patch it names.
  constexpr std::size_t kMinRegionBytes =
      sizeof(int) + 2 * sizeof(std::uint32_t);
  if (my_src >= 0) {
    for (std::size_t d = 0; d < c.dst_ranks.size(); ++d) {
      auto msg = channel.recv(c.dst_ranks[d], regions_tag);
      rt::UnpackBuffer u(msg.payload);
      const auto n = u.unpack<std::uint64_t>();
      if (n > u.remaining() / kMinRegionBytes)
        throw rt::UsageError("partitioned schedule reply: region count " +
                             std::to_string(n) + " exceeds what " +
                             std::to_string(u.remaining()) +
                             " bytes can hold");
      if (n == 0) continue;
      sched::PeerRegions pr;
      pr.peer = static_cast<int>(d);
      pr.regions.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const Patch r = Patch::unpack(u);
        const auto sp = u.unpack<std::uint32_t>();
        const sched::Region reg{r, sp, u.unpack<std::uint32_t>()};
        if (sp >= my_src_patches.size() || reg.empty() ||
            reg.ndim != my_src_patches[sp].ndim ||
            !my_src_patches[sp].contains(reg))
          throw rt::UsageError("partitioned schedule reply: region " +
                               reg.to_string() + " does not lie in local " +
                               "patch " + std::to_string(reg.src_patch) +
                               " of " + std::to_string(my_src_patches.size()));
        pr.elements += reg.volume();
        pr.regions.push_back(reg);
      }
      out.sends.push_back(std::move(pr));
    }
  }

  return out;
}

}  // namespace mxn::intercomm
