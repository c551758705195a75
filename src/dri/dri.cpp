#include "dri/dri.hpp"

#include "rt/error.hpp"

namespace mxn::dri {

using rt::UsageError;

std::size_t type_width(DataType t) {
  switch (t) {
    case DataType::Float: return sizeof(float);
    case DataType::Double: return sizeof(double);
    case DataType::ComplexFloat: return sizeof(std::complex<float>);
    case DataType::ComplexDouble: return sizeof(std::complex<double>);
    case DataType::Integer: return sizeof(std::int32_t);
    case DataType::Short: return sizeof(std::int16_t);
    case DataType::UnsignedShort: return sizeof(std::uint16_t);
    case DataType::Long: return sizeof(std::int64_t);
    case DataType::UnsignedLong: return sizeof(std::uint64_t);
    case DataType::Char: return sizeof(char);
    case DataType::UnsignedChar: return sizeof(unsigned char);
    case DataType::Byte: return 1;
  }
  throw UsageError("unknown DRI data type");
}

Distribution::Distribution(DataType type, std::vector<std::int64_t> extents,
                           std::vector<Partition> partitions)
    : type_(type), extents_(std::move(extents)) {
  if (extents_.empty() || extents_.size() > 3)
    throw UsageError("DRI datasets are arrays of up to three dimensions");
  if (partitions.size() != extents_.size())
    throw UsageError("one Partition per dimension required");
  std::vector<dad::AxisDist> axes;
  axes.reserve(extents_.size());
  for (std::size_t d = 0; d < extents_.size(); ++d) {
    const auto& p = partitions[d];
    switch (p.kind) {
      case Partition::Collapsed:
        axes.push_back(dad::AxisDist::collapsed(extents_[d]));
        break;
      case Partition::Block:
        axes.push_back(dad::AxisDist::block(extents_[d], p.nprocs));
        break;
      case Partition::Cyclic:
        axes.push_back(dad::AxisDist::cyclic(extents_[d], p.nprocs));
        break;
      case Partition::BlockCyclic:
        axes.push_back(
            dad::AxisDist::block_cyclic(extents_[d], p.nprocs, p.block));
        break;
    }
  }
  desc_ = dad::make_regular(std::move(axes));
}

Reorg::Reorg(rt::Communicator comm, const Distribution& src,
             const Distribution& dst, int tag)
    : comm_(std::move(comm)), tag_(tag), elem_width_(src.elem_width()) {
  if (src.type() != dst.type())
    throw UsageError("DRI reorganization requires matching data types");
  src_desc_ = src.descriptor();
  dst_desc_ = dst.descriptor();
  if (!src_desc_->same_shape(*dst_desc_))
    throw UsageError("DRI reorganization requires matching global extents");
  if (src.nprocs() > comm_.size() || dst.nprocs() > comm_.size())
    throw UsageError("distribution needs more processes than the "
                     "communicator provides");

  const int me = comm_.rank();
  const int dst_base = comm_.size() - dst.nprocs();
  my_src_ = me < src.nprocs() ? me : -1;
  my_dst_ = me >= dst_base ? me - dst_base : -1;

  auto sched =
      sched::build_region_schedule(*src_desc_, *dst_desc_, my_src_, my_dst_);
  for (const auto& pr : sched.sends)
    for (const auto& region : pr.regions)
      sends_.push_back({dst_base + pr.peer, region,
                        static_cast<std::size_t>(region.volume()) *
                            elem_width_});
  for (const auto& pr : sched.recvs)
    for (const auto& region : pr.regions)
      recvs_.push_back({pr.peer, region,
                        static_cast<std::size_t>(region.volume()) *
                            elem_width_});
}

bool Reorg::step(std::span<const std::byte> local_src,
                 std::span<std::byte> local_dst, std::size_t chunk_bytes) {
  if (my_src_ >= 0 && next_send_ < sends_.size() &&
      local_src.size() <
          static_cast<std::size_t>(src_desc_->local_volume(my_src_)) *
              elem_width_)
    throw UsageError("source buffer too small for the local distribution");
  if (my_dst_ >= 0 && next_recv_ < recvs_.size() &&
      local_dst.size() <
          static_cast<std::size_t>(dst_desc_->local_volume(my_dst_)) *
              elem_width_)
    throw UsageError("destination buffer too small for the local "
                     "distribution");

  // Send phase: at least one piece, at most chunk_bytes.
  std::size_t sent = 0;
  while (next_send_ < sends_.size() &&
         (sent == 0 || sent + sends_[next_send_].bytes <= chunk_bytes)) {
    const Piece& p = sends_[next_send_];
    std::vector<std::byte> buf(p.bytes);
    // The source view is only packed out of.
    sched::pack_regions(
        {&p.region, 1},
        src_desc_->storage(my_src_, const_cast<std::byte*>(local_src.data()),
                           elem_width_),
        buf.data());
    comm_.send(p.peer_world, tag_, std::move(buf));
    sent += p.bytes;
    ++next_send_;
    if (sent >= chunk_bytes) break;
  }

  // Receive phase. While our own sends are unfinished we must not block
  // (another process may be waiting on them); once they are done, blocking
  // receives are deadlock-free.
  const bool sends_done = next_send_ >= sends_.size();
  std::size_t received = 0;
  while (next_recv_ < recvs_.size() &&
         (received == 0 || received + recvs_[next_recv_].bytes <=
                               chunk_bytes)) {
    const Piece& p = recvs_[next_recv_];
    rt::Message msg;
    if (sends_done) {
      msg = comm_.recv(p.peer_world, tag_);
    } else {
      auto m = comm_.try_recv(p.peer_world, tag_);
      if (!m) break;  // make send progress first; caller will call again
      msg = std::move(*m);
    }
    if (msg.payload.size() != p.bytes)
      throw UsageError("DRI piece size mismatch");
    sched::unpack_regions(
        {&p.region, 1},
        dst_desc_->storage(my_dst_, local_dst.data(), elem_width_),
        msg.payload.data());
    received += p.bytes;
    ++next_recv_;
    if (received >= chunk_bytes) break;
  }

  return !complete();
}

}  // namespace mxn::dri
