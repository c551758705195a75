#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "dad/descriptor.hpp"
#include "rt/communicator.hpp"
#include "sched/schedule.hpp"

namespace mxn::dri {

/// The Data Reorganization Interface standard (paper §5): a DARPA-driven
/// spec from the signal/image-processing community that the paper situates
/// as "a specialized and low-level Distributed Array Descriptor and M×N
/// component". This module implements the DRI-1.0 shape faithfully:
/// datasets are arrays of up to three dimensions; block and block-cyclic
/// partitions; a fixed scalar type list; collective reorganization handled
/// at a low level, with the user owning the buffers and "repeatedly calling
/// DRI get/put operations until the operation is complete".

/// The DRI-1.0 data types.
enum class DataType : std::uint8_t {
  Float,
  Double,
  ComplexFloat,
  ComplexDouble,
  Integer,
  Short,
  UnsignedShort,
  Long,
  UnsignedLong,
  Char,
  UnsignedChar,
  Byte,
};

[[nodiscard]] std::size_t type_width(DataType t);

/// Per-dimension partitioning.
struct Partition {
  enum Kind : std::uint8_t { Collapsed, Block, Cyclic, BlockCyclic } kind =
      Block;
  std::int64_t block = 0;  // BlockCyclic only
  int nprocs = 1;

  static Partition collapsed() { return {Collapsed, 0, 1}; }
  static Partition block_over(int p) { return {Block, 0, p}; }
  static Partition cyclic_over(int p) { return {Cyclic, 0, p}; }
  static Partition block_cyclic_over(int p, std::int64_t b) {
    return {BlockCyclic, b, p};
  }
};

/// A DRI distribution: global extents (1..3 dims), one Partition per dim,
/// and the element type. Local memory layout is the canonical row-major
/// patch concatenation (DRI separates local layout from distribution; this
/// implementation fixes the local layout to the packed one).
class Distribution {
 public:
  Distribution(DataType type, std::vector<std::int64_t> extents,
               std::vector<Partition> partitions);

  [[nodiscard]] DataType type() const { return type_; }
  [[nodiscard]] std::size_t elem_width() const { return type_width(type_); }
  [[nodiscard]] int ndims() const { return static_cast<int>(extents_.size()); }
  [[nodiscard]] int nprocs() const { return desc_->nranks(); }

  /// Local element count for a rank ("blockinfo" in DRI terms).
  [[nodiscard]] std::int64_t local_count(int rank) const {
    return desc_->local_volume(rank);
  }

  /// Required local buffer size in bytes.
  [[nodiscard]] std::size_t local_bytes(int rank) const {
    return static_cast<std::size_t>(local_count(rank)) * elem_width();
  }

  [[nodiscard]] const dad::DescriptorPtr& descriptor() const { return desc_; }

 private:
  DataType type_;
  std::vector<std::int64_t> extents_;
  dad::DescriptorPtr desc_;
};

/// A planned reorganization between two distributions of the same dataset.
/// Mirrors the DRI flow: plan once (collective), then drive the transfer at
/// a low level — each step() moves at most `chunk_bytes` of this process's
/// share, and the caller keeps calling until step() reports completion.
/// step(-1) or run() moves everything at once.
class Reorg {
 public:
  /// Collective over `comm`; ranks [0, src.nprocs()) hold the source role
  /// and ranks [comm.size() - dst.nprocs(), comm.size()) the destination
  /// role (roles may overlap for in-place reorganization on one cohort).
  Reorg(rt::Communicator comm, const Distribution& src,
        const Distribution& dst, int tag);

  /// Drive the reorganization forward: issues at most `chunk_bytes` of
  /// sends and then services at most `chunk_bytes` of receives. Returns
  /// true while more calls are needed. `local_src` / `local_dst` may be
  /// empty spans on processes without the respective role.
  bool step(std::span<const std::byte> local_src,
            std::span<std::byte> local_dst,
            std::size_t chunk_bytes = SIZE_MAX);

  /// Convenience: loop step() to completion.
  void run(std::span<const std::byte> local_src,
           std::span<std::byte> local_dst) {
    while (step(local_src, local_dst)) {
    }
  }

  [[nodiscard]] bool complete() const {
    return next_send_ >= sends_.size() && next_recv_ >= recvs_.size();
  }

  /// Reset so the same plan can reorganize another dataset instance.
  void reset() {
    next_send_ = 0;
    next_recv_ = 0;
  }

  [[nodiscard]] std::size_t total_pieces() const {
    return sends_.size() + recvs_.size();
  }

 private:
  struct Piece {
    int peer_world = 0;       // rank in comm
    sched::Region region;     // names the local side's patch
    std::size_t bytes = 0;
  };

  rt::Communicator comm_;
  int tag_;
  std::size_t elem_width_;
  dad::DescriptorPtr src_desc_, dst_desc_;
  int my_src_ = -1, my_dst_ = -1;
  std::vector<Piece> sends_, recvs_;
  std::size_t next_send_ = 0, next_recv_ = 0;
};

}  // namespace mxn::dri
