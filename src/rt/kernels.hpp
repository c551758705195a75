#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mxn::rt::kernels {

/// Instruction set the portable copy kernels were compiled for: a label of
/// the compiler's target flags, fixed at build time. There is no runtime
/// detection or override; every run takes the same byte-level path.
enum class Isa { Scalar, Sse2, Avx2 };

[[nodiscard]] constexpr Isa active_isa() {
#if defined(__AVX2__)
  return Isa::Avx2;
#elif defined(__SSE2__) || defined(_M_X64)
  return Isa::Sse2;
#else
  return Isa::Scalar;
#endif
}
[[nodiscard]] const char* isa_name(Isa isa);

/// One coalesced copy unit between strided local storage and a contiguous
/// buffer: `count` blocks of `block_len` contiguous elements whose starts
/// are `block_stride` elements apart on the storage side, packed
/// back-to-back on the buffer side starting at `buf_off`. All quantities
/// are in elements of the caller's width:
///
///   count == 1   one contiguous run -> a single memcpy
///   count > 1    block train: one fixed-size memcpy per block (a pure
///                strided run is a train of one-element blocks)
struct BlockRun {
  std::int64_t storage_off = 0;
  std::int64_t block_len = 0;
  std::int64_t block_stride = 0;
  std::int64_t count = 0;
  std::int64_t buf_off = 0;
};

/// buf <- storage (the pack direction). `width` is the element size in
/// bytes; every copy is a memcpy on bytes, so neither side needs any
/// alignment. Bytes moved are accounted to sched.kernel.memcpy_bytes
/// (count == 1) or sched.kernel.simd_bytes (block trains).
void gather_run(const void* storage, void* buf, std::size_t width,
                const BlockRun& r);

/// storage <- buf (the unpack direction). Same shapes and accounting.
void scatter_run(void* storage, const void* buf, std::size_t width,
                 const BlockRun& r);

/// Streaming coalescer: feed it the raw (storage_offset, stride, count)
/// runs of a pack/unpack walk — in buffer order, the buffer cursor is
/// implicit — and it merges them into the largest BlockRuns the pattern
/// admits before dispatching:
///
///  - adjacent unit-stride runs whose storage is contiguous fuse into one
///    run (memcpy promotion: a cyclic footprint packed toward one block
///    peer becomes a single memcpy);
///  - equal-length runs whose starts advance by a constant delta fuse into
///    a strided block train (block-cyclic), with one-element blocks for
///    length-1 runs (cyclic unpack);
///  - a run that already carries a storage stride > 1 (permuted
///    linearizations) maps directly onto a train of one-element blocks.
///
/// The merge logic is element-width-agnostic; emission binds the width.
class RunCoalescer {
 public:
  using Emit = void (*)(void* ctx, const BlockRun& run);

  RunCoalescer(Emit emit, void* ctx) : emit_(emit), ctx_(ctx) {}

  /// Append `n` elements read from storage offsets s0, s0+stride, ... .
  void add(std::int64_t s0, std::int64_t stride, std::int64_t n) {
    if (n <= 0) return;
    if (n == 1 || stride == 1)
      add_block(s0, n);  // contiguous run (n == 1 is trivially both)
    else
      add_strided(s0, stride, n);
    cursor_ += n;
  }

  /// Emit whatever is pending. Must be called before reading the result;
  /// further add()s start a fresh pattern.
  void flush() {
    if (open_) emit_(ctx_, cur_);
    open_ = false;
  }

 private:
  void add_block(std::int64_t s0, std::int64_t len) {
    if (open_) {
      if (cur_.count == 1 && s0 == cur_.storage_off + cur_.block_len) {
        cur_.block_len += len;  // contiguous growth
        return;
      }
      if (cur_.count == 1 && len == cur_.block_len) {
        cur_.block_stride = s0 - cur_.storage_off;  // open a block train
        cur_.count = 2;
        return;
      }
      if (cur_.count > 1 && len == cur_.block_len &&
          s0 == cur_.storage_off + cur_.count * cur_.block_stride) {
        ++cur_.count;  // train continues
        return;
      }
      emit_(ctx_, cur_);
    }
    cur_ = {s0, len, 0, 1, cursor_};
    open_ = true;
  }

  void add_strided(std::int64_t s0, std::int64_t stride, std::int64_t n) {
    if (open_ && cur_.block_len == 1 &&
        ((cur_.count == 1 && s0 == cur_.storage_off + stride) ||
         (cur_.count > 1 && cur_.block_stride == stride &&
          s0 == cur_.storage_off + cur_.count * stride))) {
      if (cur_.count == 1) cur_.block_stride = stride;
      cur_.count += n;
      return;
    }
    if (open_) emit_(ctx_, cur_);
    cur_ = {s0, 1, stride, n, cursor_};
    open_ = true;
  }

  Emit emit_;
  void* ctx_;
  BlockRun cur_{};
  bool open_ = false;
  std::int64_t cursor_ = 0;
};

/// A compiled copy plan: the BlockRuns a (footprint, segments) walk
/// coalesces into. It is the one segment copy path: one-shot pack/unpack
/// compiles a plan and replays it once, and a fixed schedule (an mct Router
/// ships the same pattern every timestep) keeps its plans and replays them
/// without re-walking the segment lists or re-coalescing. Plans are
/// width-agnostic; the element width binds at gather()/scatter() time.
class RunPlan {
 public:
  /// Coalescer sink: collect one merged run.
  void add(const BlockRun& r) { runs_.push_back(r); }

  /// Replay the plan in the pack direction: buf <- storage.
  void gather(const void* storage, void* buf, std::size_t width) const {
    for (const auto& r : runs_) gather_run(storage, buf, width, r);
  }

  /// Replay the plan in the unpack direction: storage <- buf.
  void scatter(void* storage, const void* buf, std::size_t width) const {
    for (const auto& r : runs_) scatter_run(storage, buf, width, r);
  }

 private:
  std::vector<BlockRun> runs_;
};

}  // namespace mxn::rt::kernels
