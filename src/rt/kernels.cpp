#include "rt/kernels.hpp"

#include <cstring>

#include "trace/trace.hpp"

namespace mxn::rt::kernels {

namespace {

// Counter names carry the sched.kernel prefix: the kernels live in rt for
// layering (dad::DistArray links rt, not sched) but serve the schedule
// executors' data plane (docs/PERFORMANCE.md).
struct Counters {
  trace::Counter& memcpy_bytes;
  trace::Counter& simd_bytes;
};

Counters& ctr() {
  static Counters c{trace::counter("sched.kernel.memcpy_bytes"),
                    trace::counter("sched.kernel.simd_bytes")};
  return c;
}

// count blocks of `bb` bytes each, storage starts `sb` bytes apart. The
// switch pins the copy size so the compiler emits straight-line moves
// instead of a memcpy call per block; a pure strided run is a train of
// one-element blocks (bb = width), so widths 4 and 8 land on fixed cases.
template <bool Gather>
void block_train(std::byte* storage, std::byte* buf, std::int64_t count,
                 std::size_t bb, std::int64_t sb) {
  auto step = [&](auto copy) {
    for (std::int64_t b = 0; b < count; ++b, storage += sb, buf += bb)
      copy(Gather ? buf : storage, Gather ? storage : buf);
  };
  switch (bb) {
    case 2:
      step([](std::byte* d, const std::byte* s) { std::memcpy(d, s, 2); });
      break;
    case 4:
      step([](std::byte* d, const std::byte* s) { std::memcpy(d, s, 4); });
      break;
    case 8:
      step([](std::byte* d, const std::byte* s) { std::memcpy(d, s, 8); });
      break;
    case 16:
      step([](std::byte* d, const std::byte* s) { std::memcpy(d, s, 16); });
      break;
    case 24:
      step([](std::byte* d, const std::byte* s) { std::memcpy(d, s, 24); });
      break;
    case 32:
      step([](std::byte* d, const std::byte* s) { std::memcpy(d, s, 32); });
      break;
    case 64:
      step([](std::byte* d, const std::byte* s) { std::memcpy(d, s, 64); });
      break;
    default:
      step([bb](std::byte* d, const std::byte* s) { std::memcpy(d, s, bb); });
      break;
  }
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return "scalar";
    case Isa::Sse2:
      return "sse2";
    case Isa::Avx2:
      return "avx2";
  }
  return "?";
}

void gather_run(const void* storage, void* buf, std::size_t width,
                const BlockRun& r) {
  const auto w = static_cast<std::int64_t>(width);
  auto* src = const_cast<std::byte*>(static_cast<const std::byte*>(storage)) +
              r.storage_off * w;
  auto* dst = static_cast<std::byte*>(buf) + r.buf_off * w;
  const auto bytes = static_cast<std::size_t>(r.block_len * r.count * w);
  if (r.count == 1) {  // contiguous promotion
    std::memcpy(dst, src, bytes);
    ctr().memcpy_bytes.add(bytes);
  } else {  // block train; a strided run is a train of 1-element blocks
    block_train<true>(src, dst, r.count,
                      static_cast<std::size_t>(r.block_len * w),
                      r.block_stride * w);
    ctr().simd_bytes.add(bytes);
  }
}

void scatter_run(void* storage, const void* buf, std::size_t width,
                 const BlockRun& r) {
  const auto w = static_cast<std::int64_t>(width);
  auto* dst = static_cast<std::byte*>(storage) + r.storage_off * w;
  auto* src = const_cast<std::byte*>(static_cast<const std::byte*>(buf)) +
              r.buf_off * w;
  const auto bytes = static_cast<std::size_t>(r.block_len * r.count * w);
  if (r.count == 1) {  // contiguous promotion
    std::memcpy(dst, src, bytes);
    ctr().memcpy_bytes.add(bytes);
  } else {  // block train; a strided run is a train of 1-element blocks
    block_train<false>(dst, src, r.count,
                       static_cast<std::size_t>(r.block_len * w),
                       r.block_stride * w);
    ctr().simd_bytes.add(bytes);
  }
}

}  // namespace mxn::rt::kernels
