#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "rt/error.hpp"

namespace mxn::rt {

/// Record `n` bytes duplicated on the data plane. Feeds the process-wide
/// "rt.bytes_copied" counter (docs/PERFORMANCE.md): every deep copy of
/// payload bytes — packing into a send buffer, span-to-owned-buffer copies,
/// copies out of a payload into a fresh container — is accounted here.
/// Zero-copy hand-offs (adopting a vector, moving or refcount-sharing a
/// Buffer, injecting straight out of a received payload) add nothing.
void note_bytes_copied(std::size_t n);

/// Alignment of every pool-served payload block. 64 bytes covers a cache
/// line, so a pooled payload can always be aliased as any fundamental T
/// (view<T>). The copy kernels work on bytes and need no alignment: adopted
/// vectors and serial-framed sub-spans enter them as they are.
inline constexpr std::size_t kBufferAlign = 64;

namespace detail {

/// Control block + storage of one payload. Pooled blocks (`bucket` >= 0)
/// own a bucket-sized kBufferAlign-aligned allocation via `data`; adopted
/// blocks keep the caller's vector storage (whatever operator new aligned
/// it to) and point `data` into it. `size` is the logical payload length.
/// Pooled blocks return to the pool's per-bucket freelist when the last
/// reference drops.
struct BufferBlock {
  std::atomic<std::uint32_t> refs{1};
  int bucket = -1;       // pool bucket index; -1 = unpooled (adopted/oversize)
  std::size_t size = 0;  // logical payload size (<= capacity)
  std::byte* data = nullptr;       // payload bytes
  std::vector<std::byte> adopted;  // backing store of adopted blocks
  BufferBlock* next = nullptr;     // pool freelist link
};

BufferBlock* pool_acquire(std::size_t n);
BufferBlock* adopt_block(std::vector<std::byte> v);
void block_release(BufferBlock* b);

}  // namespace detail

/// Per-bucket freelist occupancy and cumulative traffic, for tests and
/// ad-hoc inspection. hits/misses also live in the trace registry as
/// "rt.pool.hit" / "rt.pool.miss".
struct BufferPoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  int free_blocks = 0;  // blocks currently parked across all freelists
};

BufferPoolStats buffer_pool_stats();

/// Drop every parked freelist block (used by tests to reset pointer-reuse
/// expectations; live Buffers are unaffected).
void buffer_pool_trim();

/// Refcounted, size-bucketed, pooled byte buffer — the payload currency of
/// the zero-copy data plane (docs/PERFORMANCE.md).
///
///  - allocate() draws from a thread-safe freelist of power-of-two buckets
///    (64 B .. 16 MiB); steady-state transfers recycle blocks instead of
///    touching the allocator ("rt.pool.hit" / "rt.pool.miss" count this).
///  - Copying a Buffer copies a pointer and bumps an atomic refcount, so a
///    bcast or header fan-out delivers ONE block to N destinations.
///  - Moving a Buffer into send() transfers ownership: no byte is copied
///    between the producer's pack and the consumer's unpack.
///  - A std::vector<std::byte> converts implicitly by ADOPTING its storage
///    (zero copy), which keeps PackBuffer-built payloads cheap.
///
/// Mutation discipline: a block is writable only while its handle is the
/// sole owner (refcount 1) — mutable_data() enforces this. Once a Buffer has
/// been sent (and thus possibly shared), every holder must treat the bytes
/// as immutable, exactly like an MPI send buffer after MPI_Isend.
class Buffer {
 public:
  Buffer() = default;

  /// Adopt an owned byte vector (zero copy; the vector's storage becomes
  /// the payload). Intentionally implicit: it is the bridge from the
  /// PackBuffer / to_bytes marshal world into the data plane.
  Buffer(std::vector<std::byte> v) {
    if (!v.empty()) b_ = detail::adopt_block(std::move(v));
  }

  /// A pooled, uninitialized buffer of `n` bytes.
  static Buffer allocate(std::size_t n) {
    Buffer b;
    if (n > 0) b.b_ = detail::pool_acquire(n);
    return b;
  }

  /// A pooled buffer holding a copy of `src` (counted in rt.bytes_copied).
  static Buffer copy_of(std::span<const std::byte> src) {
    Buffer b = allocate(src.size());
    if (!src.empty()) {
      std::memcpy(b.b_->data, src.data(), src.size());
      note_bytes_copied(src.size());
    }
    return b;
  }

  Buffer(const Buffer& o) : b_(o.b_) {
    if (b_) b_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Buffer& operator=(const Buffer& o) {
    Buffer tmp(o);
    std::swap(b_, tmp.b_);
    return *this;
  }
  Buffer(Buffer&& o) noexcept : b_(o.b_) { o.b_ = nullptr; }
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      reset();
      b_ = o.b_;
      o.b_ = nullptr;
    }
    return *this;
  }
  ~Buffer() { reset(); }

  /// Drop this reference; the last one returns the block to the pool.
  void reset() {
    if (b_ && b_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      detail::block_release(b_);
    b_ = nullptr;
  }

  [[nodiscard]] std::size_t size() const { return b_ ? b_->size : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const std::byte* data() const {
    return b_ ? b_->data : nullptr;
  }

  /// Write access; throws UsageError unless this handle is the sole owner.
  [[nodiscard]] std::byte* mutable_data() {
    if (b_ == nullptr) return nullptr;
    if (b_->refs.load(std::memory_order_acquire) != 1)
      throw UsageError("Buffer::mutable_data on a shared buffer (payloads "
                       "are immutable once sent)");
    return b_->data;
  }

  /// Reduce the logical size (sole owner only; storage is kept).
  void truncate(std::size_t n) {
    if (n > size()) throw UsageError("Buffer::truncate beyond size");
    if (b_ == nullptr) return;
    if (b_->refs.load(std::memory_order_acquire) != 1)
      throw UsageError("Buffer::truncate on a shared buffer");
    b_->size = n;
  }

  [[nodiscard]] bool unique() const {
    return b_ != nullptr && b_->refs.load(std::memory_order_acquire) == 1;
  }
  [[nodiscard]] long use_count() const {
    return b_ ? static_cast<long>(b_->refs.load(std::memory_order_acquire))
              : 0;
  }

  [[nodiscard]] std::span<const std::byte> span() const {
    return {data(), size()};
  }
  operator std::span<const std::byte>() const { return span(); }

  /// Alias the payload as a span of T without copying. Throws UsageError on
  /// a size mismatch or when the storage is not aligned for T (pooled
  /// blocks are kBufferAlign-aligned and vector storage comes from operator
  /// new, so in practice any fundamental T is aligned; a serial-framed
  /// sub-span may not be).
  template <class T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] std::span<const T> view() const {
    if (size() % sizeof(T) != 0)
      throw UsageError("Buffer::view: size not a multiple of sizeof(T)");
    if (reinterpret_cast<std::uintptr_t>(data()) % alignof(T) != 0)
      throw UsageError("Buffer::view: payload is not aligned for T");
    return {reinterpret_cast<const T*>(data()), size() / sizeof(T)};
  }

  /// Deep copy out (counted in rt.bytes_copied).
  [[nodiscard]] std::vector<std::byte> to_vector() const {
    note_bytes_copied(size());
    return {data(), data() + size()};
  }

 private:
  detail::BufferBlock* b_ = nullptr;
};

}  // namespace mxn::rt
