#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "rt/buffer.hpp"
#include "rt/error.hpp"

namespace mxn::rt {

/// Append-only byte buffer used to marshal method arguments and array data
/// into a message payload. Components in a distributed framework never share
/// address space, so everything that crosses a port is packed through here.
class PackBuffer {
 public:
  PackBuffer() = default;

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void pack(const T& value) {
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    data_.insert(data_.end(), p, p + sizeof(T));
  }

  void pack(const std::string& s) {
    pack(static_cast<std::uint64_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    data_.insert(data_.end(), p, p + s.size());
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void pack_span(std::span<const T> values) {
    pack(static_cast<std::uint64_t>(values.size()));
    const auto* p = reinterpret_cast<const std::byte*>(values.data());
    data_.insert(data_.end(), p, p + values.size_bytes());
    note_bytes_copied(values.size_bytes());
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void pack(const std::vector<T>& values) {
    pack_span(std::span<const T>(values));
  }

  void pack(const std::vector<std::string>& values) {
    pack(static_cast<std::uint64_t>(values.size()));
    for (const auto& v : values) pack(v);
  }

  /// Raw bytes without a length prefix (caller knows the framing).
  void pack_raw(std::span<const std::byte> bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
    note_bytes_copied(bytes.size());
  }

  /// Extend by `n` uninitialized bytes and return a pointer to them, so a
  /// producer can pack strided data straight into the payload instead of
  /// staging it in a temporary and pack_raw-ing it (one copy, not two).
  /// The pointer is invalidated by the next pack call.
  [[nodiscard]] std::byte* append_uninitialized(std::size_t n) {
    const std::size_t at = data_.size();
    data_.resize(at + n);
    return data_.data() + at;
  }

  [[nodiscard]] std::vector<std::byte> take() && { return std::move(data_); }

  /// Hand the marshalled bytes to the data plane without copying: the
  /// vector's storage is adopted by a refcounted Buffer, ready to be moved
  /// into send() or fanned out to several destinations.
  [[nodiscard]] Buffer take_buffer() && { return Buffer(std::move(data_)); }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return data_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

 private:
  std::vector<std::byte> data_;
};

/// Cursor over a received payload; mirror image of PackBuffer.
class UnpackBuffer {
 public:
  explicit UnpackBuffer(std::span<const std::byte> data) : data_(data) {}

  template <class T>
    requires std::is_trivially_copyable_v<T>
  T unpack() {
    T value;
    need(sizeof(T));
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string unpack_string() {
    const auto n = unpack<std::uint64_t>();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> unpack_vector() {
    const auto n = unpack<std::uint64_t>();
    // Compare the count, not n * sizeof(T), so a hostile count cannot wrap.
    if (n > remaining() / sizeof(T))
      throw UsageError("UnpackBuffer: truncated payload");
    std::vector<T> values(n);
    if (n) std::memcpy(values.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    note_bytes_copied(n * sizeof(T));
    return values;
  }

  std::vector<std::string> unpack_string_vector() {
    const auto n = unpack<std::uint64_t>();
    std::vector<std::string> values;
    // Every string carries at least its 8-byte length prefix.
    values.reserve(
        std::min<std::uint64_t>(n, remaining() / sizeof(std::uint64_t)));
    for (std::uint64_t i = 0; i < n; ++i) values.push_back(unpack_string());
    return values;
  }

  /// View of the next `n` raw bytes (no copy); advances the cursor.
  std::span<const std::byte> unpack_raw(std::size_t n) {
    need(n);
    auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining())
      throw UsageError("UnpackBuffer: truncated payload");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Convenience: pack a single trivially-copyable value into a payload.
template <class T>
std::vector<std::byte> to_bytes(const T& value) {
  PackBuffer b;
  b.pack(value);
  return std::move(b).take();
}

/// Convenience: view a span of trivially-copyable values as raw bytes.
template <class T>
  requires std::is_trivially_copyable_v<T>
std::span<const std::byte> as_bytes_span(std::span<const T> values) {
  return {reinterpret_cast<const std::byte*>(values.data()),
          values.size_bytes()};
}

}  // namespace mxn::rt
