#pragma once

#include <cstdint>

#include "sidl/marshal.hpp"

namespace mxn::prmi {

/// Wire-protocol constants. The PRMI layer reserves the tag range
/// [kTagBase, ...) of the world communicator; application point-to-point
/// traffic should stay below it.
inline constexpr int kTagBase = 1 << 20;

/// One listen tag per instantiated component: headers, layout requests and
/// shutdown notices for every connection to that component arrive here
/// (payloads are self-describing).
inline constexpr int listen_tag(int component_index) {
  return kTagBase + component_index;
}

/// Per-connection tag block (64 tags each): returns, layout replies, and
/// per-parameter data channels in each direction.
inline constexpr int kConnStride = 64;
inline constexpr int kConnBase = kTagBase + 4096;
inline constexpr int kMaxParallelParams = 16;

inline constexpr int return_tag(int conn) {
  return kConnBase + conn * kConnStride + 0;
}
inline constexpr int layout_reply_tag(int conn) {
  return kConnBase + conn * kConnStride + 1;
}
inline constexpr int data_in_tag(int conn, int param) {
  return kConnBase + conn * kConnStride + 2 + param;
}
inline constexpr int data_out_tag(int conn, int param) {
  return kConnBase + conn * kConnStride + 2 + kMaxParallelParams + param;
}

/// Header kinds carried on the listen tag.
enum class MsgKind : std::uint8_t {
  Invoke,            // collective invocation
  InvokeIndependent, // one-to-one invocation
  LayoutRequest,     // fetch the callee's parallel-parameter layouts
  Shutdown,          // end a serve() loop
  InvokeBatch,       // coalesced independent invocations, one per sub-header
};

/// Return statuses (shared with every SIDL reply record).
using sidl::CallStatus;

}  // namespace mxn::prmi
