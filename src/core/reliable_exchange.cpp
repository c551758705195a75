#include "core/reliable_exchange.hpp"

#include <cstring>
#include <vector>

namespace mxn::core {

using rt::UsageError;

namespace {

// Reliable-mode wire framing: every data/ack/commit payload starts with the
// sender's 8-byte attempt serial. Receivers discard anything older than
// their own attempt — stale traffic from an aborted attempt is consumed and
// dropped, never mistaken for the retry.
constexpr std::size_t kSerialBytes = sizeof(std::uint64_t);

std::uint64_t peek_serial(std::span<const std::byte> payload) {
  if (payload.size() < kSerialBytes)
    throw UsageError("reliable transfer message too short for its serial");
  std::uint64_t s = 0;
  std::memcpy(&s, payload.data(), kSerialBytes);
  return s;
}

void put_serial(std::byte* out, std::uint64_t s) {
  std::memcpy(out, &s, kSerialBytes);
}

std::vector<std::byte> serial_only(std::uint64_t s) {
  std::vector<std::byte> b(kSerialBytes);
  put_serial(b.data(), s);
  return b;
}

}  // namespace

std::optional<MovedCounts> run_reliable_attempt(const ReliableExchange& x) {
  const sched::RegionSchedule& s = *x.schedule;
  const sched::Coupling& cpl = *x.coupling;
  rt::Communicator channel = cpl.channel;
  const int to = x.timeout_ms;
  std::uint64_t& serial = *x.serial;
  ++serial;
  // The serial this attempt's outbound messages carry. Staging below may
  // ratchet `serial` up when a peer is ahead; the ack/commit handshake for
  // data already sent must keep using the value it was stamped with.
  const std::uint64_t my_serial = serial;
  const bool sending = x.src != nullptr && !s.sends.empty();
  const bool receiving = x.dst != nullptr && !s.recvs.empty();
  MovedCounts moved;
  std::vector<rt::Buffer> staged(s.recvs.size());
  std::vector<std::uint64_t> serials(s.recvs.size(), 0);
  try {
    // Phase ordering matters when a rank is BOTH a source and a destination
    // of the same exchange (rescale migrations where the old and new rank
    // lists overlap): data sends are eager, but waiting for acks before
    // staging would deadlock a cyclic src→dst dependency (e.g. three
    // survivors mutually exchanging regions, each parked in its ack wait
    // with nobody staging). So: send data, stage ALL incoming, ack, and only
    // then wait for this rank's own acks and run the commit handshake.
    if (sending) {
      for (const auto& pr : s.sends) {
        const std::size_t nbytes =
            kSerialBytes +
            static_cast<std::size_t>(pr.elements) * x.src->storage.width;
        rt::Buffer buf = rt::Buffer::allocate(nbytes);
        put_serial(buf.mutable_data(), my_serial);
        sched::pack_regions(pr.regions, x.src->storage,
                            buf.mutable_data() + kSerialBytes);
        rt::note_bytes_copied(nbytes);
        moved.elements += static_cast<std::uint64_t>(pr.elements);
        moved.bytes += nbytes - kSerialBytes;
        channel.isend(cpl.dst_ranks.at(pr.peer), x.data_tag, std::move(buf));
      }
    }
    if (receiving) {
      // Phase 1: stage every peer's payload BEFORE acking anyone — a
      // missing source (killed, dropped) therefore fails every participant
      // of the transfer, not just the ranks wired to it, and nothing is
      // injected yet so any failure below unwinds to the pre-transfer
      // field state.
      // Staging holds a reference to each arrived payload block (no copy),
      // and stages in ARRIVAL order (sched::detail::drain_arrival_order),
      // so one slow source does not hold up validation of the others. A
      // stale serial is consumed and dropped, leaving its peer owed.
      sched::detail::drain_arrival_order(
          channel, cpl.src_ranks, s.recvs, x.data_tag, to,
          [&](std::size_t i, rt::Message m) {
            const std::uint64_t ser = peek_serial(m.payload);
            if (ser < serial) return false;  // stale attempt: drain and drop
            if (ser > serial) serial = ser;
            if (m.payload.size() - kSerialBytes !=
                static_cast<std::size_t>(s.recvs[i].elements) *
                    x.dst->storage.width)
              throw UsageError("reliable transfer payload size mismatch");
            staged[i] = std::move(m.payload);
            serials[i] = ser;
            return true;
          });
      for (std::size_t i = 0; i < s.recvs.size(); ++i)
        channel.send(cpl.src_ranks.at(s.recvs[i].peer), x.ack_tag,
                     serial_only(serials[i]));
    }
    if (sending) {
      for (const auto& pr : s.sends) {
        const int peer = cpl.dst_ranks.at(pr.peer);
        for (;;) {
          auto m = channel.recv(peer, x.ack_tag, to);
          if (peek_serial(m.payload) >= my_serial) break;  // else: stale ack
        }
      }
      // Every destination gets a reference to the same commit block.
      const rt::Buffer commit = serial_only(my_serial);
      for (const auto& pr : s.sends)
        channel.send(cpl.dst_ranks.at(pr.peer), x.commit_tag, commit);
    }
    if (receiving) {
      // Phase 2: wait for every source's commit, then inject.
      for (std::size_t i = 0; i < s.recvs.size(); ++i) {
        const int peer = cpl.src_ranks.at(s.recvs[i].peer);
        for (;;) {
          auto m = channel.recv(peer, x.commit_tag, to);
          if (peek_serial(m.payload) >= serials[i]) break;
        }
      }
      for (std::size_t i = 0; i < s.recvs.size(); ++i) {
        const auto& pr = s.recvs[i];
        sched::unpack_regions(pr.regions, x.dst->storage,
                              staged[i].data() + kSerialBytes);
        moved.elements += static_cast<std::uint64_t>(pr.elements);
        moved.bytes += staged[i].size() - kSerialBytes;
      }
    }
  } catch (const rt::TimeoutError&) {
    return std::nullopt;
  }
  return moved;
}

}  // namespace mxn::core
