// Unit tests for the message-passing runtime substrate (src/rt) that stands
// in for MPI: matched point-to-point, collectives, communicator split,
// non-blocking requests, failure propagation and the deadlock watchdog.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "rt/runtime.hpp"
#include "rt/universe.hpp"
#include "trace/trace.hpp"

namespace rt = mxn::rt;

TEST(RtSpawn, RunsRequestedNumberOfProcesses) {
  std::atomic<int> count{0};
  rt::spawn(7, [&](rt::Communicator& comm) {
    EXPECT_EQ(comm.size(), 7);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 7);
    ++count;
  });
  EXPECT_EQ(count.load(), 7);
}

TEST(RtSpawn, RejectsNonPositiveProcessCount) {
  EXPECT_THROW(rt::spawn(0, [](rt::Communicator&) {}), rt::UsageError);
  EXPECT_THROW(rt::spawn(-3, [](rt::Communicator&) {}), rt::UsageError);
}

TEST(RtSpawn, PropagatesFirstExceptionAndUnblocksSiblings) {
  try {
    rt::spawn(4, [](rt::Communicator& comm) {
      if (comm.rank() == 2) throw std::logic_error("boom");
      // Everyone else blocks in a receive that will never be satisfied;
      // the abort must unwind them.
      comm.recv(rt::kAnySource, 42);
    });
    FAIL() << "expected exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(RtPointToPoint, DeliversPayloadAndMetadata) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> values = {1.5, -2.25, 3.75};
      comm.send_span<double>(1, 7, values);
    } else {
      int src = -1;
      auto got = comm.recv_vector<double>(0, 7, &src);
      EXPECT_EQ(src, 0);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[0], 1.5);
      EXPECT_DOUBLE_EQ(got[1], -2.25);
      EXPECT_DOUBLE_EQ(got[2], 3.75);
    }
  });
}

TEST(RtPointToPoint, MatchesOnSourceAndTagOutOfOrder) {
  rt::spawn(3, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(2, 5, 50);
      comm.send_value<int>(2, 6, 60);
    } else if (comm.rank() == 1) {
      comm.send_value<int>(2, 5, 51);
    } else {
      // Receive in an order unrelated to arrival order.
      EXPECT_EQ(comm.recv_value<int>(1, 5), 51);
      EXPECT_EQ(comm.recv_value<int>(0, 6), 60);
      EXPECT_EQ(comm.recv_value<int>(0, 5), 50);
    }
  });
}

TEST(RtPointToPoint, FifoPerSourceAndTag) {
  rt::spawn(2, [](rt::Communicator& comm) {
    constexpr int kN = 100;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) comm.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(RtPointToPoint, AnySourceWildcardReceivesAll) {
  rt::spawn(5, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      std::multiset<int> got;
      for (int i = 0; i < 4; ++i) {
        got.insert(comm.recv_value<int>(rt::kAnySource, 9));
      }
      EXPECT_EQ(got, (std::multiset<int>{1, 2, 3, 4}));
    } else {
      comm.send_value<int>(0, 9, comm.rank());
    }
  });
}

TEST(RtPointToPoint, SelfSendIsBufferedAndMatched) {
  rt::spawn(1, [](rt::Communicator& comm) {
    comm.send_value<int>(0, 1, 99);
    EXPECT_EQ(comm.recv_value<int>(0, 1), 99);
  });
}

TEST(RtPointToPoint, NegativeUserTagRejected) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send_value<int>(1, -5, 1), rt::UsageError);
      comm.send_value<int>(1, 0, 1);  // unblock peer
    } else {
      comm.recv(0, 0);
    }
  });
}

TEST(RtPointToPoint, OutOfRangeDestinationRejected) {
  rt::spawn(2, [](rt::Communicator& comm) {
    EXPECT_THROW(comm.send_value<int>(2, 0, 1), rt::UsageError);
    EXPECT_THROW(comm.send_value<int>(-1, 0, 1), rt::UsageError);
  });
}

TEST(RtNonBlocking, IrecvCompletesViaWait) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      auto req = comm.irecv(1, 4);
      rt::Message m = req.wait();
      EXPECT_EQ(m.src, 1);
      rt::UnpackBuffer u(m.payload);
      EXPECT_EQ(u.unpack<int>(), 1234);
    } else {
      comm.send_value<int>(0, 4, 1234);
    }
  });
}

TEST(RtNonBlocking, TestPollsWithoutBlocking) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      auto req = comm.irecv(1, 4);
      rt::Message m;
      while (!req.test(&m)) {
      }
      EXPECT_EQ(m.src, 1);
    } else {
      comm.send_value<int>(0, 4, 7);
    }
  });
}

TEST(RtNonBlocking, WaitAllGathersEverything) {
  rt::spawn(4, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<rt::Request> reqs;
      for (int r = 1; r < 4; ++r) reqs.push_back(comm.irecv(r, 2));
      auto msgs = rt::wait_all(reqs);
      ASSERT_EQ(msgs.size(), 3u);
      for (int i = 0; i < 3; ++i) EXPECT_EQ(msgs[i].src, i + 1);
    } else {
      comm.send_value<int>(0, 2, comm.rank());
    }
  });
}

TEST(RtNonBlocking, CompletedRequestsAreSticky) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      auto req = comm.irecv(1, 4);
      rt::Message first = req.wait();
      EXPECT_EQ(first.src, 1);
      // Regression: wait() used to move the message out of the request, so
      // a second wait()/test() observed a moved-from empty Message.
      rt::Message again = req.wait();
      EXPECT_EQ(again.src, 1);
      ASSERT_EQ(again.payload.size(), first.payload.size());
      rt::UnpackBuffer u(again.payload);
      EXPECT_EQ(u.unpack<int>(), 4321);
      rt::Message polled;
      EXPECT_TRUE(req.test(&polled));
      rt::UnpackBuffer up(polled.payload);
      EXPECT_EQ(up.unpack<int>(), 4321);
      // Re-reads share one refcounted block rather than copying it.
      EXPECT_EQ(first.payload.data(), again.payload.data());
      EXPECT_EQ(first.payload.data(), polled.payload.data());
    } else {
      comm.send_value<int>(0, 4, 4321);
    }
  });
}

TEST(RtTimeout, TypedReceiveHelpersHonorDeadline) {
  // Regression: recv_vector/recv_value/wait_all used to drop the per-call
  // deadline on the floor, waiting forever on the underlying recv.
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.recv_vector<int>(1, 8, nullptr, 50),
                   rt::TimeoutError);
      EXPECT_THROW(comm.recv_value<int>(1, 8, nullptr, 50), rt::TimeoutError);
      std::vector<rt::Request> reqs;
      reqs.push_back(comm.irecv(1, 8));
      EXPECT_THROW(rt::wait_all(reqs, 50), rt::TimeoutError);
      comm.send_value<int>(1, 9, 1);  // release the peer
    } else {
      comm.recv(0, 9);
    }
  });
}

TEST(RtProbe, ProbeAndTryRecv) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      // The peer sends only on our signal, so nothing can be in flight yet.
      // (This used to race the peer's eager send: the "not arrived yet"
      // try_recv could consume the real message and livelock the probe
      // loop below.)
      EXPECT_FALSE(comm.try_recv(1, 11).has_value());
      comm.send(1, 10, std::vector<std::byte>{});
      while (!comm.probe(1, 11)) {
      }
      auto m = comm.try_recv(1, 11);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->src, 1);
    } else {
      comm.recv(0, 10);
      comm.send_value<int>(0, 11, 1);
    }
  });
}

TEST(RtCollectives, BarrierSynchronizes) {
  // After a barrier, all pre-barrier sends must be observable.
  rt::spawn(6, [](rt::Communicator& comm) {
    if (comm.rank() != 0) comm.send_value<int>(0, 1, comm.rank());
    comm.barrier();
    if (comm.rank() == 0) {
      for (int i = 1; i < 6; ++i) EXPECT_TRUE(comm.probe(i, 1));
      for (int i = 1; i < 6; ++i) comm.recv(i, 1);
    }
  });
}

TEST(RtCollectives, BcastFromEveryRoot) {
  rt::spawn(4, [](rt::Communicator& comm) {
    for (int root = 0; root < 4; ++root) {
      const int value = comm.rank() == root ? 100 + root : -1;
      EXPECT_EQ(comm.bcast_value(value, root), 100 + root);
    }
  });
}

TEST(RtCollectives, BcastVector) {
  rt::spawn(3, [](rt::Communicator& comm) {
    std::vector<int> v;
    if (comm.rank() == 1) v = {3, 1, 4, 1, 5};
    auto got = comm.bcast_vector(v, 1);
    EXPECT_EQ(got, (std::vector<int>{3, 1, 4, 1, 5}));
  });
}

TEST(RtCollectives, GatherCollectsBySourceRank) {
  rt::spawn(5, [](rt::Communicator& comm) {
    auto parts = comm.gather(rt::to_bytes(comm.rank() * 10), 2);
    if (comm.rank() == 2) {
      ASSERT_EQ(parts.size(), 5u);
      for (int i = 0; i < 5; ++i) {
        rt::UnpackBuffer u(parts[i]);
        EXPECT_EQ(u.unpack<int>(), i * 10);
      }
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
}

TEST(RtCollectives, AllgatherGivesEveryoneEverything) {
  rt::spawn(4, [](rt::Communicator& comm) {
    auto all = comm.allgather_value<int>(comm.rank() + 1);
    EXPECT_EQ(all, (std::vector<int>{1, 2, 3, 4}));
  });
}

TEST(RtCollectives, AlltoallPersonalizedExchange) {
  rt::spawn(4, [](rt::Communicator& comm) {
    // Rank r sends value 10*r + dst to each dst; entry sizes differ by dst.
    std::vector<rt::Buffer> out(4);
    for (int dst = 0; dst < 4; ++dst) {
      rt::PackBuffer b;
      b.pack(10 * comm.rank() + dst);
      b.pack_raw(std::vector<std::byte>(sizeof(int) * dst));  // variable size
      out[dst] = std::move(b).take_buffer();
    }
    auto in = comm.alltoall(std::move(out));
    ASSERT_EQ(in.size(), 4u);
    for (int src = 0; src < 4; ++src) {
      rt::UnpackBuffer u(in[src]);
      EXPECT_EQ(u.unpack<int>(), 10 * src + comm.rank());
    }
  });
}

TEST(RtCollectives, AllreduceCombines) {
  rt::spawn(6, [](rt::Communicator& comm) {
    const int sum =
        comm.allreduce(comm.rank() + 1, [](int a, int b) { return a + b; });
    EXPECT_EQ(sum, 21);
    const int mx =
        comm.allreduce(comm.rank(), [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(mx, 5);
  });
}

TEST(RtSplit, PartitionsByColorOrderedByKey) {
  rt::spawn(6, [](rt::Communicator& comm) {
    // Even ranks -> color 0, odd -> color 1. Key reverses the order.
    const int color = comm.rank() % 2;
    auto sub = comm.split(color, -comm.rank());
    ASSERT_FALSE(sub.is_null());
    EXPECT_EQ(sub.size(), 3);
    // Reversed key order: world rank 4 gets sub-rank 0 in color 0, etc.
    const int expected_rank = (6 - 2 - comm.rank() + color) / 2 + 0;
    // color 0: world {0,2,4} keys {0,-2,-4} -> order 4,2,0
    // color 1: world {1,3,5} keys {-1,-3,-5} -> order 5,3,1
    (void)expected_rank;
    std::vector<int> expected_world =
        color == 0 ? std::vector<int>{4, 2, 0} : std::vector<int>{5, 3, 1};
    EXPECT_EQ(sub.world_rank(sub.rank()), comm.rank());
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(sub.world_rank(i), expected_world[i]);
    // The sub-communicator must carry traffic independently.
    const int total =
        sub.allreduce(comm.rank(), [](int a, int b) { return a + b; });
    EXPECT_EQ(total, color == 0 ? 6 : 9);
  });
}

TEST(RtSplit, UndefinedColorYieldsNullHandle) {
  rt::spawn(4, [](rt::Communicator& comm) {
    auto sub = comm.split(comm.rank() < 2 ? 0 : rt::kUndefinedColor, 0);
    if (comm.rank() < 2) {
      ASSERT_FALSE(sub.is_null());
      EXPECT_EQ(sub.size(), 2);
    } else {
      EXPECT_TRUE(sub.is_null());
    }
  });
}

TEST(RtSplit, RepeatedSplitsUseFreshBoards) {
  rt::spawn(4, [](rt::Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      auto sub = comm.split(comm.rank() / 2, comm.rank());
      ASSERT_EQ(sub.size(), 2);
      const int peer_sum =
          sub.allreduce(comm.rank(), [](int a, int b) { return a + b; });
      EXPECT_EQ(peer_sum, comm.rank() < 2 ? 1 : 5);
    }
  });
}

TEST(RtSplit, DupKeepsMembershipAndOrder) {
  rt::spawn(3, [](rt::Communicator& comm) {
    auto d = comm.dup();
    EXPECT_EQ(d.size(), 3);
    EXPECT_EQ(d.rank(), comm.rank());
    for (int i = 0; i < 3; ++i) EXPECT_EQ(d.world_rank(i), i);
  });
}

TEST(RtStats, CountsMessagesAndBytes) {
  rt::spawn(2, [](rt::Communicator& comm) {
    // Measure on rank 0 only; its snapshots bracket exactly one 128-byte
    // message out and one empty ack back.
    if (comm.rank() == 0) {
      auto before = comm.stats();
      std::vector<std::byte> payload(128);
      comm.send(1, 1, payload);
      comm.recv(1, 2);
      auto delta = comm.stats() - before;
      EXPECT_EQ(delta.messages, 2u);
      EXPECT_EQ(delta.bytes, 128u);
    } else {
      comm.recv(0, 1);
      comm.send(0, 2, std::vector<std::byte>{});
    }
  });
}

TEST(RtDeadlock, WatchdogDetectsAllBlocked) {
  // Every rank waits for a message that never comes.
  EXPECT_THROW(
      rt::spawn(
          3, [](rt::Communicator& comm) { comm.recv(rt::kAnySource, 0); },
          {.deadlock_timeout_ms = 200}),
      rt::DeadlockError);
}

TEST(RtDeadlock, NoFalsePositiveUnderTraffic) {
  rt::spawn(
      2,
      [](rt::Communicator& comm) {
        // Ping-pong longer than the watchdog timeout; traffic must keep
        // resetting the idle clock.
        for (int i = 0; i < 50; ++i) {
          if (comm.rank() == 0) {
            comm.send_value<int>(1, 1, i);
            comm.recv(1, 2);
          } else {
            comm.recv(0, 1);
            comm.send_value<int>(0, 2, i);
          }
        }
      },
      {.deadlock_timeout_ms = 300});
}

TEST(RtSerialize, RoundTripsMixedContent) {
  rt::PackBuffer b;
  b.pack(42);
  b.pack(std::string("hello"));
  b.pack(std::vector<double>{1.0, 2.0});
  b.pack(std::vector<std::string>{"a", "bc"});
  auto bytes = std::move(b).take();

  rt::UnpackBuffer u(bytes);
  EXPECT_EQ(u.unpack<int>(), 42);
  EXPECT_EQ(u.unpack_string(), "hello");
  EXPECT_EQ(u.unpack_vector<double>(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(u.unpack_string_vector(),
            (std::vector<std::string>{"a", "bc"}));
  EXPECT_TRUE(u.empty());
}

TEST(RtSerialize, TruncatedPayloadThrows) {
  rt::PackBuffer b;
  b.pack<std::uint16_t>(7);
  auto bytes = std::move(b).take();
  rt::UnpackBuffer u(bytes);
  EXPECT_THROW(u.unpack<std::uint64_t>(), rt::UsageError);
}

// Property-style sweep: a ring rotation must deliver every token exactly once
// for a range of sizes.
class RtRingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RtRingSweep, RingRotationDeliversAllTokens) {
  const int n = GetParam();
  rt::spawn(n, [n](rt::Communicator& comm) {
    const int next = (comm.rank() + 1) % n;
    const int prev = (comm.rank() + n - 1) % n;
    int token = comm.rank();
    for (int step = 0; step < n; ++step) {
      comm.send_value<int>(next, 1, token);
      token = comm.recv_value<int>(prev, 1);
    }
    EXPECT_EQ(token, comm.rank());
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, RtRingSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(RtRecvMatching, PredicateSelectsAcrossTagStream) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      // Three messages on one tag; payload first byte is the kind.
      for (int kind : {7, 9, 7}) {
        rt::PackBuffer b;
        b.pack(static_cast<std::uint8_t>(kind));
        b.pack(kind * 100 + 1);
        comm.send(1, 5, std::move(b).take());
      }
    } else {
      auto want = [](std::uint8_t k) {
        return [k](const rt::Message& m) {
          rt::UnpackBuffer u(m.payload);
          return u.unpack<std::uint8_t>() == k;
        };
      };
      // Pull the kind-9 message first even though it arrived second.
      auto m9 = comm.recv_matching(0, 5, want(9));
      rt::UnpackBuffer u9(m9.payload);
      (void)u9.unpack<std::uint8_t>();
      EXPECT_EQ(u9.unpack<int>(), 901);
      // FIFO among matches: the two kind-7 messages come in send order.
      auto m7a = comm.recv_matching(0, 5, want(7));
      auto m7b = comm.recv_matching(0, 5, want(7));
      rt::UnpackBuffer ua(m7a.payload), ub(m7b.payload);
      (void)ua.unpack<std::uint8_t>();
      (void)ub.unpack<std::uint8_t>();
      EXPECT_EQ(ua.unpack<int>(), 701);
      EXPECT_EQ(ub.unpack<int>(), 701);
    }
  });
}

TEST(RtRecvMatching, BlocksUntilMatchingMessageArrives) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      // A non-matching message first, then (after a handshake) the match.
      comm.send_value<int>(1, 3, 111);
      comm.recv(1, 4);  // peer saw the first message
      comm.send_value<int>(1, 3, 222);
    } else {
      while (!comm.probe(0, 3)) {
      }
      comm.send(0, 4, std::vector<std::byte>{});
      auto m = comm.recv_matching(0, 3, [](const rt::Message& msg) {
        rt::UnpackBuffer u(msg.payload);
        return u.unpack<int>() == 222;
      });
      rt::UnpackBuffer u(m.payload);
      EXPECT_EQ(u.unpack<int>(), 222);
      // The skipped message is still there.
      EXPECT_EQ(comm.recv_value<int>(0, 3), 111);
    }
  });
}

// ---------------------------------------------------------------------------
// subset() and epoch_fence() (elastic rescaling support)
// ---------------------------------------------------------------------------

TEST(RtSubset, MembersGetListOrderRanksOthersNull) {
  rt::spawn(6, [](rt::Communicator& world) {
    // Deliberately NOT in world-rank order: subset rank = list index.
    const std::vector<int> members{4, 1, 3};
    auto sub = world.subset(members);
    if (world.rank() == 4 || world.rank() == 1 || world.rank() == 3) {
      ASSERT_FALSE(sub.is_null());
      EXPECT_EQ(sub.size(), 3);
      const int expect_rank =
          world.rank() == 4 ? 0 : (world.rank() == 1 ? 1 : 2);
      EXPECT_EQ(sub.rank(), expect_rank);
      // The subset is a working communicator.
      EXPECT_EQ(sub.allreduce(1, [](int a, int b) { return a + b; }), 3);
    } else {
      EXPECT_TRUE(sub.is_null());
    }
  });
}

TEST(RtSubset, ValidatesMemberList) {
  rt::spawn(2, [](rt::Communicator& world) {
    EXPECT_THROW(world.subset({}), rt::UsageError);
    EXPECT_THROW(world.subset({0, 2}), rt::UsageError);   // out of range
    EXPECT_THROW(world.subset({0, -1}), rt::UsageError);  // out of range
    EXPECT_THROW(world.subset({0, 0}), rt::UsageError);   // duplicate
    // The collective still completes after consistent throws: every rank
    // threw before entering the rendezvous, so no board entry leaked.
    auto sub = world.subset({1, 0});
    EXPECT_EQ(sub.rank(), 1 - world.rank());
  });
}

TEST(RtSubset, SubsetOnLiveSplitWorksAfterADeath) {
  // The recovery path's rendezvous: subset() is a full-quorum collective
  // (it delegates to split()), so after a death the survivors first carve a
  // live-only communicator with split_live() and run subset() on THAT. The
  // dead rank is not a member of the live comm and owes it nothing.
  EXPECT_THROW(
      rt::spawn(
          4,
          [](rt::Communicator& world) {
            const int r = world.rank();
            rt::Universe* uni = world.universe();
            if (r == 2) {
              // First counted op trips the scheduled kill; the unwinding
              // KilledError is what flags the death in the universe.
              world.send_value(0, 11, 1);
              return;
            }
            for (int i = 0; i < 5000 && uni->dead() == 0; ++i)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ASSERT_EQ(uni->dead(), 1);
            auto live = world.split_live(0, r, 5000);
            ASSERT_FALSE(live.is_null());
            ASSERT_EQ(live.size(), 3);  // live ranks 0,1,2 = world 0,1,3
            // Pick two survivors, deliberately not in rank order: the list
            // order carries into the new comm.
            auto sub = live.subset({2, 0});
            if (r == 1) {
              EXPECT_TRUE(sub.is_null());
            } else {
              ASSERT_FALSE(sub.is_null());
              EXPECT_EQ(sub.size(), 2);
              EXPECT_EQ(sub.rank(), r == 3 ? 0 : 1);
              EXPECT_EQ(sub.allreduce(r, [](int a, int b) { return a + b; }),
                        3);
            }
          },
          {.faults = rt::FaultPlan{.kills = {{2, 0}}}}),
      rt::KilledError);
}

TEST(RtSubset, SplitLiveReleasesSurvivorsAfterADeath) {
  // split_live() shrinks its rendezvous quorum to the ranks the universe
  // does not report dead: a member that died before (or during) the call
  // must not wedge the survivors the way a plain split() would.
  EXPECT_THROW(
      rt::spawn(
          4,
          [](rt::Communicator& world) {
            const int r = world.rank();
            rt::Universe* uni = world.universe();
            if (r == 2) {
              world.send_value(0, 11, 1);  // dies on its first counted op
              return;
            }
            for (int i = 0; i < 5000 && uni->dead() == 0; ++i)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ASSERT_EQ(uni->dead(), 1);
            // key = -rank orders the survivors in descending world rank,
            // exercising the key sort alongside the live-only quorum.
            auto sub = world.split_live(/*color=*/7, /*key=*/-r, 5000);
            ASSERT_FALSE(sub.is_null());
            EXPECT_EQ(sub.size(), 3);
            const int expect = r == 3 ? 0 : (r == 1 ? 1 : 2);
            EXPECT_EQ(sub.rank(), expect);
            EXPECT_EQ(sub.allreduce(1, [](int a, int b) { return a + b; }),
                      3);
          },
          {.faults = rt::FaultPlan{.kills = {{2, 0}}}}),
      rt::KilledError);
}

TEST(RtEpochFence, SynchronizesAndReportsWait) {
  rt::spawn(4, [](rt::Communicator& world) {
    std::int64_t waited = world.epoch_fence();
    EXPECT_GE(waited, 0);
    // After the fence, everyone observes everyone's pre-fence sends.
    world.send(0, 7, std::vector<std::byte>{});
    const std::int64_t w2 = world.epoch_fence();
    EXPECT_GE(w2, 0);
    if (world.rank() == 0) {
      for (int r = 0; r < 4; ++r) EXPECT_TRUE(world.probe(r, 7));
    }
  });
}

// ---------------------------------------------------------------------------
// Polling receives: a receive whose first scan misses re-scans its lanes for
// a bounded window before it parks, while the rank threads fit the CPUs.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t polled() {
  return mxn::trace::counter("rt.recv.polled").value();
}

/// Ranks 0 and 1 ping-pong `rounds` 8-byte messages; every rank then meets
/// at a barrier, so the others stay live (and counted) throughout.
void pingpong(rt::Communicator& comm, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<std::byte>(8));
      comm.recv(1, 2);
    } else if (comm.rank() == 1) {
      comm.recv(0, 1);
      comm.send(0, 2, std::vector<std::byte>(8));
    }
  }
  comm.barrier();
}

}  // namespace

TEST(RtPolling, PingPongIsServedByPolling) {
  if (rt::affinity_cpus() < 2) GTEST_SKIP() << "two ranks need two CPUs";
  const std::uint64_t before = polled();
  rt::spawn(2, [](rt::Communicator& comm) { pingpong(comm, 200); });
  EXPECT_GT(polled(), before);
}

TEST(RtPolling, OversubscribedSpawnNeverPolls) {
  const std::uint64_t before = polled();
  rt::spawn(rt::affinity_cpus() + 1,
            [](rt::Communicator& comm) { pingpong(comm, 200); });
  EXPECT_EQ(polled(), before);
}

TEST(RtPolling, AbortWhilePollingUnwindsWithAbortError) {
  std::atomic<bool> unwound{false};
  EXPECT_THROW(
      rt::spawn(2,
                [&](rt::Communicator& comm) {
                  if (comm.rank() == 1) {
                    // Abort inside rank 0's poll window (50 us) more often
                    // than not; either way its receive must unwind typed.
                    const auto until = std::chrono::steady_clock::now() +
                                       std::chrono::microseconds(20);
                    while (std::chrono::steady_clock::now() < until) {
                    }
                    throw std::logic_error("boom");
                  }
                  try {
                    comm.recv(1, 3);
                  } catch (const rt::AbortError&) {
                    unwound = true;
                    throw;
                  }
                }),
      std::logic_error);
  EXPECT_TRUE(unwound.load());
}

TEST(RtPolling, OneMillisecondDeadlineStillTimesOut) {
  rt::spawn(2, [](rt::Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.recv(1, 4, 1), rt::TimeoutError);
    }
  });
}
