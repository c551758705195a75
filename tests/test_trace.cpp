// Tests for the tracing and metrics layer (src/trace): ring overflow
// semantics, the enabled/disabled gate, counters and log2-bucket
// histograms, and the Chrome trace-event JSON exporter (structure plus the
// span names the instrumented layers are expected to emit).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/erased_exec.hpp"
#include "dad/dist_array.hpp"
#include "rt/runtime.hpp"
#include "sched/cache.hpp"
#include "sched/executor.hpp"
#include "trace/trace.hpp"

namespace trace = mxn::trace;
namespace core = mxn::core;
namespace dad = mxn::dad;
namespace sched = mxn::sched;
namespace rt = mxn::rt;
using dad::AxisDist;

namespace {

/// Fixture that isolates trace state: every test starts disabled and empty.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::reset();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(trace::enabled());
  trace::instant("t.never", "test");
  { trace::Span s("t.never_span", "test"); }
  for (const auto& ev : trace::this_thread_events())
    EXPECT_STRNE(ev.name, "t.never");
  // Counters are always-on by design; spans and instants are not.
  EXPECT_EQ(trace::counter("t.c0").value(), 0u);
}

TEST_F(TraceTest, InstantAndSpanRecordWhenEnabled) {
  trace::set_enabled(true);
  trace::instant("t.mark", "test", 7);
  {
    trace::Span s("t.work", "test", 42);
  }
  const auto evs = trace::this_thread_events();
  int marks = 0, begins = 0, ends = 0;
  for (const auto& ev : evs) {
    if (std::string(ev.name) == "t.mark") {
      ++marks;
      EXPECT_EQ(ev.kind, trace::EventKind::Instant);
      EXPECT_EQ(ev.arg, 7u);
    }
    if (std::string(ev.name) == "t.work") {
      if (ev.kind == trace::EventKind::Begin) ++begins;
      if (ev.kind == trace::EventKind::End) ++ends;
    }
  }
  EXPECT_EQ(marks, 1);
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST_F(TraceTest, RingOverflowKeepsNewest) {
  trace::set_enabled(true);
  const std::size_t n = trace::kRingCapacity + 100;
  for (std::size_t i = 0; i < n; ++i)
    trace::instant("t.flood", "test", i);
  const auto evs = trace::this_thread_events();
  ASSERT_EQ(evs.size(), trace::kRingCapacity);
  // Oldest-first snapshot: the first retained event is i = n - capacity,
  // the last is i = n - 1.
  EXPECT_EQ(evs.front().arg, n - trace::kRingCapacity);
  EXPECT_EQ(evs.back().arg, n - 1);
  for (std::size_t k = 1; k < evs.size(); ++k)
    EXPECT_EQ(evs[k].arg, evs[k - 1].arg + 1);
}

TEST_F(TraceTest, CounterAccumulates) {
  auto& c = trace::counter("t.acc");
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  // Same name returns the same counter.
  EXPECT_EQ(trace::counter("t.acc").value(), 7u);
  trace::reset();
  EXPECT_EQ(c.value(), 0u);  // reference stays valid across reset
}

TEST_F(TraceTest, CounterFamilySumsBlocksByNameAndKeepsRetiredValues) {
  auto& fam = trace::counter_family("t.fam.", {".a", ".b"});
  EXPECT_EQ(&trace::counter_family("t.fam.", {".a", ".b"}), &fam);
  EXPECT_THROW(trace::counter_family("t.fam.", {".a"}), std::invalid_argument);
  {
    trace::CounterFamily::Block one(fam), two(fam);
    EXPECT_EQ(one.add("x"), 0u);
    EXPECT_EQ(one.add("y"), 1u);
    EXPECT_EQ(two.add("x"), 0u);
    EXPECT_EQ(one.label(1), "y");
    one.at(0, 0).add(3);
    one.at(1, 1).add(5);
    two.at(0, 0).add(4);
    // Names are built by the snapshot; a label shared by two blocks is
    // summed over them.
    const auto live = trace::counters();
    EXPECT_EQ(live.at("t.fam.x.a"), 7u);
    EXPECT_EQ(live.at("t.fam.x.b"), 0u);
    EXPECT_EQ(live.at("t.fam.y.a"), 0u);
    EXPECT_EQ(live.at("t.fam.y.b"), 5u);
    EXPECT_EQ(live.count("t.fam.z.a"), 0u);
  }
  // Both blocks folded into the retired totals, which counter() resolves
  // to; later blocks of the same label add on top.
  EXPECT_EQ(trace::counters().at("t.fam.x.a"), 7u);
  auto& retired_x = trace::counter("t.fam.x.a");
  EXPECT_EQ(retired_x.value(), 7u);
  EXPECT_EQ(trace::counter("t.fam.y.b").value(), 5u);
  {
    trace::CounterFamily::Block three(fam);
    three.at(three.add("x"), 0).add(1);
    EXPECT_EQ(trace::counters().at("t.fam.x.a"), 8u);
    EXPECT_EQ(retired_x.value(), 7u);  // live values are not retired yet
  }
  EXPECT_EQ(retired_x.value(), 8u);
  trace::reset();
  EXPECT_EQ(retired_x.value(), 0u);
  EXPECT_EQ(trace::counters().at("t.fam.y.b"), 0u);
}

TEST_F(TraceTest, CounterFamilySnapshotsRaceAppendsTicksAndFolds) {
  // Owner threads append, tick and drop blocks while another thread keeps
  // snapshotting (run under TSan in CI).
  auto& fam = trace::counter_family("t.race.", {".n"});
  constexpr int kOwners = 3, kLabels = 64, kRounds = 4;
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load()) {
      // Each row counts once, live or retired: never above the final sum.
      const auto snap = trace::counters();
      const auto it = snap.find("t.race.l0.n");
      if (it != snap.end()) {
        EXPECT_LE(it->second, static_cast<std::uint64_t>(kOwners * kRounds));
      }
      std::this_thread::yield();
    }
  });
  // append, not "l" + ...: g++-12 -O2 flags the latter with -Wrestrict.
  auto label = [](int l) { return std::string("l").append(std::to_string(l)); };
  std::vector<std::thread> owners;
  for (int o = 0; o < kOwners; ++o)
    owners.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        trace::CounterFamily::Block block(fam);
        for (int l = 0; l < kLabels; ++l)
          block.at(block.add(label(l)), 0).add(1);
      }
    });
  for (auto& t : owners) t.join();
  done = true;
  watcher.join();
  const auto snap = trace::counters();
  for (int l = 0; l < kLabels; ++l)
    EXPECT_EQ(snap.at(std::string("t.race.").append(label(l)).append(".n")),
              static_cast<std::uint64_t>(kOwners * kRounds));
}

TEST_F(TraceTest, HistogramLog2Buckets) {
  auto& h = trace::histogram("t.lat");
  EXPECT_EQ(trace::Histogram::bucket_of(0), 0);
  EXPECT_EQ(trace::Histogram::bucket_of(1), 1);
  EXPECT_EQ(trace::Histogram::bucket_of(2), 2);
  EXPECT_EQ(trace::Histogram::bucket_of(3), 2);
  EXPECT_EQ(trace::Histogram::bucket_of(4), 3);
  EXPECT_EQ(trace::Histogram::bucket_of(1023), 10);
  EXPECT_EQ(trace::Histogram::bucket_of(1024), 11);

  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  // bucket_lo gives the inclusive lower bound of each bucket.
  EXPECT_EQ(trace::Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(trace::Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(trace::Histogram::bucket_lo(2), 2u);
  EXPECT_EQ(trace::Histogram::bucket_lo(11), 1024u);
}

TEST_F(TraceTest, SpanFeedsHistogramEvenWhenDisabled) {
  ASSERT_FALSE(trace::enabled());
  auto& h = trace::histogram("t.span_ns");
  { trace::Span s("t.timed", "test", 0, &h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(TraceTest, ErasedExecuteSpanCountsBytes) {
  trace::set_enabled(true);
  // A 2x3 double redistribution through the type-erased executor: each
  // rank's sched.execute span carries the bytes it moved (OBSERVABILITY.md),
  // the same unit the typed executor records — not the element count.
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::block(30, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::block(30, 3)});
  rt::spawn(5, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 2, 3);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    core::FieldRegistration fa, fb;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      fa = core::make_field("f", a.get(), core::AccessMode::Read);
    }
    if (md >= 0) {
      b = std::make_unique<dad::DistArray<double>>(dst, md);
      fb = core::make_field("f", b.get(), core::AccessMode::Write);
    }
    const auto s = sched::build_region_schedule(*src, *dst, ms, md);
    const auto moved = core::execute_erased(s, ms >= 0 ? &fa : nullptr,
                                            md >= 0 ? &fb : nullptr, c, 9);
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(s.send_elements() + s.recv_elements()) *
        sizeof(double);
    EXPECT_EQ(moved.bytes, bytes);
    int spans = 0;
    for (const auto& ev : trace::this_thread_events()) {
      if (std::string(ev.name) != "sched.execute" ||
          ev.kind != trace::EventKind::Begin)
        continue;
      ++spans;
      EXPECT_EQ(ev.arg, bytes) << "rank " << world.rank();
    }
    EXPECT_EQ(spans, 1);
  });
}

TEST_F(TraceTest, ChromeTraceExportParsesAndContainsExpectedSpans) {
  trace::set_enabled(true);
  // Run a tiny 1x2 redistribution through the instrumented stack so the
  // trace holds real spans from sched + rt.
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::block(16, 1)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::block(16, 2)});
  rt::spawn(3, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 1, 2);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill([](const dad::Point& p) { return double(p[0]); });
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);
    sched::ScheduleCache cache;
    for (int rep = 0; rep < 2; ++rep) {
      const auto s = cache.get_shared(src, dst, ms, md);
      sched::execute<double>(*s, a.get(), b.get(), c, 9);
    }
    world.barrier();
  });

  const char* path = "test_trace_out.json";
  trace::write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path);

  // Light-weight structural checks (no JSON library in the image): the
  // document is one object with a traceEvents array of balanced objects.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{' || ch == '[') ++depth;
    else if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // The instrumented layers must show up by name.
  EXPECT_NE(json.find("\"sched.build\""), std::string::npos);
  EXPECT_NE(json.find("\"sched.execute\""), std::string::npos);
  EXPECT_NE(json.find("\"sched.cache.hit\""), std::string::npos);
  EXPECT_NE(json.find("\"sched.cache.miss\""), std::string::npos);
  EXPECT_NE(json.find("\"rt.send\""), std::string::npos);
  EXPECT_NE(json.find("\"rt.recv\""), std::string::npos);
  EXPECT_NE(json.find("\"rt.barrier\""), std::string::npos);
  // Counter metadata rides along.
  EXPECT_NE(json.find("counter.rt.messages"), std::string::npos);
}

TEST_F(TraceTest, TailReportShowsRecentEventsPerRank) {
  trace::set_enabled(true);
  trace::set_thread_rank(5);
  trace::instant("t.tail_a", "test", 1);
  trace::instant("t.tail_b", "test", 2);
  const std::string report = trace::tail_report(4);
  EXPECT_NE(report.find("rank 5"), std::string::npos);
  EXPECT_NE(report.find("t.tail_a"), std::string::npos);
  EXPECT_NE(report.find("t.tail_b"), std::string::npos);
  trace::set_thread_rank(-1);
}

}  // namespace
