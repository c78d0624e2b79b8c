#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>

#include <gtest/gtest.h>

#include "des/scheduler.hpp"
#include "util/error.hpp"
#include "workload/sources.hpp"

namespace plc::workload {
namespace {

FrameTemplate make_template() {
  FrameTemplate t;
  t.destination = frames::MacAddress::for_station(2);
  t.source = frames::MacAddress::for_station(1);
  t.payload_bytes = 1470;
  return t;
}

TEST(FrameTemplate, StampsSequenceNumber) {
  const FrameTemplate t = make_template();
  const frames::EthernetFrame frame = t.make(0x01020304);
  EXPECT_EQ(frame.payload[0], 0x01);
  EXPECT_EQ(frame.payload[3], 0x04);
  EXPECT_EQ(frame.payload.size(), 1470u);
  EXPECT_EQ(frame.ether_type, frames::kEtherTypeIpv4);
}

TEST(FrameTemplate, RejectsOversizedPayload) {
  FrameTemplate t = make_template();
  t.payload_bytes = 2000;
  EXPECT_THROW(t.make(0), plc::Error);
}

TEST(Saturated, KeepsBacklogAboveTarget) {
  des::Scheduler scheduler;
  std::deque<frames::EthernetFrame> queue;
  SaturatedSource source(
      scheduler, make_template(),
      [&queue](frames::EthernetFrame frame) {
        queue.push_back(std::move(frame));
      },
      [&queue] { return queue.size(); },
      /*target_backlog=*/16, des::SimTime::from_us(100.0));
  source.start();
  // Consume 5 frames per 100 us; the source must keep up.
  for (int step = 0; step < 100; ++step) {
    scheduler.run_until(des::SimTime::from_us(100.0 * (step + 1)));
    for (int i = 0; i < 5 && !queue.empty(); ++i) queue.pop_front();
    if (step > 2) EXPECT_GE(queue.size(), 11u) << "step " << step;
  }
  EXPECT_GT(source.frames_generated(), 400);
}

TEST(Saturated, BacklogNeverExceedsTargetPlusOneFrame) {
  // A sink counted in physical blocks, three per frame, drained more
  // slowly than one frame per poll: a source that pushed before reading
  // the backlog would grow it by ~3 PBs per millisecond without bound.
  constexpr std::size_t kPbsPerFrame = 3;
  constexpr std::size_t kTarget = 32;
  des::Scheduler scheduler;
  std::size_t backlog = 0;
  std::size_t peak = 0;
  std::int64_t drained = 0;
  SaturatedSource source(
      scheduler, make_template(),
      [&](frames::EthernetFrame) {
        backlog += kPbsPerFrame;
        peak = std::max(peak, backlog);
      },
      [&] { return backlog; }, kTarget);
  std::function<void()> drain = [&] {
    const std::size_t burst = std::min<std::size_t>(backlog, 7);
    backlog -= burst;
    drained += static_cast<std::int64_t>(burst);
    scheduler.schedule(des::SimTime::from_us(2300.0), drain);
  };
  scheduler.schedule(des::SimTime::from_us(2300.0), drain);
  source.start();
  scheduler.run_until(des::SimTime::from_seconds(10.0));
  EXPECT_LE(peak, kTarget + kPbsPerFrame);
  EXPECT_GE(backlog, kTarget - 7);  // Still saturated after the last drain.
  // Every generated frame is either drained or still queued.
  EXPECT_EQ(source.frames_generated() * static_cast<std::int64_t>(kPbsPerFrame),
            drained + static_cast<std::int64_t>(backlog));
  EXPECT_GT(drained, 30'000);
}

TEST(Poisson, RateIsStatisticallyCorrect) {
  des::Scheduler scheduler;
  std::int64_t arrivals = 0;
  PoissonSource source(
      scheduler, make_template(),
      [&arrivals](frames::EthernetFrame) {
        ++arrivals;
      },
      /*rate_fps=*/1000.0, des::RandomStream(7));
  source.start();
  scheduler.run_until(des::SimTime::from_seconds(20.0));
  // 20k expected; 3-sigma ~ 3*sqrt(20000) ~ 424.
  EXPECT_NEAR(static_cast<double>(arrivals), 20'000.0, 600.0);
}

TEST(Poisson, StopHaltsArrivals) {
  des::Scheduler scheduler;
  std::int64_t arrivals = 0;
  PoissonSource source(
      scheduler, make_template(),
      [&arrivals](frames::EthernetFrame) {
        ++arrivals;
      },
      1000.0, des::RandomStream(8));
  source.start();
  scheduler.run_until(des::SimTime::from_seconds(1.0));
  source.stop();
  const std::int64_t at_stop = arrivals;
  scheduler.run_until(des::SimTime::from_seconds(2.0));
  EXPECT_LE(arrivals, at_stop + 1);  // At most one in-flight event.
}

TEST(OnOff, GeneratesOnlyDuringOnPeriods) {
  des::Scheduler scheduler;
  std::int64_t arrivals = 0;
  OnOffSource source(
      scheduler, make_template(),
      [&arrivals](frames::EthernetFrame) {
        ++arrivals;
      },
      /*on_rate_fps=*/1000.0, des::SimTime::from_seconds(0.5),
      des::SimTime::from_seconds(0.5), des::RandomStream(9));
  source.start();
  scheduler.run_until(des::SimTime::from_seconds(20.0));
  // Duty cycle 50%: expect about 10k arrivals, loosely bounded.
  EXPECT_GT(arrivals, 5'000);
  EXPECT_LT(arrivals, 15'000);
}

TEST(Sources, ValidateArguments) {
  des::Scheduler scheduler;
  const auto sink = [](frames::EthernetFrame) {};
  const auto backlog = [] { return std::size_t{0}; };
  EXPECT_THROW(SaturatedSource(scheduler, make_template(), sink, backlog, 0),
               plc::Error);
  EXPECT_THROW(SaturatedSource(scheduler, make_template(), sink, nullptr),
               plc::Error);
  EXPECT_THROW(PoissonSource(scheduler, make_template(), sink, 0.0,
                             des::RandomStream(1)),
               plc::Error);
  EXPECT_THROW(OnOffSource(scheduler, make_template(), sink, 100.0,
                           des::SimTime::zero(),
                           des::SimTime::from_seconds(1),
                           des::RandomStream(1)),
               plc::Error);
}

}  // namespace
}  // namespace plc::workload
