// Traffic sources feeding Ethernet frames into stations/devices.
//
// The paper's workload is saturated UDP traffic from N stations to one
// destination D at the default CA1 priority. SaturatedSource keeps a
// device's transmit backlog topped up; PoissonSource and OnOffSource
// support the unsaturated and bursty regimes used by the extended
// experiments.
#pragma once

#include <cstdint>
#include <functional>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "frames/ethernet.hpp"

namespace plc::workload {

/// Receives generated frames.
using FrameSink = std::function<void(frames::EthernetFrame)>;

/// Reads the sink's current backlog (in the sink's own units, e.g. frames
/// or physical blocks), letting saturating sources pace themselves.
using BacklogProbe = std::function<std::size_t()>;

/// Shape of the generated frames (a UDP-like payload).
struct FrameTemplate {
  frames::MacAddress destination;
  frames::MacAddress source;
  std::uint16_t ether_type = frames::kEtherTypeIpv4;
  std::size_t payload_bytes = 1470;  ///< Typical saturating UDP datagram.

  frames::EthernetFrame make(std::uint32_t sequence) const;
};

/// Keeps the sink backlog at `target_backlog`: reads it every
/// `poll_interval` and pushes frames only while it is below target, so
/// the backlog never exceeds the target by more than one frame. This
/// models an application-layer iperf-style flood whose socket buffer
/// never empties.
class SaturatedSource {
 public:
  SaturatedSource(des::Scheduler& scheduler, FrameTemplate frame_template,
                  FrameSink sink, BacklogProbe backlog,
                  std::size_t target_backlog = 32,
                  des::SimTime poll_interval = des::SimTime::from_us(500));

  /// Starts generation (first refill immediately).
  void start();

  std::int64_t frames_generated() const { return frames_generated_; }

 private:
  void refill();

  des::Scheduler& scheduler_;
  FrameTemplate template_;
  FrameSink sink_;
  BacklogProbe backlog_;
  std::size_t target_backlog_;
  des::SimTime poll_interval_;
  std::int64_t frames_generated_ = 0;
  std::uint32_t sequence_ = 0;
};

/// Poisson arrivals at a given mean rate (frames per second).
class PoissonSource {
 public:
  PoissonSource(des::Scheduler& scheduler, FrameTemplate frame_template,
                FrameSink sink, double rate_fps, des::RandomStream rng);

  void start();
  void stop() { running_ = false; }

  std::int64_t frames_generated() const { return frames_generated_; }

 private:
  void arrival();

  des::Scheduler& scheduler_;
  FrameTemplate template_;
  FrameSink sink_;
  double rate_fps_;
  des::RandomStream rng_;
  bool running_ = false;
  std::int64_t frames_generated_ = 0;
  std::uint32_t sequence_ = 0;
};

/// Exponential ON/OFF source: during ON periods, constant-rate arrivals.
class OnOffSource {
 public:
  OnOffSource(des::Scheduler& scheduler, FrameTemplate frame_template,
              FrameSink sink, double on_rate_fps,
              des::SimTime mean_on, des::SimTime mean_off,
              des::RandomStream rng);

  void start();

  std::int64_t frames_generated() const { return frames_generated_; }
  bool is_on() const { return on_; }

 private:
  void toggle();
  void arrival();

  des::Scheduler& scheduler_;
  FrameTemplate template_;
  FrameSink sink_;
  double on_rate_fps_;
  des::SimTime mean_on_;
  des::SimTime mean_off_;
  des::RandomStream rng_;
  bool on_ = false;
  std::int64_t frames_generated_ = 0;
  std::uint32_t sequence_ = 0;
};

}  // namespace plc::workload
