#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "emu/device.hpp"
#include "emu/network.hpp"
#include "mme/sniffer.hpp"
#include "util/error.hpp"
#include "workload/sources.hpp"

namespace plc::emu {
namespace {

frames::EthernetFrame data_frame(const HpavDevice& from,
                                 const HpavDevice& to, int payload_bytes,
                                 std::uint8_t fill = 0x77) {
  frames::EthernetFrame frame;
  frame.destination = to.mac();
  frame.source = from.mac();
  frame.ether_type = frames::kEtherTypeIpv4;
  frame.payload.assign(static_cast<std::size_t>(payload_bytes), fill);
  return frame;
}

// --- FirmwareCounters -----------------------------------------------------------

TEST(Counters, AckedIncludesCollided) {
  FirmwareCounters counters;
  const frames::MacAddress peer = frames::MacAddress::for_station(9);
  counters.on_tx_acked(peer, frames::Priority::kCa1, 10);
  counters.on_tx_collided(peer, frames::Priority::kCa1, 4);
  const LinkCounters link =
      counters.read(peer, frames::Priority::kCa1, mme::StatDirection::kTx);
  EXPECT_EQ(link.acknowledged, 14u);  // 10 clean + 4 collided-but-acked.
  EXPECT_EQ(link.collided, 4u);
}

TEST(Counters, LinksAreIndependent) {
  FirmwareCounters counters;
  const frames::MacAddress a = frames::MacAddress::for_station(1);
  const frames::MacAddress b = frames::MacAddress::for_station(2);
  counters.on_tx_acked(a, frames::Priority::kCa1, 5);
  counters.on_tx_acked(b, frames::Priority::kCa1, 7);
  counters.on_tx_acked(a, frames::Priority::kCa2, 3);
  counters.on_rx_acked(a, frames::Priority::kCa1, 2);
  EXPECT_EQ(counters.read(a, frames::Priority::kCa1,
                          mme::StatDirection::kTx).acknowledged, 5u);
  EXPECT_EQ(counters.read(b, frames::Priority::kCa1,
                          mme::StatDirection::kTx).acknowledged, 7u);
  EXPECT_EQ(counters.read(a, frames::Priority::kCa2,
                          mme::StatDirection::kTx).acknowledged, 3u);
  EXPECT_EQ(counters.read(a, frames::Priority::kCa1,
                          mme::StatDirection::kRx).acknowledged, 2u);
  EXPECT_EQ(counters.tx_totals().acknowledged, 15u);
}

TEST(Counters, ResetClearsEverything) {
  FirmwareCounters counters;
  const frames::MacAddress peer = frames::MacAddress::for_station(9);
  counters.on_tx_collided(peer, frames::Priority::kCa1, 4);
  counters.reset_all();
  EXPECT_EQ(counters.tx_totals().acknowledged, 0u);
  EXPECT_EQ(counters.read(peer, frames::Priority::kCa1,
                          mme::StatDirection::kTx).collided, 0u);
}

// --- Device data path -----------------------------------------------------------------

TEST(Device, DeliversDataFramesEndToEnd) {
  Network network(1);
  HpavDevice& sender = network.add_device();
  HpavDevice& receiver = network.add_device();
  std::vector<frames::EthernetFrame> received;
  receiver.set_host_receive([&](const frames::EthernetFrame& frame) {
    if (frame.ether_type == frames::kEtherTypeIpv4) {
      received.push_back(frame);
    }
  });
  network.start();
  for (int i = 0; i < 50; ++i) {
    sender.host_send(
        data_frame(sender, receiver, 800, static_cast<std::uint8_t>(i)));
  }
  network.run_for(des::SimTime::from_seconds(1.0));
  ASSERT_EQ(received.size(), 50u);
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].payload[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(received[i].payload.size(), 800u);
    EXPECT_EQ(received[i].source, sender.mac());
  }
  EXPECT_EQ(receiver.host_frames_delivered(), 50);
}

TEST(Device, SmallFrameShipsAfterAggregationTimeout) {
  Network network(2);
  HpavDevice& sender = network.add_device();
  HpavDevice& receiver = network.add_device();
  int received = 0;
  receiver.set_host_receive([&](const frames::EthernetFrame& frame) {
    if (frame.ether_type == frames::kEtherTypeIpv4) ++received;
  });
  network.start();
  // 100 bytes: far less than one physical block.
  sender.host_send(data_frame(sender, receiver, 100));
  network.run_for(des::SimTime::from_us(200.0));
  EXPECT_EQ(received, 0);  // Still waiting for the aggregation timeout.
  network.run_for(des::SimTime::from_seconds(0.1));
  EXPECT_EQ(received, 1);
}

TEST(Device, CountersMatchDomainGroundTruth) {
  Network network(3);
  HpavDevice& a = network.add_device();
  HpavDevice& b = network.add_device();
  HpavDevice& d = network.add_device();
  network.start();
  // Saturate both senders toward d.
  workload::FrameTemplate ta;
  ta.destination = d.mac();
  ta.source = a.mac();
  workload::SaturatedSource sa(network.scheduler(), ta,
                               [&a](frames::EthernetFrame f) {
                                 a.host_send(f);
                               },
                               [&a] { return a.tx_backlog_pbs(); },
                               128);
  workload::FrameTemplate tb = ta;
  tb.source = b.mac();
  workload::SaturatedSource sb(network.scheduler(), tb,
                               [&b](frames::EthernetFrame f) {
                                 b.host_send(f);
                               },
                               [&b] { return b.tx_backlog_pbs(); },
                               128);
  sa.start();
  sb.start();
  network.run_for(des::SimTime::from_seconds(5.0));

  const medium::DomainStats& stats = network.domain().stats();
  EXPECT_GT(stats.collision_events, 0);
  const LinkCounters ca = a.counters().tx_totals();
  const LinkCounters cb = b.counters().tx_totals();
  // MPDU-level firmware counters match the medium's MPDU accounting up to
  // one in-flight burst: the domain counts at exchange start, the
  // firmware at exchange completion, and the run may stop in between.
  const auto near_eq = [](std::uint64_t lhs, std::uint64_t rhs) {
    const std::uint64_t diff = lhs > rhs ? lhs - rhs : rhs - lhs;
    EXPECT_LE(diff, 2u) << lhs << " vs " << rhs;
  };
  near_eq(ca.acknowledged + cb.acknowledged,
          static_cast<std::uint64_t>(stats.success_mpdus +
                                     stats.collided_mpdus));
  near_eq(ca.collided + cb.collided,
          static_cast<std::uint64_t>(stats.collided_mpdus));
  // Receive side: the destination acked both kinds.
  const LinkCounters rx_a = d.counters().read(
      a.mac(), frames::Priority::kCa1, mme::StatDirection::kRx);
  EXPECT_EQ(rx_a.acknowledged, ca.acknowledged);
  EXPECT_EQ(rx_a.collided, ca.collided);
}

TEST(Device, BurstsHaveUniformShapeUnderSaturation) {
  Network network(4);
  HpavDevice& sender = network.add_device();
  HpavDevice& receiver = network.add_device();
  // Observe burst shapes via the medium records.
  struct Tap : medium::MediumObserver {
    std::vector<int> burst_sizes;
    void on_medium_event(const medium::MediumEventRecord& record) override {
      if (record.type == medium::MediumEventType::kSuccess) {
        burst_sizes.push_back(static_cast<int>(record.sofs.size()));
      }
    }
  } tap;
  network.domain().add_observer(tap);
  workload::FrameTemplate t;
  t.destination = receiver.mac();
  t.source = sender.mac();
  workload::SaturatedSource source(network.scheduler(), t,
                                   [&sender](frames::EthernetFrame f) {
                                     sender.host_send(f);
                                   },
                                   [&sender] {
                                     return sender.tx_backlog_pbs();
                                   },
                                   128);
  network.start();
  source.start();
  network.run_for(des::SimTime::from_seconds(2.0));
  ASSERT_GT(tap.burst_sizes.size(), 100u);
  for (const int size : tap.burst_sizes) {
    EXPECT_EQ(size, 2);  // The paper's measured burst size.
  }
}

TEST(Device, MpduCntCountsDown) {
  Network network(5);
  HpavDevice& sender = network.add_device();
  HpavDevice& receiver = network.add_device();
  struct Tap : medium::MediumObserver {
    std::vector<frames::SofDelimiter> sofs;
    void on_medium_event(const medium::MediumEventRecord& record) override {
      sofs.insert(sofs.end(), record.sofs.begin(), record.sofs.end());
    }
  } tap;
  network.domain().add_observer(tap);
  network.start();
  for (int i = 0; i < 64; ++i) {
    sender.host_send(data_frame(sender, receiver, 1400));
  }
  network.run_for(des::SimTime::from_seconds(1.0));
  ASSERT_GE(tap.sofs.size(), 2u);
  // Within each burst the MPDUCnt field counts remaining MPDUs down to 0.
  for (std::size_t i = 0; i < tap.sofs.size(); ++i) {
    if (tap.sofs[i].mpdu_cnt > 0) {
      ASSERT_LT(i + 1, tap.sofs.size());
      EXPECT_EQ(tap.sofs[i + 1].mpdu_cnt, tap.sofs[i].mpdu_cnt - 1);
      EXPECT_EQ(tap.sofs[i + 1].src_tei, tap.sofs[i].src_tei);
    }
  }
}

// --- Fixed tone-map durations (non-adaptation PHY-rate mode) --------------------------------

TEST(Device, FixedToneMapSetsFrameDurations) {
  Network network(42);
  DeviceConfig config;
  config.tonemap = phy::ToneMap::high_rate();
  HpavDevice& sender = network.add_device(config);
  HpavDevice& receiver = network.add_device(config);
  struct Tap : medium::MediumObserver {
    std::vector<frames::SofDelimiter> sofs;
    void on_medium_event(const medium::MediumEventRecord& record) override {
      sofs.insert(sofs.end(), record.sofs.begin(), record.sofs.end());
    }
  } tap;
  network.domain().add_observer(tap);
  network.start();
  for (int i = 0; i < 32; ++i) {
    sender.host_send(data_frame(sender, receiver, 1400));
  }
  network.run_for(des::SimTime::from_seconds(1.0));
  ASSERT_FALSE(tap.sofs.empty());
  // Full MPDUs carry 16 PBs: the on-wire duration must be the tone map's
  // figure for 16 x 512 bytes (rounded up to the SoF field unit).
  const des::SimTime expected =
      phy::ToneMap::high_rate().frame_duration(16);
  bool saw_full_mpdu = false;
  for (const frames::SofDelimiter& sof : tap.sofs) {
    if (sof.pb_count == 16) {
      saw_full_mpdu = true;
      EXPECT_GE(sof.frame_duration(), expected);
      EXPECT_LT((sof.frame_duration() - expected).ns(),
                frames::kFrameLengthUnitNs);
    }
  }
  EXPECT_TRUE(saw_full_mpdu);
}

// --- Channel errors and selective retransmission ------------------------------------------

TEST(Device, PbErrorsAreRepairedBySelectiveRetransmission) {
  Network network(6);
  DeviceConfig lossy;
  lossy.pb_error_rate = 0.2;
  HpavDevice& sender = network.add_device(lossy);
  HpavDevice& receiver = network.add_device(lossy);
  std::vector<frames::EthernetFrame> received;
  receiver.set_host_receive([&](const frames::EthernetFrame& frame) {
    if (frame.ether_type == frames::kEtherTypeIpv4) {
      received.push_back(frame);
    }
  });
  network.start();
  for (int i = 0; i < 100; ++i) {
    sender.host_send(
        data_frame(sender, receiver, 900, static_cast<std::uint8_t>(i)));
  }
  network.run_for(des::SimTime::from_seconds(5.0));
  // Every frame eventually arrives, in order, despite 20% PB loss.
  ASSERT_EQ(received.size(), 100u);
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].payload[0], static_cast<std::uint8_t>(i));
  }
}

// --- Sniffer ---------------------------------------------------------------------------------

TEST(Device, SnifferReportsAllDelimitersIncludingCollisions) {
  Network network(7);
  HpavDevice& a = network.add_device();
  HpavDevice& b = network.add_device();
  HpavDevice& d = network.add_device();
  int indications = 0;
  d.set_host_receive([&](const frames::EthernetFrame& frame) {
    if (frame.ether_type != frames::kEtherTypeHomePlugAv) return;
    if (mme::SnifferIndication::from_mme(mme::Mme::from_ethernet(frame))) {
      ++indications;
    }
  });
  // Enable sniffing via the MME path.
  mme::SnifferRequest enable;
  enable.enable = true;
  d.host_send(enable
                  .to_mme(frames::MacAddress::parse("02:19:01:ff:ff:02"),
                          d.mac())
                  .to_ethernet());
  EXPECT_TRUE(d.sniffer_enabled());

  network.start();
  for (int i = 0; i < 32; ++i) {
    a.host_send(data_frame(a, d, 1400));
    b.host_send(data_frame(b, d, 1400));
  }
  network.run_for(des::SimTime::from_seconds(1.0));
  const medium::DomainStats& stats = network.domain().stats();
  EXPECT_EQ(indications,
            static_cast<int>(stats.success_mpdus + stats.collided_mpdus));
}

// --- Priorities ---------------------------------------------------------------------------

TEST(Device, MmeTrafficPreemptsDataTraffic) {
  Network network(8);
  HpavDevice& sender = network.add_device();
  HpavDevice& peer = network.add_device();
  struct Tap : medium::MediumObserver {
    std::vector<frames::Priority> priorities;
    void on_medium_event(const medium::MediumEventRecord& record) override {
      if (record.type == medium::MediumEventType::kSuccess) {
        priorities.push_back(record.priority);
      }
    }
  } tap;
  network.domain().add_observer(tap);
  network.start();
  // Queue plenty of CA1 data, then one management frame at CA2.
  for (int i = 0; i < 64; ++i) {
    sender.host_send(data_frame(sender, peer, 1400));
  }
  frames::EthernetFrame mme_frame;
  mme_frame.destination = peer.mac();
  mme_frame.source = sender.mac();
  mme_frame.ether_type = frames::kEtherTypeHomePlugAv;
  mme_frame.payload.assign(100, 0);
  sender.host_send(mme_frame);
  network.run_for(des::SimTime::from_seconds(1.0));
  ASSERT_GT(tap.priorities.size(), 2u);
  // The management frame (CA2) wins the first contention despite the
  // queued CA1 backlog.
  EXPECT_EQ(tap.priorities.front(), frames::Priority::kCa2);
}

// --- Config validation -----------------------------------------------------------------------

TEST(Device, RejectsInvalidConfig) {
  Network network(9);
  DeviceConfig bad;
  bad.burst_mpdus = 5;
  EXPECT_THROW(network.add_device(bad), plc::Error);
  bad = DeviceConfig{};
  bad.pb_error_rate = 1.5;
  EXPECT_THROW(network.add_device(bad), plc::Error);
}

TEST(Device, RejectsUnknownDestination) {
  Network network(10);
  HpavDevice& sender = network.add_device();
  frames::EthernetFrame frame;
  frame.destination = frames::MacAddress::parse("aa:bb:cc:dd:ee:ff");
  frame.source = sender.mac();
  frame.ether_type = frames::kEtherTypeIpv4;
  frame.payload.assign(100, 0);
  EXPECT_THROW(sender.host_send(frame), plc::Error);
}

// --- Network -----------------------------------------------------------------------------------

TEST(NetworkTest, AssignsDenseTeisAndMacs) {
  Network network(11);
  HpavDevice& first = network.add_device();
  HpavDevice& second = network.add_device();
  EXPECT_EQ(first.tei(), 1);
  EXPECT_EQ(second.tei(), 2);
  EXPECT_EQ(network.device_by_tei(1), &first);
  EXPECT_EQ(network.device_by_mac(second.mac()), &second);
  EXPECT_EQ(network.device_by_tei(3), nullptr);
  EXPECT_EQ(network.device_count(), 2);
}

TEST(NetworkTest, CannotAddDevicesAfterStart) {
  Network network(12);
  network.add_device();
  network.start();
  EXPECT_THROW(network.add_device(), plc::Error);
  EXPECT_THROW(network.start(), plc::Error);
}

}  // namespace
}  // namespace plc::emu
