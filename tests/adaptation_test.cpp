// Tests for the §4.1 substitute machinery: Gilbert-Elliott channels,
// tone-map update MMEs, and receiver-driven modulation adaptation.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "emu/network.hpp"
#include "mme/sniffer.hpp"
#include "mme/tonemap_update.hpp"
#include "phy/channel.hpp"
#include "util/error.hpp"
#include "workload/sources.hpp"

namespace plc {
namespace {

// --- Gilbert-Elliott channel ----------------------------------------------------

TEST(Channel, StartsGoodAndAlternates) {
  des::Scheduler scheduler;
  phy::GilbertElliottParams params;
  params.mean_good = des::SimTime::from_us(1'000.0);
  params.mean_bad = des::SimTime::from_us(1'000.0);
  phy::GilbertElliottChannel channel(params, des::RandomStream(1));
  EXPECT_FALSE(channel.bad());
  EXPECT_DOUBLE_EQ(channel.pb_error_rate(), params.good_pb_error);
  channel.start(scheduler);
  // Count transitions over a long horizon.
  bool saw_bad = false;
  bool saw_good_again = false;
  for (int i = 0; i < 100'000 && !(saw_bad && saw_good_again); ++i) {
    if (!scheduler.step()) break;
    if (channel.bad()) saw_bad = true;
    if (saw_bad && !channel.bad()) saw_good_again = true;
  }
  EXPECT_TRUE(saw_bad);
  EXPECT_TRUE(saw_good_again);
}

TEST(Channel, FractionBadMatchesSojournRatio) {
  des::Scheduler scheduler;
  phy::GilbertElliottParams params;
  params.mean_good = des::SimTime::from_us(3'000.0);
  params.mean_bad = des::SimTime::from_us(1'000.0);
  phy::GilbertElliottChannel channel(params, des::RandomStream(7));
  channel.start(scheduler);
  scheduler.run_until(des::SimTime::from_seconds(50.0));
  // Expected fraction bad = 1000 / (3000 + 1000) = 0.25.
  EXPECT_NEAR(channel.fraction_bad(scheduler.now()), 0.25, 0.03);
}

TEST(Channel, ErrorRateFollowsState) {
  des::Scheduler scheduler;
  phy::GilbertElliottParams params;
  params.good_pb_error = 0.0;
  params.bad_pb_error = 0.5;
  phy::GilbertElliottChannel channel(params, des::RandomStream(3));
  channel.start(scheduler);
  for (int i = 0; i < 1000; ++i) {
    if (!scheduler.step()) break;
    EXPECT_DOUBLE_EQ(channel.pb_error_rate(),
                     channel.bad() ? 0.5 : 0.0);
  }
}

TEST(Channel, ValidatesParams) {
  phy::GilbertElliottParams params;
  params.mean_good = des::SimTime::zero();
  EXPECT_THROW(
      phy::GilbertElliottChannel(params, des::RandomStream(1)), Error);
  params = phy::GilbertElliottParams{};
  params.bad_pb_error = 1.5;
  EXPECT_THROW(
      phy::GilbertElliottChannel(params, des::RandomStream(1)), Error);
}

// --- ToneMapUpdate codec ------------------------------------------------------------

TEST(ToneMapMme, RoundTrip) {
  mme::ToneMapUpdate update;
  update.link_id = 1;
  update.profile = 2;
  update.error_permille = mme::ToneMapUpdate::to_permille(0.123);
  const frames::MacAddress rx = frames::MacAddress::for_station(2);
  const frames::MacAddress tx = frames::MacAddress::for_station(1);
  const mme::Mme mme = update.to_mme(rx, tx);
  EXPECT_EQ(mme.header.mmtype, 0xA03A);  // 0xA038 base | indication.
  const auto parsed = mme::ToneMapUpdate::from_mme(mme);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->link_id, 1);
  EXPECT_EQ(parsed->profile, 2);
  EXPECT_NEAR(parsed->error_rate(), 0.123, 0.001);
}

TEST(ToneMapMme, RejectsOtherTypesAndBadRates) {
  mme::SnifferRequest other;
  EXPECT_FALSE(mme::ToneMapUpdate::from_mme(
                   other.to_mme(frames::MacAddress::for_station(1),
                                frames::MacAddress::for_station(2)))
                   .has_value());
  EXPECT_THROW(mme::ToneMapUpdate::to_permille(1.5), Error);
}

// --- Profile ladder --------------------------------------------------------------------

TEST(ProfileLadder, OrderedByRate) {
  double previous = 0.0;
  for (int i = 0; i < emu::kToneMapProfileCount; ++i) {
    const double rate = emu::tonemap_profile(i).bit_rate_bps();
    EXPECT_GT(rate, previous);
    previous = rate;
  }
  EXPECT_THROW(emu::tonemap_profile(-1), Error);
  EXPECT_THROW(emu::tonemap_profile(emu::kToneMapProfileCount), Error);
}

// --- End-to-end adaptation ---------------------------------------------------------------

struct AdaptationFixture {
  emu::Network network{0xADA97};
  emu::HpavDevice* sender = nullptr;
  emu::HpavDevice* receiver = nullptr;
  std::unique_ptr<workload::SaturatedSource> source;

  explicit AdaptationFixture(double good_error, double bad_error,
                             bool install_channel = true) {
    emu::DeviceConfig config;
    config.adaptation.enabled = true;
    sender = &network.add_device(config);
    receiver = &network.add_device(config);
    if (install_channel) {
      phy::GilbertElliottParams params;
      params.mean_good = des::SimTime::from_seconds(0.5);
      params.mean_bad = des::SimTime::from_seconds(0.25);
      params.good_pb_error = good_error;
      params.bad_pb_error = bad_error;
      network.add_link_channel(sender->tei(), receiver->tei(), params);
    }
    workload::FrameTemplate frame_template;
    frame_template.destination = receiver->mac();
    frame_template.source = sender->mac();
    source = std::make_unique<workload::SaturatedSource>(
        network.scheduler(), frame_template,
        [this](frames::EthernetFrame frame) {
          sender->host_send(std::move(frame));
        },
        [this] { return sender->tx_backlog_pbs(); },
        256);
  }

  void run(double seconds) {
    network.start();
    source->start();
    network.run_for(des::SimTime::from_seconds(seconds));
  }
};

TEST(Adaptation, CleanChannelStaysAtHighRate) {
  AdaptationFixture fixture(0.0, 0.0, /*install_channel=*/false);
  fixture.run(10.0);
  EXPECT_EQ(fixture.sender->link_tx_profile(fixture.receiver->tei(),
                                            frames::Priority::kCa1),
            emu::kDefaultToneMapProfile);
  EXPECT_EQ(fixture.receiver->tonemap_updates_sent(), 0);
  EXPECT_GT(fixture.receiver->host_frames_delivered(), 1000);
}

TEST(Adaptation, NoisyChannelTriggersUpdatesAndRobustProfiles) {
  AdaptationFixture fixture(0.001, 0.45);
  fixture.run(20.0);
  // The receiver told the sender to back off the modulation at least
  // once, and the MMEs arrived (firmware-consumed, never at the host).
  EXPECT_GT(fixture.receiver->tonemap_updates_sent(), 0);
  EXPECT_GT(fixture.sender->tonemap_updates_received(), 0);
  EXPECT_LE(fixture.sender->tonemap_updates_received(),
            fixture.receiver->tonemap_updates_sent());
  // Data still flows despite the bad channel.
  EXPECT_GT(fixture.receiver->host_frames_delivered(), 500);
}

TEST(Adaptation, RecoversToFastProfileAfterBadSpell) {
  // A channel that is bad only rarely: after bad spells the profile must
  // climb back up (step-up path exercised).
  AdaptationFixture fixture(0.0, 0.45);
  fixture.run(30.0);
  ASSERT_GT(fixture.receiver->tonemap_updates_sent(), 1);
  // At the end of a long mostly-good period the link is most likely back
  // at a fast profile; require at least above the most-robust.
  EXPECT_GE(fixture.sender->link_tx_profile(fixture.receiver->tei(),
                                            frames::Priority::kCa1),
            1);
}

TEST(Adaptation, FrameDurationsFollowTheProfile) {
  AdaptationFixture fixture(0.001, 0.45);
  struct Tap : medium::MediumObserver {
    std::set<std::uint16_t> durations;
    void on_medium_event(const medium::MediumEventRecord& record) override {
      for (const auto& sof : record.sofs) {
        if (!sof.mme_flag) durations.insert(sof.frame_length_units);
      }
    }
  } tap;
  fixture.network.domain().add_observer(tap);
  fixture.run(20.0);
  // Profile switches produce at least two distinct data-MPDU durations.
  EXPECT_GE(tap.durations.size(), 2u);
}

TEST(NetworkChannels, ValidatesAndReportsState) {
  emu::Network network(5);
  emu::HpavDevice& a = network.add_device();
  emu::HpavDevice& b = network.add_device();
  EXPECT_THROW(
      network.add_link_channel(a.tei(), 99, phy::GilbertElliottParams{}),
      Error);
  network.add_link_channel(a.tei(), b.tei(),
                           phy::GilbertElliottParams{});
  EXPECT_NE(network.link_channel(a.tei(), b.tei()), nullptr);
  EXPECT_EQ(network.link_channel(b.tei(), a.tei()), nullptr);
  EXPECT_DOUBLE_EQ(network.link_pb_error_rate(b.tei(), a.tei(), 0.42),
                   0.42);
  network.start();
  EXPECT_THROW(network.add_link_channel(a.tei(), b.tei(),
                                        phy::GilbertElliottParams{}),
               Error);
}

}  // namespace
}  // namespace plc
