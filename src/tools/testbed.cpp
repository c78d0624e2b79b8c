#include "tools/testbed.hpp"

#include <cstddef>
#include <memory>
#include <string>

#include "des/random.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "tools/ampstat.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workload/sources.hpp"

namespace plc::tools {

TestbedResult run_saturated_testbed(const TestbedConfig& config) {
  PROF_SCOPE("testbed.run");
  util::check_arg(config.stations >= 1, "stations", "must be >= 1");
  util::check_arg(config.duration > des::SimTime::zero(), "duration",
                  "must be positive");

  emu::Network network(config.seed, config.timing);
  std::vector<emu::HpavDevice*> stations;
  stations.reserve(static_cast<std::size_t>(config.stations));
  for (int i = 0; i < config.stations; ++i) {
    stations.push_back(&network.add_device(config.device));
  }
  emu::HpavDevice& destination = network.add_device(config.device);

  // Saturating sources, one per station, all towards D (§3).
  std::vector<std::unique_ptr<workload::SaturatedSource>> sources;
  for (emu::HpavDevice* station : stations) {
    workload::FrameTemplate frame_template;
    frame_template.destination = destination.mac();
    frame_template.source = station->mac();
    auto sink = [station](frames::EthernetFrame frame) {
      station->host_send(frame);
    };
    auto backlog = [station] { return station->tx_backlog_pbs(); };
    // Keep at least two full bursts' worth of physical blocks queued so
    // every burst has the full shape (saturation).
    const std::size_t backlog_pbs = static_cast<std::size_t>(
        4 * config.device.burst_mpdus * config.device.max_pbs_per_mpdu);
    sources.push_back(std::make_unique<workload::SaturatedSource>(
        network.scheduler(), frame_template, sink, backlog, backlog_pbs));
    sources.back()->start();
  }

  // Optional management chatter (MME-overhead methodology, §3.3).
  if (config.mme_interval > des::SimTime::zero()) {
    for (emu::HpavDevice* station : stations) {
      station->start_periodic_mme(config.mme_interval, destination.mac(),
                                  frames::Priority::kCa2,
                                  config.mme_payload_bytes);
    }
  }

  // One ampstat client per station, like one shell per testbed host.
  std::vector<std::unique_ptr<AmpStat>> ampstats;
  for (emu::HpavDevice* station : stations) {
    ampstats.push_back(std::make_unique<AmpStat>(*station));
  }
  std::unique_ptr<Faifa> faifa;
  if (config.sniff_at_destination) {
    faifa = std::make_unique<Faifa>(destination);
  }

  if (config.registry != nullptr) {
    network.bind_metrics(*config.registry);
  }
  if (config.trace != nullptr) {
    network.domain().set_trace_sink(config.trace);
  }
  if (config.progress != nullptr) {
    network.scheduler().add_observer(config.progress);
  }

  PLC_LOG_DEBUG("testbed", "starting saturated run")
      .num("stations", config.stations)
      .num("duration_s", config.duration.seconds())
      .num("warmup_s", config.warmup.seconds());
  network.start();
  network.run_for(config.warmup);

  // "We reset the statistics of the frames transmitted at all the
  // stations at the beginning of each test."
  for (std::size_t i = 0; i < ampstats.size(); ++i) {
    ampstats[i]->reset(destination.mac(), config.device.data_priority);
    if (config.mme_interval > des::SimTime::zero()) {
      ampstats[i]->reset(destination.mac(), frames::Priority::kCa2);
    }
  }
  network.domain().reset_stats();
  if (faifa) {
    faifa->enable_sniffer();
    faifa->clear_captures();
  }

  network.run_for(config.duration);

  if (config.progress != nullptr) {
    network.scheduler().remove_observer(config.progress);
    config.progress->finish(network.scheduler().now(),
                            network.scheduler().events_dispatched());
  }

  TestbedResult result;
  result.acknowledged.reserve(ampstats.size());
  result.collided.reserve(ampstats.size());
  for (std::size_t i = 0; i < ampstats.size(); ++i) {
    const mme::AmpStatConfirm confirm = ampstats[i]->query(
        destination.mac(), config.device.data_priority);
    result.acknowledged.push_back(confirm.acknowledged);
    result.collided.push_back(confirm.collided);
    result.total_acknowledged += confirm.acknowledged;
    result.total_collided += confirm.collided;
  }
  result.collision_probability =
      result.total_acknowledged == 0
          ? 0.0
          : static_cast<double>(result.total_collided) /
                static_cast<double>(result.total_acknowledged);
  result.domain = network.domain().stats();
  result.frames_delivered_to_destination =
      destination.host_frames_delivered();
  if (faifa) {
    faifa->disable_sniffer();
    result.mme_overhead = faifa->mme_overhead();
    result.data_burst_sources = faifa->data_burst_sources();
    result.captures = faifa->captures();
  }
  return result;
}

double TestbedSuiteResult::speedup() const {
  if (wall_seconds <= 0.0 || serial_equivalent_seconds <= 0.0) return 1.0;
  return serial_equivalent_seconds / wall_seconds;
}

TestbedSuiteResult run_testbed_suite(const std::vector<TestbedConfig>& configs,
                                     int jobs) {
  PROF_SCOPE("testbed.suite");
  obs::Stopwatch wall;

  struct Slot {
    TestbedResult result;
    obs::Snapshot metrics;
    double wall_seconds = 0.0;
  };
  std::vector<Slot> slots(configs.size());

  std::vector<std::string> worker_names;
  {
    const int count = util::ThreadPool::resolve_jobs(jobs);
    worker_names.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      worker_names.push_back("worker " + std::to_string(i));
    }
  }
  util::ThreadPool pool(
      static_cast<int>(worker_names.size()), [&worker_names](int worker) {
        obs::Profiler::instance().set_thread_name(
            worker_names[static_cast<std::size_t>(worker)].c_str());
      });

  for (std::size_t i = 0; i < configs.size(); ++i) {
    util::check_arg(configs[i].trace == nullptr, "configs",
                    "suite runs cannot share a trace sink");
    util::check_arg(configs[i].progress == nullptr, "configs",
                    "suite runs cannot share a progress meter");
    Slot* slot = &slots[i];
    pool.submit([&configs, i, slot] {
      obs::Stopwatch run_wall;
      // Private registry per run; the caller's registry (if any) receives
      // the snapshot at the barrier, in config order.
      obs::Registry local_registry;
      TestbedConfig config = configs[i];
      if (config.registry != nullptr) config.registry = &local_registry;
      slot->result = run_saturated_testbed(config);
      if (configs[i].registry != nullptr) {
        slot->metrics = local_registry.snapshot();
      }
      slot->wall_seconds = run_wall.elapsed_seconds();
    });
  }
  pool.wait();

  TestbedSuiteResult suite;
  suite.runs.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].registry != nullptr) {
      configs[i].registry->absorb(slots[i].metrics);
    }
    suite.runs.push_back(std::move(slots[i].result));
    suite.serial_equivalent_seconds += slots[i].wall_seconds;
  }
  suite.wall_seconds = wall.elapsed_seconds();
  return suite;
}

}  // namespace plc::tools
