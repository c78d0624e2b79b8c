#include "scenario/run.hpp"

#include <cstddef>
#include <cstdio>
#include <deque>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "macdef/registry.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "sim/parallel_runner.hpp"
#include "store/result_store.hpp"
#include "tools/testbed.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace plc::scenario {

namespace {

std::string scalar_prefix(const std::string& label, int stations) {
  return label + ".n" + std::to_string(stations) + ".";
}

/// Model-leg results for one (variant, N) point, MAC-agnostic: the
/// def's registered solver, or nullopt for MACs without one (TDMA) —
/// those print "-" cells and record no model scalars.
std::optional<mac::MacModelResult> solve_model(const sim::MacSpec& mac,
                                               int stations,
                                               const phy::TimingConfig& timing,
                                               des::SimTime frame_length) {
  if (mac.def().solve == nullptr) return std::nullopt;
  return mac.def().solve(mac.config(), stations, timing, frame_length);
}

/// Canonical point JSON of one testbed test — the testbed leg's cache
/// key coordinate, mirroring sim::canonical_point_json. The device
/// configuration is deliberately absent: scenario testbed legs always
/// run the default emu::DeviceConfig, so changing those defaults is a
/// simulation-semantics change covered by store::kResultEpoch.
std::string testbed_point_json(const tools::TestbedConfig& config) {
  char seed_hex[24];
  std::snprintf(seed_hex, sizeof(seed_hex), "0x%llx",
                static_cast<unsigned long long>(config.seed));
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.field("stations", config.stations);
  json.field("warmup_ns", config.warmup.ns());
  json.field("duration_ns", config.duration.ns());
  json.field("seed", seed_hex);
  json.key("timing").begin_object();
  json.field("slot_ns", config.timing.slot.ns());
  json.field("success_overhead_ns", config.timing.success_overhead.ns());
  json.field("collision_overhead_ns", config.timing.collision_overhead.ns());
  json.field("burst_gap_ns", config.timing.burst_gap.ns());
  json.end_object();
  json.field("sniff", config.sniff_at_destination);
  json.field("mme_interval_ns", config.mme_interval.ns());
  json.field("mme_payload_bytes", config.mme_payload_bytes);
  json.end_object();
  return out.str();
}

/// Serializes what a warm run needs from one testbed test: the counter
/// vectors, the paper's estimator, and the test's metric snapshot.
/// Sniffer artifacts (captures, burst sources) are not cached — the
/// scenario testbed leg never enables the sniffer.
std::string testbed_payload_json(const tools::TestbedResult& run,
                                 const obs::Snapshot& metrics) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("acknowledged").begin_array();
  for (const std::uint64_t a : run.acknowledged) {
    json.value(static_cast<std::int64_t>(a));
  }
  json.end_array();
  json.key("collided").begin_array();
  for (const std::uint64_t c : run.collided) {
    json.value(static_cast<std::int64_t>(c));
  }
  json.end_array();
  json.field("total_acknowledged",
             static_cast<std::int64_t>(run.total_acknowledged));
  json.field("total_collided", static_cast<std::int64_t>(run.total_collided));
  json.field("collision_probability", run.collision_probability);
  json.field("frames_delivered", run.frames_delivered_to_destination);
  json.key("metrics");
  store::write_metrics_payload(json, metrics);
  json.end_object();
  return out.str();
}

/// Inverse of testbed_payload_json; false on a shape mismatch (the
/// caller then re-runs the test).
bool testbed_result_from_payload(const obs::JsonValue& payload,
                                 tools::TestbedResult* run,
                                 obs::Snapshot* metrics) {
  try {
    const obs::JsonValue* acknowledged = payload.find("acknowledged");
    const obs::JsonValue* collided = payload.find("collided");
    const obs::JsonValue* total_acknowledged =
        payload.find("total_acknowledged");
    const obs::JsonValue* total_collided = payload.find("total_collided");
    const obs::JsonValue* collision = payload.find("collision_probability");
    const obs::JsonValue* delivered = payload.find("frames_delivered");
    const obs::JsonValue* metric_samples = payload.find("metrics");
    if (acknowledged == nullptr || !acknowledged->is_array() ||
        collided == nullptr || !collided->is_array() ||
        total_acknowledged == nullptr || !total_acknowledged->is_number() ||
        total_collided == nullptr || !total_collided->is_number() ||
        collision == nullptr || !collision->is_number() ||
        delivered == nullptr || !delivered->is_number() ||
        metric_samples == nullptr) {
      return false;
    }
    tools::TestbedResult decoded;
    for (const obs::JsonValue& item : acknowledged->items) {
      if (!item.is_number()) return false;
      decoded.acknowledged.push_back(static_cast<std::uint64_t>(item.number));
    }
    for (const obs::JsonValue& item : collided->items) {
      if (!item.is_number()) return false;
      decoded.collided.push_back(static_cast<std::uint64_t>(item.number));
    }
    decoded.total_acknowledged =
        static_cast<std::uint64_t>(total_acknowledged->number);
    decoded.total_collided = static_cast<std::uint64_t>(total_collided->number);
    decoded.collision_probability = collision->number;
    decoded.frames_delivered_to_destination =
        static_cast<std::int64_t>(delivered->number);
    *metrics = store::read_metrics_payload(*metric_samples);
    *run = std::move(decoded);
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// Throws when the caller's cancel flag is up — the between-leg
/// counterpart of the per-task check in ParallelRunner.
void check_cancelled(const RunOptions& options) {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    throw Error("sweep cancelled");
  }
}

}  // namespace

RunOutcome run_scenario(const Spec& spec, const RunOptions& options) {
  spec.validate();
  check_cancelled(options);

  // Store counters are atomics, safe to read from any thread — ideal
  // live probes: the hub's /metrics scrape sees hit/miss progress while
  // the sweep is still running.
  if (options.telemetry != nullptr && options.store != nullptr) {
    store::ResultStore* store = options.store;
    options.telemetry->add_probe("store.hits", [store] {
      return static_cast<double>(store->counters().hits);
    });
    options.telemetry->add_probe("store.misses", [store] {
      return static_cast<double>(store->counters().misses);
    });
    options.telemetry->add_probe("store.publishes", [store] {
      return static_cast<double>(store->counters().publishes);
    });
    options.telemetry->add_probe("store.bytes_written", [store] {
      return static_cast<double>(store->counters().bytes_written);
    });
  }

  RunOutcome outcome;
  obs::RunReport& report = outcome.report;
  report.name = spec.name;
  report.scenario = spec.to_json();
  if (options.store != nullptr) {
    // Run-invariant provenance only (schema/epoch, never hit counts):
    // the warm run's report must be byte-identical to the cold run's.
    std::ostringstream cache_json;
    obs::JsonWriter json(cache_json);
    json.begin_object();
    json.field("store_schema", store::kEntrySchema);
    json.field("epoch", store::kResultEpoch);
    json.end_object();
    report.cache = cache_json.str();
  }

  obs::Registry local_registry;
  obs::Registry* registry =
      options.registry != nullptr ? options.registry : &local_registry;

  const std::size_t variants = spec.macs.size();
  const std::size_t points = spec.stations.size();

  // Sim leg: one parallel sweep over every (variant x N) point —
  // summaries indexed variant-major, bit-identical for any jobs count.
  std::vector<sim::RunSummary> summaries;
  if (spec.legs.sim) {
    std::vector<sim::RunSpec> run_specs;
    std::vector<std::string> store_legs;
    run_specs.reserve(variants * points);
    store_legs.reserve(variants * points);
    for (std::size_t variant = 0; variant < variants; ++variant) {
      for (const int n : spec.stations) {
        run_specs.push_back(spec.to_run_spec(n, variant));
        store_legs.push_back("sim/" + spec.macs[variant].label);
      }
    }
    // A caller-owned runner (the serve scheduler's warm pool) wins over
    // a per-run pool; both merge task results in task-index order, so
    // the choice cannot change a single output byte.
    std::optional<sim::ParallelRunner> local_runner;
    if (options.runner == nullptr) local_runner.emplace(options.jobs);
    sim::ParallelRunner& runner =
        options.runner != nullptr ? *options.runner : *local_runner;
    sim::RunObservability attach;
    attach.registry = registry;
    attach.store = options.store;
    attach.store_legs = &store_legs;
    attach.telemetry = options.telemetry;
    attach.cancel = options.cancel;
    obs::ObservatoryOptions observatory_options;
    if (spec.observatory) {
      observatory_options.fairness_window = spec.observatory_window;
      observatory_options.trajectory_capacity =
          static_cast<std::size_t>(spec.observatory_trajectory);
      attach.observatory = &observatory_options;
    }
    summaries = runner.run_points(run_specs, attach);
    outcome.wall_seconds += runner.wall_seconds();
    outcome.serial_equivalent_seconds += runner.serial_equivalent_seconds();
    for (const sim::RunSummary& summary : summaries) {
      report.events += summary.medium_events;
      report.simulated_seconds += summary.simulated.seconds();
    }
  }

  // Testbed leg: the emulated devices run their HomePlug AV firmware
  // configuration, so the leg executes once (labelled by variant 0),
  // testbed_tests independent tests per station count.
  tools::TestbedSuiteResult suite;
  if (spec.legs.testbed) {
    check_cancelled(options);
    std::vector<tools::TestbedConfig> configs;
    configs.reserve(points * static_cast<std::size_t>(spec.testbed_tests));
    for (const int n : spec.stations) {
      for (int test = 0; test < spec.testbed_tests; ++test) {
        tools::TestbedConfig config = spec.to_testbed_config(n, test, 0);
        config.registry = registry;
        configs.push_back(config);
      }
    }
    if (options.store == nullptr) {
      suite = tools::run_testbed_suite(configs, options.jobs);
      outcome.wall_seconds += suite.wall_seconds;
      outcome.serial_equivalent_seconds += suite.serial_equivalent_seconds;
    } else {
      // Cached path. Each test gets a private registry so its metric
      // snapshot can travel in the cache entry; absorbing those
      // snapshots into the shared registry in config order afterwards
      // performs exactly the arithmetic run_testbed_suite would have —
      // so cold-with-store, warm-with-store and store-less runs all
      // produce byte-identical reports.
      const std::string leg = "testbed/" + spec.macs[0].label;
      const std::size_t count = configs.size();
      suite.runs.resize(count);
      std::deque<obs::Registry> local_registries(count);
      std::vector<obs::Snapshot> snapshots(count);
      std::vector<store::Key> keys;
      std::vector<bool> hit(count, false);
      keys.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const int test = static_cast<int>(i) % spec.testbed_tests;
        keys.push_back(
            store::make_key(leg, testbed_point_json(configs[i]), test));
        if (auto payload = options.store->lookup(keys[i])) {
          hit[i] = testbed_result_from_payload(*payload, &suite.runs[i],
                                               &snapshots[i]);
        }
      }
      std::vector<tools::TestbedConfig> miss_configs;
      std::vector<std::size_t> miss_index;
      for (std::size_t i = 0; i < count; ++i) {
        if (hit[i]) continue;
        tools::TestbedConfig config = configs[i];
        config.registry = &local_registries[i];
        miss_configs.push_back(config);
        miss_index.push_back(i);
      }
      if (!miss_configs.empty()) {
        tools::TestbedSuiteResult partial =
            tools::run_testbed_suite(miss_configs, options.jobs);
        outcome.wall_seconds += partial.wall_seconds;
        outcome.serial_equivalent_seconds +=
            partial.serial_equivalent_seconds;
        for (std::size_t j = 0; j < miss_index.size(); ++j) {
          const std::size_t i = miss_index[j];
          suite.runs[i] = std::move(partial.runs[j]);
          snapshots[i] = local_registries[i].snapshot();
        }
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (!hit[i]) {
          options.store->publish(
              keys[i], testbed_payload_json(suite.runs[i], snapshots[i]));
        }
        registry->absorb(snapshots[i]);
      }
    }
    for (const tools::TestbedConfig& config : configs) {
      report.simulated_seconds += (config.warmup + config.duration).seconds();
    }
  }

  if (options.out != nullptr && !spec.title.empty()) {
    *options.out << "=== " << spec.title << " ===\n";
  }

  // Observatory reductions per (variant, N) point, variant-major — the
  // report's "stations" section. Pointers into `summaries` (stable from
  // here on).
  std::vector<std::pair<std::string, const obs::ObservatorySummary*>>
      station_points;

  for (std::size_t variant = 0; variant < variants; ++variant) {
    const std::string& label = spec.macs[variant].label;
    const sim::MacSpec& mac = spec.macs[variant].mac;
    const bool is_1901_family = mac.backoff_config() != nullptr;
    const bool with_exact = spec.legs.exact_pair && is_1901_family;
    const bool with_testbed = spec.legs.testbed && variant == 0;
    const bool with_reference = variant == 0 && !spec.reference.empty();

    std::vector<std::string> header = {"N"};
    if (spec.legs.sim) {
      header.push_back("sim coll");
      header.push_back("sim thr");
      if (spec.observatory) header.push_back("jain(W)");
    }
    if (spec.legs.model) {
      header.push_back("model coll");
      header.push_back("model thr");
    }
    if (with_exact) header.push_back("exact coll (N=2)");
    if (with_testbed) {
      header.push_back("testbed coll (mean)");
      header.push_back("testbed coll (std)");
      header.push_back("collided");
      header.push_back("acknowledged");
    }
    if (with_reference) {
      for (const auto& [key, series] : spec.reference) header.push_back(key);
    }
    util::TablePrinter table(std::move(header));

    for (std::size_t point = 0; point < points; ++point) {
      const int n = spec.stations[point];
      const std::string prefix = scalar_prefix(label, n);
      std::vector<std::string> row = {std::to_string(n)};
      // One solve per point, shared by the drift scalars and the model
      // leg; skipped when neither reads it.
      const bool observed = spec.legs.sim &&
          summaries[variant * points + point].stations.has_value();
      const std::optional<mac::MacModelResult> model =
          spec.legs.model || observed
              ? solve_model(mac, n, spec.timing, spec.frame_length)
              : std::nullopt;

      if (spec.legs.sim) {
        const sim::RunSummary& summary = summaries[variant * points + point];
        const double collision = summary.collision_probability.mean();
        const double throughput = summary.normalized_throughput.mean();
        report.scalars[prefix + "sim_collision_probability"] = collision;
        report.scalars[prefix + "sim_throughput"] = throughput;
        row.push_back(util::format_fixed(collision, 4));
        row.push_back(util::format_fixed(throughput, 4));
        if (summary.stations) {
          const obs::ObservatorySummary& stations = *summary.stations;
          station_points.emplace_back(label + ".n" + std::to_string(n),
                                      &stations);
          const double jain = stations.window_jain.mean();
          report.scalars[prefix + "obs.window_jain_mean"] = jain;
          report.scalars[prefix + "obs.window_jain_stddev"] =
              stations.window_jain.stddev();
          if (spec.observatory) row.push_back(util::format_fixed(jain, 4));
          // Per-stage drift: the empirical attempt frequency of each
          // backoff stage next to the decoupled model's x_i(gamma) — the
          // divergence at small N is the paper's coupling story. MACs
          // whose solver has no per-stage analysis (DCF) — or no solver
          // at all — record empirical frequencies only.
          const std::size_t modeled =
              model ? model->stage_attempt_probability.size() : 0;
          for (std::size_t s = 0; s < stations.per_stage.size(); ++s) {
            const std::string stage =
                prefix + "obs.stage" + std::to_string(s) + ".";
            report.scalars[stage + "attempt_freq"] =
                stations.per_stage[s].attempt_freq();
            if (s < modeled) {
              report.scalars[stage + "attempt_model"] =
                  model->stage_attempt_probability[s];
            }
          }
        } else if (spec.observatory) {
          row.push_back("-");
        }
      }

      if (spec.legs.model) {
        if (model) {
          report.scalars[prefix + "model_collision_probability"] =
              model->collision_probability;
          report.scalars[prefix + "model_throughput"] = model->throughput;
          row.push_back(util::format_fixed(model->collision_probability, 4));
          row.push_back(util::format_fixed(model->throughput, 4));
        } else {
          row.push_back("-");
          row.push_back("-");
        }
      }

      if (with_exact) {
        if (n == 2) {
          const analysis::ExactPairResult exact =
              analysis::solve_exact_pair(*mac.backoff_config(), 3000, 1e-10);
          report.scalars[prefix + "exact_collision_probability"] =
              exact.collision_probability;
          row.push_back(util::format_fixed(exact.collision_probability, 4));
        } else {
          row.push_back(n == 1 ? "0.0000" : "-");
        }
      }

      if (with_testbed) {
        util::RunningStats collision;
        util::RunningStats collided;
        util::RunningStats acknowledged;
        for (int test = 0; test < spec.testbed_tests; ++test) {
          const std::size_t run =
              point * static_cast<std::size_t>(spec.testbed_tests) +
              static_cast<std::size_t>(test);
          collision.add(suite.runs[run].collision_probability);
          collided.add(static_cast<double>(suite.runs[run].total_collided));
          acknowledged.add(
              static_cast<double>(suite.runs[run].total_acknowledged));
        }
        report.scalars[prefix + "testbed_collision_mean"] = collision.mean();
        report.scalars[prefix + "testbed_collision_stddev"] =
            collision.stddev();
        report.scalars[prefix + "testbed_collided"] = collided.mean();
        report.scalars[prefix + "testbed_acknowledged"] = acknowledged.mean();
        row.push_back(util::format_fixed(collision.mean(), 4));
        row.push_back(util::format_fixed(collision.stddev(), 4));
        row.push_back(util::with_thousands(
            static_cast<std::int64_t>(collided.mean())));
        row.push_back(util::with_thousands(
            static_cast<std::int64_t>(acknowledged.mean())));
      }

      if (with_reference) {
        for (const auto& [key, series] : spec.reference) {
          report.scalars["reference." + key + ".n" + std::to_string(n)] =
              series[point];
          row.push_back(util::format_double(series[point]));
        }
      }

      table.add_row(std::move(row));
    }

    if (options.out != nullptr) {
      *options.out << "\n--- " << label << " ---\n";
      table.print(*options.out);
    }
  }

  if (!station_points.empty()) {
    report.stations = obs::stations_section_json(station_points);
  }

  if (options.registry == nullptr) {
    report.metrics = local_registry.snapshot();
    if (report.events == 0) {
      if (const obs::MetricSample* dispatched =
              report.metrics.find("des.events_dispatched")) {
        report.events = static_cast<std::int64_t>(dispatched->value);
      }
    }
  }

  return outcome;
}

}  // namespace plc::scenario
