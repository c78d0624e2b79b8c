// plcsim — command-line driver for the framework.
//
//   plcsim sim     --n 4 [--time-s 50] [--reps 1] [--cw 8,16,32,64]
//                  [--dc 0,1,3,15] [--ts-us 2542.64] [--tc-us 2920.64]
//                  [--frame-us 2050] [--seed 6401] [--jobs N] [--kernel K]
//   plcsim model   --n 4 [--cw ...] [--dc ...]
//   plcsim testbed --n 3 [--time-s 30] [--mme-ms 0] [--capture out.plcc]
//                  [--tests R] [--jobs N]
//   plcsim sweep   --n-max 10 [--time-s 20] [--csv] [--jobs N] [--kernel K]
//   plcsim scenario <name|file.json> [--jobs N] [--report out.json]
//                  [--dump-spec [out.json]] [--validate] [--cache DIR]
//                  [--kernel K]
//   plcsim scenario --list
//   plcsim cache   <stats|verify|gc> --dir DIR [--max-mb N | --max-bytes N]
//                  [--json]
//   plcsim mac     <list|describe <name>> [--json]
//   plcsim serve   [--port P] [--bind ADDR] [--jobs N] [--max-queue Q]
//                  [--cache DIR] [--queue-file FILE] [--json]
//   plcsim http    --port P --path /v1/jobs [--method M] [--body FILE|-]
//                  [--host ADDR] [--out FILE] [--include] [--expect CODE]
//
// --jobs N shards repetitions (sim), tests (testbed --tests), or sweep
// points (sweep) across N worker threads; 0 means one per hardware
// thread. Results are bit-identical for every N, including the default
// serial path — seeds derive from task indices, never thread schedule.
//
// --kernel K picks the contention kernel for simulation legs: "slot"
// (the slot-stepped oracle), "event" (the event-driven kernel, which
// jumps idle backoff gaps in one step), or "auto" (default: event-driven
// unless the run attaches per-slot hooks — --trace, --progress or the
// observatory — which replay slot-stepped). Both kernels draw the same
// per-station streams and produce byte-identical reports; on `scenario`
// the flag overrides the spec's optional "kernel" field.
//
// `scenario` runs a declarative experiment spec (scenario::Spec): a
// built-in from scenario::Registry (--list enumerates them) or a
// "plc-scenario/1" JSON file. --dump-spec emits the canonical JSON
// (stdout, or to a file when given a value), --validate parses and
// checks without running, and --report writes the deterministic run
// report (byte-identical for any --jobs value) with the serialized spec
// embedded under its "scenario" key. --cache DIR opens a plc::store
// result cache there: completed (point, repetition) results are
// published into it and later runs of the same spec take validated hits
// instead of re-simulating — a fully warm run reproduces the cold run's
// report byte-for-byte and prints its hit rate.
//
// `serve` runs the store-backed sweep service (serve::Server): a daemon
// that accepts plc-scenario/1 specs over an HTTP JSON API (POST
// /v1/jobs; see src/serve/server.hpp for the full route table) plus the
// whole telemetry plane (/metrics, /progress, ...) on one port. Jobs
// run one at a time over a shared warm worker pool; identical in-flight
// specs coalesce; --cache DIR makes re-submitted specs complete from
// store hits with byte-identical reports. --max-queue bounds admission
// (429 + Retry-After beyond it). SIGTERM/SIGINT drains gracefully:
// running tasks finish, the owed queue is persisted to --queue-file
// (reloaded on the next start), new submits get 503. The startup banner
// goes to stdout — one "plc-serve/1" JSON object with --json.
//
// `http` is a tiny loopback HTTP client for driving the daemon from
// tests without curl: one request, Connection: close. --body FILE (or
// "-" for stdin) implies POST; --out writes the response body bytes to
// a file (byte-exact, for cmp), --include prints the response head,
// --expect N makes the exit code 0 iff the status is N (default: 0 on
// 2xx).
//
// `cache` maintains such a store: `stats` prints entry counts and bytes,
// `verify` re-validates every entry (quarantining corrupt ones; exit 1
// when any fail), `gc` evicts oldest-first down to --max-mb/--max-bytes.
// --json switches the output to a machine-readable object.
//
// `mac` enumerates the registered MAC defs (mac::builtin_registry()):
// `list` prints one row per def — aliases, presets, whether the def has
// an analytical model — and `describe <name>` the full metadata,
// exposed FSM counters, and the default configuration in spec form
// (the fields a plc-scenario/1 mac object takes). --json emits
// "plc-mac-list/1" / "plc-mac/1" objects instead.
//   plcsim boost   --n 10
//   plcsim delay   --n 5 --load 0.5
//   plcsim capture --file out.plcc [--head 10]
//
// Observability (sim and testbed): --trace=<file> writes a Chrome
// trace_event JSON (open in about://tracing or ui.perfetto.dev;
// --trace-counters adds per-station BC/DC/BPC counter series),
// --metrics=<file> writes the metric-registry snapshot, and
// --report=<file> writes a "plc-run-report/1" JSON (see EXPERIMENTS.md).
// --progress prints a heartbeat line to stderr every second (simulated s,
// events/s, % complete, tasks done, ETA). --profile=<file> enables the
// phase profiler and writes its text tree; --profile-trace=<file>
// additionally captures every phase enter/exit as a Chrome trace_event
// flame chart. Options accept both "--key value" and "--key=value".
//
// MAC-state observatory (sim): --observatory attaches per-station
// backoff analytics to the run — the report gains a "stations" section
// ("plc-stations/1": per-stage attempt tallies, sliding-window Jain
// fairness, inter-transmission stats, collision bursts) and a
// window_jain_mean scalar. --obs-window W sets the fairness window
// (successes, default 50). --stations-out FILE writes the recorded
// backoff trajectory (BC/DC/BPC/stage per station, stride-downsampled)
// as JSONL; it implies --observatory. Scenario runs opt in through the
// spec's "observatory" object instead (e.g. e20-mac-observatory).
//
// Live telemetry (sim and scenario): --listen PORT serves /metrics
// (OpenMetrics), /progress, /profile, /timeseries and /stations over
// HTTP on 127.0.0.1 for the duration of the run (PORT 0 picks a free
// port; the chosen URL is logged). Attaching the plane never changes
// run output: reports stay byte-identical with and without --listen.
// --timeseries=<file> writes the sampled series as JSONL afterwards;
// sim runs also embed them under the report's "timeseries" key.
// --flight-recorder[=DIR] arms the crash recorder: on SIGSEGV/SIGABRT/
// SIGFPE/SIGBUS or std::terminate it dumps the last trace events, a
// metrics snapshot and the open profiler stack to DIR/plc-crash-<pid>
// .json (DIR defaults to "."). `plcsim crash-test --dir DIR --signal
// segv|abort|terminate` exists for exercising that path (used by
// ctest). scenario --json replaces the human tables and summary with
// one "plc-scenario-summary/1" JSON object on stdout.
//
// Every command prints human-readable tables; `sweep --csv` emits CSV for
// plotting. File-output narration goes through obs::Log (stderr; silence
// with PLC_LOG=off). Exit code 2 on usage errors.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/delay.hpp"
#include "macdef/registry.hpp"
#include "util/error.hpp"
#include "analysis/model_1901.hpp"
#include "analysis/optimizer.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "des/random.hpp"
#include "phy/timing.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "serve/server.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/unsaturated.hpp"
#include "store/result_store.hpp"
#include "util/fs.hpp"
#include "util/http.hpp"
#include "util/socket.hpp"
#include "tools/capture.hpp"
#include "tools/testbed.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace plc;

/// Minimal --key value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw plc::Error("unexpected argument: " + key);
      }
      key = key.substr(2);
      // "--key=value" form.
      if (const auto eq = key.find('='); eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
        continue;
      }
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // Boolean flag.
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  int get_int(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoi(it->second);
  }

  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::vector<int> get_int_list(const std::string& key,
                                std::vector<int> fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::vector<int> out;
    std::stringstream stream(it->second);
    std::string piece;
    while (std::getline(stream, piece, ',')) {
      out.push_back(std::stoi(piece));
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

mac::BackoffConfig config_from(const Args& args) {
  mac::BackoffConfig config;
  config.name = "cli";
  config.cw = args.get_int_list("cw", {8, 16, 32, 64});
  config.dc = args.get_int_list("dc", {0, 1, 3, 15});
  config.validate();
  return config;
}

/// Opens `path` for writing and runs `fn(stream)`; throws on failure.
template <typename Fn>
void write_file(const std::string& path, Fn&& fn) {
  std::ofstream out(path);
  if (!out) throw plc::Error("cannot open " + path);
  fn(out);
}

/// --profile / --profile-trace handling, shared by sim and testbed: turn
/// the profiler on before the run, write the requested artifacts after.
struct ProfileOutputs {
  std::string tree_path;   ///< --profile: text tree.
  std::string trace_path;  ///< --profile-trace: Chrome flame chart.

  bool enabled() const { return !tree_path.empty() || !trace_path.empty(); }

  static ProfileOutputs from(const Args& args) {
    ProfileOutputs outputs;
    outputs.tree_path = args.get_string("profile", "");
    outputs.trace_path = args.get_string("profile-trace", "");
    if (outputs.enabled()) {
      obs::Profiler::instance().reset();
      if (!outputs.trace_path.empty()) {
        obs::Profiler::instance().set_capture_events(true);
      }
      obs::Profiler::set_enabled(true);
    }
    return outputs;
  }

  void write() const {
    if (!enabled()) return;
    obs::Profiler::set_enabled(false);
    if (!tree_path.empty()) {
      write_file(tree_path, [](std::ostream& out) {
        obs::Profiler::instance().snapshot().write_text_tree(out);
      });
      PLC_LOG_INFO("cli", "wrote profile tree").str("path", tree_path);
    }
    if (!trace_path.empty()) {
      write_file(trace_path, [](std::ostream& out) {
        obs::Profiler::instance().write_chrome_trace(out);
      });
      PLC_LOG_INFO("cli", "wrote profile trace")
          .str("path", trace_path)
          .num("events", static_cast<double>(
                             obs::Profiler::instance().captured_events()));
    }
  }
};

/// --listen / --timeseries / --flight-recorder handling shared by sim
/// and scenario: owns the telemetry hub, the exposition server and the
/// recorder arming for the duration of one run. finish() tears the
/// plane down in the safe order (server first — it dereferences the
/// hub — then artifacts, then the recorder's process-global handlers).
struct Telemetry {
  std::unique_ptr<obs::TelemetryHub> hub;
  std::unique_ptr<obs::ExpositionServer> server;
  std::string timeseries_path;
  bool recorder = false;

  static Telemetry from(const Args& args) {
    Telemetry telemetry;
    telemetry.timeseries_path = args.get_string("timeseries", "");
    if (args.has("listen") || !telemetry.timeseries_path.empty()) {
      telemetry.hub = std::make_unique<obs::TelemetryHub>();
    }
    if (args.has("listen")) {
      obs::ExpositionServer::Options options;
      const std::string port = args.get_string("listen", "");
      options.port = port.empty() ? 0 : std::stoi(port);
      telemetry.server =
          std::make_unique<obs::ExpositionServer>(*telemetry.hub, options);
      telemetry.server->start();
      PLC_LOG_INFO("cli", "telemetry listening")
          .str("url", "http://127.0.0.1:" +
                          std::to_string(telemetry.server->port()) +
                          "/metrics");
    }
    if (args.has("flight-recorder")) {
      obs::FlightRecorder::Options options;
      const std::string dir = args.get_string("flight-recorder", "");
      if (!dir.empty()) options.directory = dir;
      obs::FlightRecorder::instance().arm(options);
      if (telemetry.hub != nullptr) {
        obs::FlightRecorder::instance().attach_hub(telemetry.hub.get());
      }
      telemetry.recorder = true;
    }
    return telemetry;
  }

  void finish() {
    if (server != nullptr) server->stop();
    if (hub != nullptr && !timeseries_path.empty()) {
      hub->sample_now();
      const std::string jsonl = hub->timeseries_jsonl();
      write_file(timeseries_path,
                 [&](std::ostream& out) { out << jsonl; });
      PLC_LOG_INFO("cli", "wrote timeseries").str("path", timeseries_path);
    }
    if (recorder) obs::FlightRecorder::instance().disarm();
  }
};

int cmd_sim(const Args& args) {
  sim::RunSpec spec;
  spec.stations = args.get_int("n", 2);
  spec.mac = config_from(args);
  spec.frame_length =
      des::SimTime::from_us(args.get_double("frame-us", 2050.0));
  spec.timing = phy::TimingConfig::from_ts_tc(
      des::SimTime::from_ns(35'840),
      des::SimTime::from_us(args.get_double("ts-us", 2542.64)),
      des::SimTime::from_us(args.get_double("tc-us", 2920.64)),
      spec.frame_length);
  spec.duration =
      des::SimTime::from_seconds(args.get_double("time-s", 50.0));
  spec.repetitions = args.get_int("reps", 1);
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x1901));
  spec.kernel = sim::kernel_from_name(args.get_string("kernel", "auto"));

  obs::Registry registry;
  obs::TraceSink trace;
  sim::RunObservability observability;
  observability.registry = &registry;
  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    observability.trace = &trace;
    observability.trace_counter_samples = args.has("trace-counters");
  }
  std::unique_ptr<obs::ProgressMeter> progress;
  if (args.has("progress")) {
    progress = std::make_unique<obs::ProgressMeter>(
        spec.duration * static_cast<std::int64_t>(spec.repetitions));
    observability.progress = progress.get();
  }
  Telemetry telemetry = Telemetry::from(args);
  observability.telemetry = telemetry.hub.get();
  // MAC-state observatory: --stations-out and --obs-window imply it.
  obs::ObservatoryOptions observatory_options;
  obs::ObservatorySummary stations_summary;
  const std::string stations_path = args.get_string("stations-out", "");
  const bool observatory_on = args.has("observatory") ||
                              args.has("obs-window") ||
                              !stations_path.empty();
  if (observatory_on) {
    observatory_options.fairness_window = args.get_int("obs-window", 50);
    observability.observatory = &observatory_options;
    observability.stations_sink = &stations_summary;
  }
  // Scheduler spans only exist on the parallel path, and only when a
  // trace is being collected anyway (they change the trace contents, so
  // they stay off the serial-comparison path).
  observability.task_spans =
      args.has("jobs") && observability.trace != nullptr;
  if (telemetry.recorder) {
    obs::FlightRecorder::instance().attach_registry(&registry);
    if (observability.trace != nullptr) {
      obs::FlightRecorder::instance().attach_trace(&trace);
    }
  }
  const ProfileOutputs profile = ProfileOutputs::from(args);

  obs::RunReport report;
  if (args.has("jobs")) {
    sim::ParallelRunner runner(args.get_int("jobs", 0));
    report = runner.run_point_report(spec, "plcsim-sim", observability);
    std::printf("jobs=%d  speedup=%.2fx (serial-equivalent %.2f s)\n",
                runner.jobs(), runner.speedup(),
                runner.serial_equivalent_seconds());
  } else {
    report = sim::run_point_report(spec, "plcsim-sim", observability);
  }
  profile.write();
  if (telemetry.hub != nullptr) {
    // Sim reports already carry wall-clock fields, so embedding the
    // sampled series keeps the report's determinism story intact.
    telemetry.hub->sample_now();
    report.timeseries = telemetry.hub->timeseries_json();
  }
  std::printf("N=%d  collision_pr=%.4f  norm_throughput=%.4f\n",
              spec.stations,
              report.scalars.at("collision_probability_mean"),
              report.scalars.at("normalized_throughput_mean"));
  std::printf("%.2fM medium events in %.2f s wall (%.1f sim-s/wall-s)\n",
              static_cast<double>(report.events) / 1e6, report.wall_seconds,
              report.sim_seconds_per_wall_second());
  if (observatory_on) {
    std::printf("observatory: window_jain(W=%d) mean=%.4f  "
                "longest collision burst=%lld\n",
                observatory_options.fairness_window,
                stations_summary.window_jain.mean(),
                static_cast<long long>(stations_summary.longest_burst));
  }
  if (!stations_path.empty()) {
    write_file(stations_path, [&](std::ostream& out) {
      stations_summary.write_trajectory_jsonl(out);
    });
    PLC_LOG_INFO("cli", "wrote station trajectory")
        .str("path", stations_path)
        .num("samples",
             static_cast<double>(stations_summary.trajectory.size()));
  }

  if (!trace_path.empty()) {
    write_file(trace_path,
               [&](std::ostream& out) { trace.write_chrome_trace(out); });
    PLC_LOG_INFO("cli", "wrote trace")
        .str("path", trace_path)
        .num("events", static_cast<double>(trace.size()))
        .num("dropped", static_cast<double>(trace.dropped()));
  }
  const std::string metrics_path = args.get_string("metrics", "");
  if (!metrics_path.empty()) {
    write_file(metrics_path, [&](std::ostream& out) {
      registry.snapshot().write_json(out);
    });
    PLC_LOG_INFO("cli", "wrote metrics snapshot").str("path", metrics_path);
  }
  const std::string report_path = args.get_string("report", "");
  if (!report_path.empty()) {
    report.save(report_path);
    PLC_LOG_INFO("cli", "wrote run report").str("path", report_path);
  }
  telemetry.finish();
  return 0;
}

int cmd_model(const Args& args) {
  const int n = args.get_int("n", 2);
  const mac::BackoffConfig config = config_from(args);
  const analysis::Model1901Result model = analysis::solve_1901(n, config);
  const phy::TimingConfig timing = phy::TimingConfig::paper_default();
  std::printf("N=%d  tau=%.5f  gamma=%.4f  throughput=%.4f\n", n,
              model.tau, model.gamma,
              model.normalized_throughput(timing,
                                          des::SimTime::from_us(2050.0)));
  util::TablePrinter table({"stage", "CW", "d", "attempt prob",
                            "E[countdown]", "E[visits/cycle]"});
  for (std::size_t i = 0; i < model.stages.size(); ++i) {
    table.add_row({std::to_string(i), std::to_string(config.cw[i]),
                   std::to_string(config.dc[i]),
                   util::format_fixed(model.stages[i].attempt_probability, 4),
                   util::format_fixed(model.stages[i].expected_countdown, 2),
                   util::format_fixed(model.stages[i].expected_visits, 4)});
  }
  table.print(std::cout);
  return 0;
}

/// `plcsim testbed --tests R [--jobs N]`: R independent tests of the
/// same configuration (seeds derived per test index), sharded across the
/// worker pool — the Figure 2 averaging procedure from the shell.
int cmd_testbed_suite(const Args& args, tools::TestbedConfig base,
                      int tests) {
  if (args.has("trace") || args.has("progress") || args.has("sniff") ||
      args.has("capture")) {
    throw plc::Error(
        "testbed --tests: --trace/--progress/--sniff/--capture apply to "
        "single runs only");
  }
  obs::Registry registry;
  const std::uint64_t root_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 0x1901));
  std::vector<tools::TestbedConfig> configs;
  configs.reserve(static_cast<std::size_t>(tests));
  for (int test = 0; test < tests; ++test) {
    tools::TestbedConfig config = base;
    config.seed = des::derive_task_seed(root_seed, 0,
                                        static_cast<std::uint64_t>(test));
    config.registry = &registry;
    configs.push_back(config);
  }
  const ProfileOutputs profile = ProfileOutputs::from(args);
  const tools::TestbedSuiteResult suite =
      tools::run_testbed_suite(configs, args.get_int("jobs", 0));
  profile.write();

  util::TablePrinter table({"test", "sum Ai", "sum Ci", "Ci/Ai"});
  util::RunningStats collision;
  for (std::size_t i = 0; i < suite.runs.size(); ++i) {
    const tools::TestbedResult& run = suite.runs[i];
    collision.add(run.collision_probability);
    table.add_row(
        {std::to_string(i),
         util::with_thousands(
             static_cast<std::int64_t>(run.total_acknowledged)),
         util::with_thousands(static_cast<std::int64_t>(run.total_collided)),
         util::format_fixed(run.collision_probability, 4)});
  }
  table.print(std::cout);
  std::printf("collision probability over %d tests: mean=%.4f std=%.4f\n",
              tests, collision.mean(), collision.stddev());
  std::printf("jobs=%d  speedup=%.2fx (serial-equivalent %.2f s)\n",
              util::ThreadPool::resolve_jobs(args.get_int("jobs", 0)),
              suite.speedup(), suite.serial_equivalent_seconds);

  const std::string metrics_path = args.get_string("metrics", "");
  if (!metrics_path.empty()) {
    write_file(metrics_path, [&](std::ostream& out) {
      registry.snapshot().write_json(out);
    });
    PLC_LOG_INFO("cli", "wrote metrics snapshot").str("path", metrics_path);
  }
  const std::string report_path = args.get_string("report", "");
  if (!report_path.empty()) {
    obs::RunReport report;
    report.name = "plcsim-testbed-suite";
    report.wall_seconds = suite.wall_seconds;
    report.simulated_seconds =
        static_cast<double>(tests) *
        (base.warmup + base.duration).seconds();
    report.metrics = registry.snapshot();
    if (const obs::MetricSample* dispatched =
            report.metrics.find("des.events_dispatched")) {
      report.events = static_cast<std::int64_t>(dispatched->value);
    }
    report.scalars["stations"] = static_cast<double>(base.stations);
    report.scalars["tests"] = static_cast<double>(tests);
    report.scalars["collision_probability_mean"] = collision.mean();
    report.scalars["collision_probability_stddev"] = collision.stddev();
    report.save(report_path);
    PLC_LOG_INFO("cli", "wrote run report").str("path", report_path);
  }
  return 0;
}

int cmd_testbed(const Args& args) {
  tools::TestbedConfig config;
  config.stations = args.get_int("n", 3);
  config.duration =
      des::SimTime::from_seconds(args.get_double("time-s", 30.0));
  const double mme_ms = args.get_double("mme-ms", 0.0);
  if (mme_ms > 0.0) {
    config.mme_interval = des::SimTime::from_us(mme_ms * 1000.0);
  }
  const int tests = args.get_int("tests", 1);
  if (tests > 1) return cmd_testbed_suite(args, config, tests);
  const std::string capture_path = args.get_string("capture", "");
  config.sniff_at_destination = args.has("sniff") || !capture_path.empty();

  obs::Registry registry;
  obs::TraceSink trace;
  config.registry = &registry;
  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) config.trace = &trace;
  const std::string report_path = args.get_string("report", "");
  const std::string metrics_path = args.get_string("metrics", "");
  std::unique_ptr<obs::ProgressMeter> progress;
  if (args.has("progress")) {
    progress =
        std::make_unique<obs::ProgressMeter>(config.warmup + config.duration);
    config.progress = progress.get();
  }
  const ProfileOutputs profile = ProfileOutputs::from(args);

  obs::Stopwatch stopwatch;
  const tools::TestbedResult result = tools::run_saturated_testbed(config);
  const double wall_seconds = stopwatch.elapsed_seconds();
  profile.write();

  util::TablePrinter table({"station", "acked (Ai)", "collided (Ci)"});
  for (std::size_t i = 0; i < result.acknowledged.size(); ++i) {
    table.add_row({std::to_string(i + 1),
                   util::with_thousands(static_cast<std::int64_t>(
                       result.acknowledged[i])),
                   util::with_thousands(static_cast<std::int64_t>(
                       result.collided[i]))});
  }
  table.print(std::cout);
  std::printf("sum(Ci)/sum(Ai) = %.4f   normalized throughput = %.4f\n",
              result.collision_probability,
              result.domain.normalized_throughput());
  if (config.sniff_at_destination) {
    std::printf("sniffer: %zu data bursts, MME overhead %.4f\n",
                result.data_burst_sources.size(), result.mme_overhead);
  }
  if (!capture_path.empty()) {
    tools::write_capture_file(capture_path, result.captures);
    PLC_LOG_INFO("cli", "wrote captures")
        .str("path", capture_path)
        .num("captures", static_cast<double>(result.captures.size()));
  }

  if (!trace_path.empty()) {
    write_file(trace_path,
               [&](std::ostream& out) { trace.write_chrome_trace(out); });
    PLC_LOG_INFO("cli", "wrote trace")
        .str("path", trace_path)
        .num("events", static_cast<double>(trace.size()))
        .num("dropped", static_cast<double>(trace.dropped()));
  }
  if (!metrics_path.empty()) {
    write_file(metrics_path, [&](std::ostream& out) {
      registry.snapshot().write_json(out);
    });
    PLC_LOG_INFO("cli", "wrote metrics snapshot").str("path", metrics_path);
  }
  if (!report_path.empty()) {
    obs::RunReport report;
    report.name = "plcsim-testbed";
    report.wall_seconds = wall_seconds;
    report.simulated_seconds = (config.warmup + config.duration).seconds();
    report.metrics = registry.snapshot();
    if (const obs::MetricSample* dispatched =
            report.metrics.find("des.events_dispatched")) {
      report.events = static_cast<std::int64_t>(dispatched->value);
    }
    report.scalars["stations"] = static_cast<double>(config.stations);
    report.scalars["collision_probability"] = result.collision_probability;
    report.scalars["normalized_throughput"] =
        result.domain.normalized_throughput();
    report.save(report_path);
    PLC_LOG_INFO("cli", "wrote run report").str("path", report_path);
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const int n_max = args.get_int("n-max", 7);
  const double time_s = args.get_double("time-s", 20.0);
  const mac::BackoffConfig config = config_from(args);
  const phy::TimingConfig timing = phy::TimingConfig::paper_default();
  const sim::Kernel kernel =
      sim::kernel_from_name(args.get_string("kernel", "auto"));
  util::TablePrinter table({"n", "sim_collision", "sim_throughput",
                            "model_collision", "model_throughput"});
  // One RunSpec per station count (single repetition each), sharded as
  // (point x repetition) tasks across the runner's pool: the table is
  // built in n order from the merged summaries, so the output is
  // identical for any --jobs value — and for either --kernel.
  std::vector<sim::RunSpec> specs;
  specs.reserve(static_cast<std::size_t>(n_max));
  for (int n = 1; n <= n_max; ++n) {
    sim::RunSpec spec;
    spec.mac = config;
    spec.stations = n;
    spec.timing = timing;
    spec.frame_length = des::SimTime::from_us(2050.0);
    spec.duration = des::SimTime::from_seconds(time_s);
    spec.repetitions = 1;
    spec.kernel = kernel;
    specs.push_back(spec);
  }
  sim::ParallelRunner runner(args.get_int("jobs", 1));
  const std::vector<sim::RunSummary> simulated_by_n =
      runner.run_points(specs, sim::RunObservability{});
  for (int n = 1; n <= n_max; ++n) {
    const auto& simulated = simulated_by_n[static_cast<std::size_t>(n - 1)];
    const auto model = analysis::solve_1901(n, config);
    table.add_row(
        {std::to_string(n),
         util::format_fixed(simulated.collision_probability.mean(), 4),
         util::format_fixed(simulated.normalized_throughput.mean(), 4),
         util::format_fixed(model.gamma, 4),
         util::format_fixed(model.normalized_throughput(
                                timing, des::SimTime::from_us(2050.0)),
                            4)});
  }
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}

int cmd_boost(const Args& args) {
  const int n = args.get_int("n", 10);
  const phy::TimingConfig timing = phy::TimingConfig::paper_default();
  const des::SimTime frame = des::SimTime::from_us(2050.0);
  const auto ranked = analysis::rank_configurations(
      n, timing, frame, analysis::default_candidate_pool());
  const auto uniform = analysis::best_uniform_window(n, timing, frame);
  util::TablePrinter table({"configuration", "model throughput",
                            "model collision"});
  for (std::size_t i = 0; i < ranked.size() && i < 5; ++i) {
    table.add_row({ranked[i].config.name,
                   util::format_fixed(ranked[i].throughput, 4),
                   util::format_fixed(ranked[i].collision_probability, 4)});
  }
  table.add_row({"tuned " + uniform.config.name,
                 util::format_fixed(uniform.throughput, 4),
                 util::format_fixed(uniform.collision_probability, 4)});
  table.print(std::cout);
  return 0;
}

int cmd_delay(const Args& args) {
  const int n = args.get_int("n", 5);
  const double load = args.get_double("load", 0.5);
  const mac::BackoffConfig config = config_from(args);
  const phy::TimingConfig timing = phy::TimingConfig::paper_default();
  const des::SimTime frame = des::SimTime::from_us(2050.0);
  const double capacity =
      analysis::saturation_rate_fps(n, config, timing, frame);
  const double lambda = load * capacity;
  const auto model =
      analysis::access_delay(n, config, timing, frame, lambda);
  sim::PoissonMacSpec spec;
  spec.stations = n;
  spec.config = config;
  spec.arrival_rate_fps = lambda;
  spec.duration = des::SimTime::from_seconds(
      args.get_double("time-s", 60.0));
  const auto simulated = sim::run_poisson_mac(spec);
  std::printf("N=%d  capacity=%.1f fps/station  lambda=%.1f fps "
              "(load %.2f)\n",
              n, capacity, lambda, load);
  std::printf("model: E[T]=%.2f ms (rho=%.2f)   sim: mean=%.2f ms "
              "p99=%.2f ms\n",
              model.mean_sojourn_s * 1e3, model.utilization,
              simulated.mean_delay_s * 1e3, simulated.p99_delay_s * 1e3);
  return 0;
}

/// `plcsim scenario`: run (or inspect) a declarative experiment spec —
/// a scenario::Registry built-in or a "plc-scenario/1" JSON file.
int cmd_scenario(const std::string& target, const Args& args) {
  if (args.has("list")) {
    for (const std::string& name : scenario::Registry::names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (target.empty()) {
    throw plc::Error(
        "scenario: give a registry name or a .json spec file "
        "(plcsim scenario --list enumerates the built-ins)");
  }
  if (!scenario::Registry::contains(target) &&
      target.find('.') == std::string::npos &&
      target.find('/') == std::string::npos) {
    // Bare word that is neither a built-in nor plausibly a file path:
    // point at the registry instead of a confusing file-open error.
    std::string known;
    for (const std::string& name : scenario::Registry::names()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    throw plc::Error("scenario: unknown scenario \"" + target +
                     "\" (known: " + known + ")");
  }
  scenario::Spec spec = scenario::Registry::contains(target)
                            ? scenario::Registry::get(target)
                            : scenario::Spec::from_file(target);
  if (args.has("kernel")) {
    // Overrides the spec's "kernel" field for this run. Both kernels
    // produce byte-identical reports (and the field is never serialized),
    // so this cannot change --dump-spec or report bytes.
    spec.kernel = sim::kernel_from_name(args.get_string("kernel", "auto"));
  }

  if (args.has("dump-spec")) {
    const std::string path = args.get_string("dump-spec", "");
    if (path.empty()) {
      std::printf("%s\n", spec.to_json().c_str());
    } else {
      write_file(path,
                 [&](std::ostream& out) { out << spec.to_json() << "\n"; });
      PLC_LOG_INFO("cli", "wrote scenario spec").str("path", path);
    }
    return 0;
  }
  if (args.has("validate")) {
    // from_file/Registry::get already validated; re-check the round-trip
    // so a committed fixture that drifts from the parser fails here.
    scenario::Spec::from_json(spec.to_json());
    std::printf("%s: ok (%zu MAC variant(s), %zu station count(s))\n",
                spec.name.c_str(), spec.macs.size(), spec.stations.size());
    return 0;
  }

  scenario::RunOptions options;
  options.jobs =
      args.has("jobs") ? args.get_int("jobs", 0) : util::jobs_from_env();
  const bool json_summary = args.has("json");
  options.out = json_summary ? nullptr : &std::cout;
  std::unique_ptr<store::ResultStore> cache;
  const std::string cache_dir = args.get_string("cache", "");
  if (!cache_dir.empty()) {
    cache = std::make_unique<store::ResultStore>(cache_dir);
    options.store = cache.get();
  }
  Telemetry telemetry = Telemetry::from(args);
  options.telemetry = telemetry.hub.get();
  const ProfileOutputs profile = ProfileOutputs::from(args);
  const scenario::RunOutcome outcome = scenario::run_scenario(spec, options);
  profile.write();

  const int jobs = util::ThreadPool::resolve_jobs(options.jobs);
  const double speedup =
      outcome.wall_seconds > 0.0
          ? outcome.serial_equivalent_seconds / outcome.wall_seconds
          : 1.0;
  if (json_summary) {
    // Machine twin of the human epilogue below; same quantities, one
    // "plc-scenario-summary/1" object. (The run report stays the
    // deterministic artifact; this summary is where the wall-clock and
    // cache-traffic numbers live.)
    obs::JsonWriter json(std::cout);
    json.begin_object();
    json.field("schema", "plc-scenario-summary/1");
    json.field("name", spec.name);
    json.field("jobs", static_cast<std::int64_t>(jobs));
    json.field("wall_seconds", outcome.wall_seconds);
    json.field("serial_equivalent_seconds",
               outcome.serial_equivalent_seconds);
    json.field("speedup", speedup);
    if (cache != nullptr) {
      const store::Counters counters = cache->counters();
      const std::int64_t lookups = counters.hits + counters.misses;
      json.key("cache").begin_object();
      json.field("hits", counters.hits);
      json.field("misses", counters.misses);
      json.field("hit_rate",
                 lookups > 0 ? static_cast<double>(counters.hits) /
                                   static_cast<double>(lookups)
                             : 0.0);
      json.field("publishes", counters.publishes);
      json.field("quarantined", counters.quarantined);
      json.end_object();
    }
    json.end_object();
    std::printf("\n");
  } else {
    std::printf("\njobs=%d  speedup=%.2fx (serial-equivalent %.2f s in "
                "%.2f s wall)\n",
                jobs, speedup, outcome.serial_equivalent_seconds,
                outcome.wall_seconds);
    if (cache != nullptr) {
      const store::Counters counters = cache->counters();
      const std::int64_t lookups = counters.hits + counters.misses;
      std::printf("cache: %lld hits, %lld misses (%.1f%% hit rate), "
                  "%lld published\n",
                  static_cast<long long>(counters.hits),
                  static_cast<long long>(counters.misses),
                  lookups > 0 ? 100.0 * static_cast<double>(counters.hits) /
                                    static_cast<double>(lookups)
                              : 0.0,
                  static_cast<long long>(counters.publishes));
      if (counters.quarantined > 0) {
        std::printf("cache: quarantined %lld corrupt entr%s (see %s)\n",
                    static_cast<long long>(counters.quarantined),
                    counters.quarantined == 1 ? "y" : "ies",
                    cache->quarantine_dir().c_str());
      }
    }
  }
  const std::string report_path = args.get_string("report", "");
  if (!report_path.empty()) {
    outcome.report.save(report_path);
    PLC_LOG_INFO("cli", "wrote run report").str("path", report_path);
  }
  telemetry.finish();
  return 0;
}

/// SIGTERM/SIGINT flag for `plcsim serve` — the handler only sets the
/// flag; the main thread polls it and runs the drain outside signal
/// context.
volatile std::sig_atomic_t g_serve_stop = 0;

extern "C" void handle_serve_signal(int) { g_serve_stop = 1; }

/// `plcsim serve`: the store-backed sweep service. Runs until SIGTERM
/// or SIGINT, then drains (finish running tasks, persist the owed queue
/// to --queue-file, refuse new work) and exits 0.
int cmd_serve(const Args& args) {
  serve::Server::Options options;
  options.port = args.get_int("port", 0);
  options.bind_address = args.get_string("bind", "127.0.0.1");
  options.jobs = args.get_int("jobs", 0);
  options.max_queue = args.get_int("max-queue", 16);
  options.cache_dir = args.get_string("cache", "");
  options.queue_file = args.get_string("queue-file", "");

  // Install the handlers before the banner: a harness may signal as soon
  // as it has read the port, and the default action would skip the drain.
  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGINT, handle_serve_signal);
  serve::Server server(options);
  server.start();
  const std::string url = "http://" + options.bind_address + ":" +
                          std::to_string(server.port());
  if (args.has("json")) {
    // Machine-readable startup banner ("plc-serve/1"): harnesses parse
    // the chosen port from here when --port 0 picked an ephemeral one.
    obs::JsonWriter json(std::cout);
    json.begin_object();
    json.field("schema", "plc-serve/1");
    json.field("url", url);
    json.field("port", static_cast<std::int64_t>(server.port()));
    json.field("jobs",
               static_cast<std::int64_t>(server.scheduler().pool_jobs()));
    json.field("max_queue", static_cast<std::int64_t>(options.max_queue));
    json.field("cache", options.cache_dir);
    json.field("queue_file", options.queue_file);
    json.field("restored_jobs", server.restored_jobs());
    json.end_object();
    std::printf("\n");
  } else {
    std::printf("plcsim serve: %s (jobs=%d, max-queue=%d%s%s)\n",
                url.c_str(), server.scheduler().pool_jobs(),
                options.max_queue,
                options.cache_dir.empty() ? "" : ", cache=",
                options.cache_dir.c_str());
  }
  std::fflush(stdout);

  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  PLC_LOG_INFO("serve", "signal received; draining");
  server.drain();
  server.stop();
  return 0;
}

/// `plcsim http`: one loopback HTTP request against the daemon (the
/// curl the CLI tests can rely on). Exit 0 on 2xx, or exactly --expect.
int cmd_http(const Args& args) {
  const int port = args.get_int("port", 0);
  if (port <= 0) throw plc::Error("http: --port is required");
  const std::string host = args.get_string("host", "127.0.0.1");
  const std::string path = args.get_string("path", "/");

  std::string body;
  const bool have_body = args.has("body");
  if (have_body) {
    const std::string body_file = args.get_string("body", "");
    if (body_file.empty() || body_file == "-") {
      std::ostringstream in;
      in << std::cin.rdbuf();
      body = in.str();
    } else {
      body = util::read_file(body_file);
    }
  }
  const std::string method =
      args.get_string("method", have_body ? "POST" : "GET");

  std::string request = method + " " + path + " HTTP/1.1\r\nHost: " + host +
                        "\r\n";
  if (have_body) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "Connection: close\r\n\r\n" + body;

  util::Socket socket = util::Socket::connect_tcp(host, port);
  socket.send_all(request);
  const std::string response = socket.recv_all();
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    throw plc::Error("http: malformed response (no header terminator)");
  }
  const std::string head = response.substr(0, head_end);
  const std::string payload = response.substr(head_end + 4);
  int status = 0;
  if (const std::size_t space = head.find(' ');
      space != std::string::npos && space + 1 < head.size()) {
    status = std::stoi(head.substr(space + 1));
  }

  if (args.has("include")) std::printf("%s\n\n", head.c_str());
  const std::string out_path = args.get_string("out", "");
  if (!out_path.empty()) {
    // Byte-exact: this is the `cmp`-against-the-CLI-report path.
    util::write_file_atomic(out_path, payload);
  } else {
    std::fwrite(payload.data(), 1, payload.size(), stdout);
  }
  std::fflush(stdout);
  if (args.has("expect")) {
    return status == args.get_int("expect", 0) ? 0 : 1;
  }
  return status >= 200 && status < 300 ? 0 : 1;
}

/// `plcsim crash-test`: deliberately crashes after arming the flight
/// recorder, so tests (and the curious) can exercise the crash-dump
/// path end to end. Hidden from usage() on purpose.
int cmd_crash_test(const Args& args) {
  obs::FlightRecorder::Options options;
  options.directory = args.get_string("dir", ".");
  obs::FlightRecorder::instance().arm(options);

  // Give the dump something real to record: a few trace events, a
  // counter, and an open profiler scope.
  obs::TraceSink trace;
  for (int i = 0; i < 3; ++i) {
    obs::TraceEvent event;
    event.phase = obs::TracePhase::kInstant;
    event.name = "crash-test";
    event.category = "cli";
    event.start = des::SimTime::from_ns(i * 1000);
    event.add_arg("i", static_cast<double>(i));
    trace.record(event);
  }
  obs::Registry registry;
  registry.counter("crash_test.events").add(3);
  obs::FlightRecorder::instance().attach_trace(&trace);
  obs::FlightRecorder::instance().attach_registry(&registry);
  // A small observatory, so the dump's "stations" section (the backoff
  // FSM tail) is exercised too.
  obs::Observatory observatory(2, 4, obs::ObservatoryOptions{});
  observatory.on_success(0, 1'000);
  observatory.begin_sample(1'000);
  observatory.record_state(3, 1, 0, 0);
  observatory.record_state(5, 0, 1, 1);
  observatory.advance_event();
  obs::FlightRecorder::instance().attach_observatory(&observatory);
  obs::Profiler::set_enabled(true);
  PROF_SCOPE("crash_test");

  const std::string mode = args.get_string("signal", "segv");
  if (mode == "segv") {
    ::raise(SIGSEGV);
  } else if (mode == "abort") {
    std::abort();
  } else if (mode == "terminate") {
    // Rethrowing from a noexcept frame reaches std::terminate with a
    // current exception; a plain throw here would be caught by main().
    std::exception_ptr error;
    try {
      throw plc::Error("crash-test: deliberate unhandled exception");
    } catch (...) {
      error = std::current_exception();
    }
    const auto boom = [&error]() noexcept { std::rethrow_exception(error); };
    boom();
  } else {
    throw plc::Error("crash-test: unknown --signal \"" + mode +
                     "\" (want segv, abort or terminate)");
  }
  return 1;  // Unreachable: every branch above kills the process.
}

/// `plcsim cache <stats|verify|gc>`: maintenance of a plc::store result
/// cache directory (the one `scenario --cache` reads and writes).
int cmd_cache(const std::string& action, const Args& args) {
  const std::string dir = args.get_string("dir", "");
  if (dir.empty()) throw plc::Error("cache: --dir is required");
  store::ResultStore store(dir);

  if (action == "stats") {
    const store::DiskUsage usage = store.scan();
    if (args.has("json")) {
      obs::JsonWriter json(std::cout);
      json.begin_object();
      json.field("schema", "plc-cache-stats/1");
      json.field("dir", dir);
      json.field("entries", usage.entries);
      json.field("bytes", usage.bytes);
      json.field("quarantined_entries", usage.quarantined_entries);
      json.field("quarantined_bytes", usage.quarantined_bytes);
      json.end_object();
      std::printf("\n");
    } else {
      std::printf("%s: %lld entries, %lld bytes "
                  "(%lld quarantined, %lld bytes)\n",
                  dir.c_str(), static_cast<long long>(usage.entries),
                  static_cast<long long>(usage.bytes),
                  static_cast<long long>(usage.quarantined_entries),
                  static_cast<long long>(usage.quarantined_bytes));
    }
    return 0;
  }

  if (action == "verify") {
    const store::VerifyResult result = store.verify();
    if (args.has("json")) {
      obs::JsonWriter json(std::cout);
      json.begin_object();
      json.field("schema", "plc-cache-verify/1");
      json.field("dir", dir);
      json.field("checked", result.checked);
      json.field("ok", result.ok);
      json.field("quarantined", result.quarantined);
      json.end_object();
      std::printf("\n");
    } else {
      std::printf("%s: checked %lld entries, %lld ok, %lld quarantined\n",
                  dir.c_str(), static_cast<long long>(result.checked),
                  static_cast<long long>(result.ok),
                  static_cast<long long>(result.quarantined));
    }
    return result.quarantined > 0 ? 1 : 0;
  }

  if (action == "gc") {
    if (!args.has("max-mb") && !args.has("max-bytes")) {
      throw plc::Error("cache gc: give the size cap as --max-mb or "
                       "--max-bytes");
    }
    const std::int64_t max_bytes =
        args.has("max-bytes")
            ? static_cast<std::int64_t>(args.get_double("max-bytes", 0.0))
            : static_cast<std::int64_t>(args.get_double("max-mb", 0.0) *
                                        1024.0 * 1024.0);
    if (max_bytes < 0) throw plc::Error("cache gc: size cap must be >= 0");
    const store::GcResult result = store.gc(max_bytes);
    if (args.has("json")) {
      obs::JsonWriter json(std::cout);
      json.begin_object();
      json.field("schema", "plc-cache-gc/1");
      json.field("dir", dir);
      json.field("bytes_before", result.bytes_before);
      json.field("bytes_after", result.bytes_after);
      json.field("removed", result.removed);
      json.end_object();
      std::printf("\n");
    } else {
      std::printf("%s: %lld -> %lld bytes, removed %lld files\n", dir.c_str(),
                  static_cast<long long>(result.bytes_before),
                  static_cast<long long>(result.bytes_after),
                  static_cast<long long>(result.removed));
    }
    return 0;
  }

  throw plc::Error("cache: unknown action \"" + action +
                   "\" (want stats, verify or gc)");
}

/// One MAC def as a "plc-mac/1" JSON object: identity, metadata and the
/// def's default configuration in spec form (the same fields a
/// plc-scenario/1 mac object takes).
void write_mac_def_json(obs::JsonWriter& json, const mac::MacDef& def) {
  json.begin_object();
  json.field("name", def.name);
  json.key("aliases").begin_array();
  for (std::size_t i = 0; i < def.alias_count; ++i) json.value(def.aliases[i]);
  json.end_array();
  json.field("summary", def.summary);
  json.key("presets").begin_array();
  for (std::size_t i = 0; i < def.preset_count; ++i) {
    json.begin_object();
    json.field("name", def.presets[i].name);
    json.field("summary", def.presets[i].summary);
    json.end_object();
  }
  json.end_array();
  json.key("counters").begin_array();
  for (std::size_t i = 0; i < def.counter_count; ++i) {
    json.begin_object();
    json.field("name", def.counters[i].name);
    json.field("summary", def.counters[i].summary);
    json.end_object();
  }
  json.end_array();
  json.field("has_model", def.solve != nullptr);
  json.field("is_1901_family", def.backoff_config != nullptr);
  const std::shared_ptr<const void> config = def.default_config();
  json.key("default").begin_object();
  def.write_spec_fields(json, config.get());
  json.end_object();
  json.end_object();
}

/// `plcsim mac <list|describe NAME>`: the registered MAC defs, driven
/// entirely by mac::builtin_registry() metadata.
int cmd_mac(const std::string& action, const std::string& name,
            const Args& args) {
  const mac::Registry& registry = mac::builtin_registry();
  if (action == "list") {
    if (args.has("json")) {
      obs::JsonWriter json(std::cout);
      json.begin_object();
      json.field("schema", "plc-mac-list/1");
      json.key("macs").begin_array();
      for (const mac::MacDef* def : registry.defs()) {
        write_mac_def_json(json, *def);
      }
      json.end_array();
      json.end_object();
      std::cout << "\n";
      return 0;
    }
    util::TablePrinter table({"name", "aliases", "presets", "model",
                              "summary"});
    for (const mac::MacDef* def : registry.defs()) {
      std::string aliases;
      for (std::size_t i = 0; i < def->alias_count; ++i) {
        if (!aliases.empty()) aliases += ", ";
        aliases += def->aliases[i];
      }
      std::string presets;
      for (std::size_t i = 0; i < def->preset_count; ++i) {
        if (!presets.empty()) presets += ", ";
        presets += def->presets[i].name;
      }
      table.add_row({def->name, aliases.empty() ? "-" : aliases,
                     presets.empty() ? "-" : presets,
                     def->solve != nullptr ? "yes" : "-", def->summary});
    }
    table.print(std::cout);
    return 0;
  }
  if (action == "describe") {
    if (name.empty()) {
      throw plc::Error("mac describe: give a MAC name (known: " +
                       registry.known_names() + ")");
    }
    const mac::MacDef& def = registry.get(name);
    if (args.has("json")) {
      obs::JsonWriter json(std::cout);
      write_mac_def_json(json, def);
      std::cout << "\n";
      return 0;
    }
    std::printf("%s — %s\n", def.name, def.summary);
    for (std::size_t i = 0; i < def.alias_count; ++i) {
      std::printf("  alias: %s\n", def.aliases[i]);
    }
    if (def.preset_count > 0) {
      std::printf("presets:\n");
      for (std::size_t i = 0; i < def.preset_count; ++i) {
        std::printf("  %-24s %s\n", def.presets[i].name,
                    def.presets[i].summary);
      }
    }
    std::printf("counters:\n");
    for (std::size_t i = 0; i < def.counter_count; ++i) {
      std::printf("  %-6s %s\n", def.counters[i].name,
                  def.counters[i].summary);
    }
    std::printf("model solver: %s\n", def.solve != nullptr ? "yes" : "no");
    std::printf("1901 family:  %s\n",
                def.backoff_config != nullptr ? "yes" : "no");
    const std::shared_ptr<const void> config = def.default_config();
    std::ostringstream out;
    obs::JsonWriter json(out);
    json.begin_object();
    def.write_spec_fields(json, config.get());
    json.end_object();
    std::printf("default:      %s\n", out.str().c_str());
    return 0;
  }
  throw plc::Error("mac: unknown action \"" + action +
                   "\" (want list or describe)");
}

int cmd_capture(const Args& args) {
  const std::string path = args.get_string("file", "");
  if (path.empty()) throw plc::Error("capture: --file is required");
  const auto captures = tools::read_capture_file(path);
  const auto bursts = tools::Faifa::segment_bursts(captures);
  std::printf("%zu delimiters, %zu bursts, MME overhead %.4f\n",
              captures.size(), bursts.size(),
              tools::Faifa::mme_overhead_of(captures));
  // Per-source burst shares (the §3.3 fairness trace, aggregated).
  std::map<int, int> per_source;
  for (const int tei : tools::Faifa::data_burst_sources_of(captures)) {
    ++per_source[tei];
  }
  util::TablePrinter table({"source TEI", "data bursts", "share"});
  std::int64_t total = 0;
  for (const auto& [tei, count] : per_source) total += count;
  for (const auto& [tei, count] : per_source) {
    table.add_row({std::to_string(tei), std::to_string(count),
                   util::format_fixed(
                       total > 0 ? static_cast<double>(count) /
                                       static_cast<double>(total)
                                 : 0.0,
                       4)});
  }
  table.print(std::cout);
  const int head = args.get_int("head", 0);
  for (int i = 0; i < head && i < static_cast<int>(captures.size()); ++i) {
    std::printf("%s\n",
                tools::Faifa::format_capture(
                    captures[static_cast<std::size_t>(i)]).c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: plcsim <sim|model|testbed|sweep|scenario|cache|mac|"
               "serve|http|boost|delay|capture> [--key value ...]\n"
               "see the file header of examples/plcsim_cli.cpp for the "
               "full option list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "scenario") {
      // The spec name/path is positional: `plcsim scenario figure2 ...`.
      std::string target;
      int first = 2;
      if (argc >= 3 && std::string(argv[2]).rfind("--", 0) != 0) {
        target = argv[2];
        first = 3;
      }
      return cmd_scenario(target, Args(argc, argv, first));
    }
    if (command == "cache") {
      // The action is positional: `plcsim cache stats --dir DIR`.
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        throw plc::Error("cache: give an action (stats, verify or gc)");
      }
      return cmd_cache(argv[2], Args(argc, argv, 3));
    }
    if (command == "mac") {
      // Action and name are positional: `plcsim mac describe 1901`.
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        throw plc::Error("mac: give an action (list or describe)");
      }
      std::string name;
      int first = 3;
      if (argc >= 4 && std::string(argv[3]).rfind("--", 0) != 0) {
        name = argv[3];
        first = 4;
      }
      return cmd_mac(argv[2], name, Args(argc, argv, first));
    }
    const Args args(argc, argv, 2);
    if (command == "sim") return cmd_sim(args);
    if (command == "model") return cmd_model(args);
    if (command == "testbed") return cmd_testbed(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "boost") return cmd_boost(args);
    if (command == "delay") return cmd_delay(args);
    if (command == "capture") return cmd_capture(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "http") return cmd_http(args);
    if (command == "crash-test") return cmd_crash_test(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plcsim: %s\n", e.what());
    return 2;
  }
}
