// perfbench_trace: the benchmark's tracer.
//
// Runs the same generated specs as the untraced benchmark, in-process,
// and times calls into each layer's public functions from the outside:
// spec parse, run_scenario, report serialization, the model solvers,
// the boosted-cw window search, ParallelRunner::run_points and the
// emulated testbed. The program itself carries no extra tracing. Spans
// (name, start, end, parent) are kept in memory and written once, at the
// end, as a JSON array of Chrome trace events; the per-layer figures go
// to a second JSON file. perfbench/run.py starts this program with
// --trace 1 and merges both files into its own output.
//
//   perfbench_trace rounds <workload> <rounds.jsonl> <seconds> <jobs> <out>
//       Each line of rounds.jsonl is one round: a JSON array of
//       plc-scenario/1 specs. Whole rounds run until <seconds> have
//       passed. Writes <out>.spans.json, <out>.layers.json and one
//       <out>.r<round>-<index>.report.json per run_scenario call.
//   perfbench_trace testbed-one <spec.json> <stations>
//       One testbed run of the spec's configuration at N = <stations>,
//       alone in its process (the caller reads its peak RSS).
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/optimizer.hpp"
#include "obs/json.hpp"
#include "obs/observatory.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/parallel_runner.hpp"
#include "store/result_store.hpp"
#include "tools/testbed.hpp"
#include "util/error.hpp"

namespace {

using namespace plc;

double monotonic_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// In-memory span recorder for the calling thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int id;
    int parent;
  };

  /// Opens a span under the innermost open one; returns its id.
  int open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), monotonic_us(), 0.0, id,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  /// Closes span `id` (the innermost); returns its length in seconds.
  double close(int id) {
    spans_[id].end_us = monotonic_us();
    stack_.pop_back();
    return 1e-6 * (spans_[id].end_us - spans_[id].start_us);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    obs::JsonWriter json(out);
    json.begin_array();
    for (const Span& span : spans_) {
      json.begin_object();
      json.field("name", span.name);
      json.field("ph", "X");
      json.field("ts", span.start_us);
      json.field("dur", span.end_us - span.start_us);
      json.field("pid", static_cast<std::int64_t>(getpid()));
      json.field("tid", static_cast<std::int64_t>(1));
      json.key("args").begin_object();
      json.field("id", static_cast<std::int64_t>(span.id));
      json.field("parent", static_cast<std::int64_t>(span.parent));
      json.end_object();
      json.end_object();
    }
    json.end_array();
    out << "\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call as a span and returns its seconds.
template <typename F>
double timed(Tracer& tracer, const char* name, F&& call) {
  const int id = tracer.open(name);
  call();
  return tracer.close(id);
}

/// Sum and count of one per-layer quantity.
struct Tally {
  double sum = 0.0;
  double count = 0.0;
  void add(double value) {
    sum += value;
    count += 1.0;
  }
  double mean() const { return count > 0.0 ? sum / count : 0.0; }
};

struct Layers {
  Tally parse_s, run_s, serialize_s, solve_s, window_s, warm_run_s;
  double run_points_s = 0.0, task_cpu_s = 0.0, sim_events = 0.0;
  std::map<std::string, double> kernel_task_s, kernel_events;
  std::map<int, double> testbed_s;
  double testbed_cpu_s = 0.0, testbed_sim_s = 0.0;
  double des_events = 0.0;
  std::map<std::string, double> medium_events;
  int rounds = 0;
};

double counter(const obs::Snapshot& snapshot, const char* name,
               const obs::Labels& labels = {}) {
  const obs::MetricSample* sample = snapshot.find(name, labels);
  return sample != nullptr ? sample->value : 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The model leg and the window search, called directly.
void trace_analysis(Tracer& tracer, Layers& layers, const scenario::Spec& spec,
                    const obs::JsonValue& doc) {
  if (spec.legs.model) {
    for (const scenario::MacVariant& variant : spec.macs) {
      const mac::MacDef& def = variant.mac.def();
      if (def.solve == nullptr) continue;
      for (const int n : spec.stations) {
        layers.solve_s.add(timed(tracer, "analysis.solve", [&] {
          def.solve(variant.mac.config(), n, spec.timing, spec.frame_length);
        }));
      }
    }
  }
  for (const obs::JsonValue& mac : doc.find("macs")->items) {
    const obs::JsonValue* type = mac.find("type");
    if (type == nullptr || type->text != "boosted-cw") continue;
    const int target = static_cast<int>(mac.find("target_stations")->number);
    layers.window_s.add(timed(tracer, "analysis.window_search", [&] {
      analysis::best_uniform_window(target, spec.timing, spec.frame_length);
    }));
  }
}

/// The sim leg's sweep, called directly on a runner of `jobs` workers.
void trace_sim(Tracer& tracer, Layers& layers, const scenario::Spec& spec,
               sim::ParallelRunner& runner) {
  if (!spec.legs.sim) return;
  std::vector<sim::RunSpec> run_specs;
  for (std::size_t v = 0; v < spec.macs.size(); ++v) {
    for (const int n : spec.stations) {
      run_specs.push_back(spec.to_run_spec(n, v));
    }
  }
  sim::RunObservability attach;
  obs::ObservatoryOptions observatory;
  if (spec.observatory) {
    observatory.fairness_window = spec.observatory_window;
    observatory.trajectory_capacity =
        static_cast<std::size_t>(spec.observatory_trajectory);
    attach.observatory = &observatory;
  }
  std::vector<sim::RunSummary> summaries;
  layers.run_points_s += timed(tracer, "sim.run_points", [&] {
    summaries = runner.run_points(run_specs, attach);
  });
  double events = 0.0;
  for (const sim::RunSummary& summary : summaries) {
    events += static_cast<double>(summary.medium_events);
  }
  // The observatory's per-slot hooks force the slot-stepped kernel.
  const std::string kernel = spec.observatory ? "slot_kernel" : "event_kernel";
  layers.task_cpu_s += runner.serial_equivalent_seconds();
  layers.sim_events += events;
  layers.kernel_task_s[kernel] += runner.serial_equivalent_seconds();
  layers.kernel_events[kernel] += events;
}

/// Each station count's testbed run, alone and in order.
void trace_testbed(Tracer& tracer, Layers& layers, const scenario::Spec& spec) {
  if (!spec.legs.testbed) return;
  for (const int n : spec.stations) {
    tools::TestbedConfig config = spec.to_testbed_config(n, 0, 0);
    obs::Registry registry;
    config.registry = &registry;
    const double cpu = thread_cpu_s();
    layers.testbed_s[n] += timed(tracer, "tools.testbed_run", [&] {
      tools::run_saturated_testbed(config);
    });
    layers.testbed_cpu_s += thread_cpu_s() - cpu;
    layers.testbed_sim_s += (config.warmup + config.duration).seconds();
    const obs::Snapshot snapshot = registry.snapshot();
    layers.des_events += counter(snapshot, "des.events_dispatched");
    for (const char* type : {"idle", "success", "collision"}) {
      layers.medium_events[type] +=
          counter(snapshot, "medium.events", {{"type", type}});
    }
  }
}

int run_rounds(const std::string& workload, const std::string& rounds_path,
               double seconds, int jobs, const std::string& out) {
  std::vector<std::string> lines;
  {
    std::istringstream in(read_file(rounds_path));
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  if (lines.empty()) throw Error("no rounds in " + rounds_path);
  const bool serve = workload == "serve";
  Tracer tracer;
  Layers layers;
  sim::ParallelRunner runner(jobs);
  std::optional<store::ResultStore> store;
  if (serve) store.emplace(out + ".store");
  std::vector<double> round_wall;
  const double deadline = monotonic_us() + 1e6 * seconds;
  for (std::size_t r = 0; r < lines.size(); ++r) {
    if (r > 0 && monotonic_us() >= deadline) break;
    const obs::JsonValue round = obs::parse_json(lines[r]);
    const int round_span = tracer.open("round");
    std::map<std::string, int> seen;
    for (std::size_t i = 0; i < round.items.size(); ++i) {
      const std::string text = round.items[i].dump();
      const bool warm = serve && seen.count(text) > 0;
      seen[text] += 1;
      const int op = tracer.open(warm ? "op.warm" : "op");
      scenario::Spec spec;
      layers.parse_s.add(timed(tracer, "scenario.parse",
                               [&] { spec = scenario::Spec::from_json(text); }));
      scenario::RunOptions options;
      options.jobs = jobs;
      options.store = serve ? &*store : nullptr;
      scenario::RunOutcome outcome;
      const double run = timed(tracer, warm ? "store.warm_run" : "scenario.run",
                               [&] { outcome = scenario::run_scenario(spec, options); });
      if (warm) {
        if (!spec.legs.model) layers.warm_run_s.add(run);
      } else {
        layers.run_s.add(run);
      }
      std::ostringstream bytes;
      layers.serialize_s.add(timed(tracer, "obs.report_serialize", [&] {
        outcome.report.write_json(bytes);
      }));
      std::ofstream(out + ".r" + std::to_string(r) + "-" + std::to_string(i) +
                    ".report.json")
          << bytes.str();
      if (!warm) {
        trace_analysis(tracer, layers, spec, round.items[i]);
        trace_sim(tracer, layers, spec, runner);
        trace_testbed(tracer, layers, spec);
      }
      tracer.close(op);
    }
    round_wall.push_back(tracer.close(round_span));
    layers.rounds += 1;
  }
  tracer.write(out + ".spans.json");

  const double rounds = layers.rounds;
  std::ofstream file(out + ".layers.json");
  obs::JsonWriter json(file);
  json.begin_object();
  json.field("rounds", static_cast<std::int64_t>(layers.rounds));
  json.field("operations", static_cast<std::int64_t>(layers.parse_s.count));
  json.key("round_wall_s").begin_array();
  for (const double wall : round_wall) json.value(wall);
  json.end_array();
  json.field("scenario.parse_ms", 1e3 * layers.parse_s.mean());
  json.field("scenario.run_s", layers.run_s.mean());
  json.field("obs.report_serialize_ms", 1e3 * layers.serialize_s.mean());
  json.field("analysis.solves", layers.solve_s.count / rounds);
  json.field("analysis.solve_ms_mean", 1e3 * layers.solve_s.mean());
  json.field("analysis.window_search_ms", 1e3 * layers.window_s.mean());
  json.field("sim.run_points_s", layers.run_points_s / rounds);
  json.field("sim.task_cpu_s", layers.task_cpu_s / rounds);
  json.field("sim.parallel_efficiency",
             layers.run_points_s > 0.0
                 ? layers.task_cpu_s / (layers.run_points_s * runner.jobs())
                 : 0.0);
  json.field("sim.events", layers.sim_events / rounds);
  for (const char* kernel : {"event_kernel", "slot_kernel"}) {
    const double events = layers.kernel_events[kernel];
    json.field(std::string("sim.ns_per_event.") + kernel,
               events > 0.0 ? 1e9 * layers.kernel_task_s[kernel] / events : 0.0);
  }
  for (const auto& [n, wall] : layers.testbed_s) {
    json.field("tools.testbed_run_s.n" + std::to_string(n), wall / rounds);
  }
  json.field("des.events_dispatched", layers.des_events / rounds);
  double testbed_wall = 0.0;
  for (const auto& entry : layers.testbed_s) testbed_wall += entry.second;
  json.field("des.ns_per_event",
             layers.des_events > 0.0 ? 1e9 * testbed_wall / layers.des_events
                                     : 0.0);
  double slot_events = 0.0;
  for (const auto& [type, count] : layers.medium_events) {
    json.field("medium.events." + type, count / rounds);
    slot_events += count;
  }
  json.field("medium.idle_share",
             slot_events > 0.0 ? layers.medium_events["idle"] / slot_events
                               : 0.0);
  json.field("testbed.sim_s_per_cpu_s",
             layers.testbed_cpu_s > 0.0
                 ? layers.testbed_sim_s / layers.testbed_cpu_s
                 : 0.0);
  json.field("store.warm_run_ms", 1e3 * layers.warm_run_s.mean());
  json.end_object();
  file << "\n";
  return 0;
}

int testbed_one(const std::string& spec_path, int stations) {
  const scenario::Spec spec = scenario::Spec::from_file(spec_path);
  tools::run_saturated_testbed(spec.to_testbed_config(stations, 0, 0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 6 && args[0] == "rounds") {
      return run_rounds(args[1], args[2], std::stod(args[3]),
                        std::stoi(args[4]), args[5]);
    }
    if (args.size() == 3 && args[0] == "testbed-one") {
      return testbed_one(args[1], std::stoi(args[2]));
    }
    std::fprintf(stderr,
                 "usage: perfbench_trace rounds <workload> <rounds.jsonl> "
                 "<seconds> <jobs> <out>\n"
                 "       perfbench_trace testbed-one <spec.json> <stations>\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}
