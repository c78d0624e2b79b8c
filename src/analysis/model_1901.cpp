#include "analysis/model_1901.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/error.hpp"
#include "util/math.hpp"

namespace plc::analysis {

namespace {

/// x_i and S_i of one stage: both are averages of the same sequence
/// F_b = P(Bin(b, p) <= dc) over the initial draw b ~ U{0..CW-1}.
struct StageSums {
  double attempt = 0.0;
  double countdown = 0.0;
};

/// One pass over b. `row` carries the pmf row q_b[j] = P(Bin(b, p) = j)
/// for j <= dc, advanced by q_{b+1}[j] = (1-p) q_b[j] + p q_b[j-1], so a
/// stage costs O(CW * dc) multiply-adds and no transcendental calls.
StageSums stage_sums(int cw, int dc, double p, std::vector<double>& row) {
  util::check_arg(cw >= 1, "cw", "must be >= 1");
  util::check_arg(dc >= 0, "dc", "must be >= 0");
  util::check_arg(p >= 0.0 && p <= 1.0, "p", "must be in [0, 1]");
  if (dc >= cw - 1) {
    // No countdown is long enough to see dc+1 busy events: F_b = 1 for
    // every b, so x = 1 and S = (CW-1)/2. The integer sum is formed
    // exactly, as the general pass would.
    const std::int64_t triangle =
        static_cast<std::int64_t>(cw) * (cw - 1) / 2;
    return {1.0, static_cast<double>(triangle) / static_cast<double>(cw)};
  }
  row.assign(static_cast<std::size_t>(dc) + 1, 0.0);
  row[0] = 1.0;
  const double q = 1.0 - p;
  // x = (1/CW) * sum_{b=0}^{CW-1} F_b: the station attempts iff fewer
  // than dc+1 of its b countdown events are busy.
  // Countdown events consumed for initial draw b: min(b, T) where T is
  // the index of the (dc+1)-th busy event. E[min(b, T)] telescopes to
  // sum_{k=0}^{b-1} P(T > k) = sum_{k=0}^{b-1} F_k. Averaging over b and
  // swapping sums:  S = (1/CW) * sum_{k=0}^{CW-2} (CW-1-k) * F_k.
  double attempt = 0.0;
  double countdown = 0.0;
  for (int b = 0; b < cw; ++b) {
    double cdf = 1.0;  // F_b = 1 while b <= dc.
    if (b > dc) {
      cdf = 0.0;
      for (int j = 0; j <= dc; ++j) cdf += row[static_cast<std::size_t>(j)];
      cdf = std::min(cdf, 1.0);
    }
    attempt += cdf;
    if (b + 1 == cw) break;
    countdown += static_cast<double>(cw - 1 - b) * cdf;
    for (int j = std::min(b + 1, dc); j > 0; --j) {
      row[static_cast<std::size_t>(j)] =
          q * row[static_cast<std::size_t>(j)] +
          p * row[static_cast<std::size_t>(j - 1)];
    }
    row[0] *= q;
  }
  return {attempt / static_cast<double>(cw),
          countdown / static_cast<double>(cw)};
}

/// Buffers reused across the fixed point's evaluations of tau(p).
struct Scratch {
  std::vector<StageMetrics> stages;
  std::vector<double> row;  ///< stage_sums' pmf row.
};

/// tau as a function of the busy probability p, via the renewal cycle
/// over backoff stages. Leaves the per-stage metrics in scratch.stages.
double tau_given_busy(const mac::BackoffConfig& config, double p,
                      Scratch& scratch) {
  std::vector<StageMetrics>& stages = scratch.stages;
  const std::size_t m = config.cw.size();
  stages.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const StageSums sums =
        stage_sums(config.cw[i], config.dc[i], p, scratch.row);
    stages[i].attempt_probability = sums.attempt;
    stages[i].expected_countdown = sums.countdown;
  }
  const double gamma = p;

  double attempts = 0.0;
  double events = 0.0;
  double entering = 1.0;  // Probability flow entering stage i per cycle.
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const double x = stages[i].attempt_probability;
    stages[i].expected_visits = entering;
    attempts += entering * x;
    events += entering * (stages[i].expected_countdown + x);
    entering *= 1.0 - x * (1.0 - gamma);
  }
  // Last stage self-loops until the frame finally succeeds.
  StageMetrics& last = stages.back();
  const double x_last = last.attempt_probability;
  const double s_last = last.expected_countdown;
  const double leave = x_last * (1.0 - gamma);
  if (leave < 1e-12) {
    // The cycle is dominated by the last stage's self-loop; the ratio
    // converges to the last stage's attempts-per-event.
    for (std::size_t i = 0; i + 1 < m; ++i) stages[i].expected_visits = 0.0;
    last.expected_visits = 1.0;
    return x_last / (s_last + x_last);
  }
  const double last_visits = entering / leave;
  last.expected_visits = last_visits;
  attempts += last_visits * x_last;
  events += last_visits * (s_last + x_last);
  return attempts / events;
}

}  // namespace

double stage_attempt_probability(int cw, int dc, double p) {
  std::vector<double> row;
  return stage_sums(cw, dc, p, row).attempt;
}

double stage_expected_countdown(int cw, int dc, double p) {
  std::vector<double> row;
  return stage_sums(cw, dc, p, row).countdown;
}

double transmission_probability_given_busy(const mac::BackoffConfig& config,
                                           double p) {
  util::check_arg(p >= 0.0 && p <= 1.0, "p", "must be in [0, 1]");
  config.validate();
  Scratch scratch;
  return tau_given_busy(config, p, scratch);
}

Model1901Result solve_1901(int n, const mac::BackoffConfig& config) {
  util::check_arg(n >= 1, "n", "need at least one station");
  return solve_1901_continuous(static_cast<double>(n), config);
}

Model1901Result solve_1901_continuous(double n,
                                      const mac::BackoffConfig& config) {
  util::check_arg(n >= 1.0, "n_effective", "must be >= 1");
  config.validate();

  Model1901Result result;
  Scratch scratch;
  if (n == 1.0) {
    // Alone on the medium: never busy, stage 0 only.
    result.tau = tau_given_busy(config, 0.0, scratch);
    result.gamma = 0.0;
    result.busy_probability = 0.0;
  } else {
    const auto busy_of_tau = [n](double tau) {
      return 1.0 - std::pow(1.0 - tau, n - 1);
    };
    const auto g = [&](double tau) {
      return tau_given_busy(config, busy_of_tau(tau), scratch) - tau;
    };
    const double tau =
        util::bisect(g, 1e-12, 1.0 - 1e-12, 1e-14, 200);
    result.tau = tau;
    result.busy_probability = busy_of_tau(tau);
    result.gamma = result.busy_probability;
    tau_given_busy(config, result.busy_probability, scratch);
  }
  result.stages = std::move(scratch.stages);

  const double tau = result.tau;
  result.p_idle = std::pow(1.0 - tau, n);
  result.p_success =
      static_cast<double>(n) * tau * std::pow(1.0 - tau, n - 1);
  result.p_collision =
      std::max(0.0, 1.0 - result.p_idle - result.p_success);
  return result;
}

double Model1901Result::normalized_throughput(
    const phy::TimingConfig& timing, des::SimTime frame_length) const {
  const double expected_event_us = p_idle * timing.slot.us() +
                                   p_success * timing.ts(frame_length).us() +
                                   p_collision * timing.tc(frame_length).us();
  if (expected_event_us <= 0.0) return 0.0;
  return p_success * frame_length.us() / expected_event_us;
}

double Model1901Result::success_rate_per_second(
    const phy::TimingConfig& timing, des::SimTime frame_length) const {
  const double expected_event_s =
      p_idle * timing.slot.seconds() +
      p_success * timing.ts(frame_length).seconds() +
      p_collision * timing.tc(frame_length).seconds();
  if (expected_event_s <= 0.0) return 0.0;
  return p_success / expected_event_s;
}

}  // namespace plc::analysis
