#include <algorithm>
#include <cmath>
#include <iomanip>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "analysis/delay.hpp"
#include "analysis/drift.hpp"
#include "analysis/heterogeneous.hpp"
#include "analysis/exact_chain.hpp"
#include "analysis/model_1901.hpp"
#include "analysis/model_dcf.hpp"
#include "analysis/optimizer.hpp"
#include "des/random.hpp"
#include "phy/timing.hpp"
#include "scenario/registry.hpp"
#include "sim/sim_1901.hpp"
#include "sim/slot_simulator.hpp"
#include "sim/unsaturated.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace plc::analysis {
namespace {

const mac::BackoffConfig kCa1 = mac::BackoffConfig::ca0_ca1();
const phy::TimingConfig kTiming = phy::TimingConfig::paper_default();
const des::SimTime kFrame = des::SimTime::from_us(2050.0);

// --- Per-stage quantities ----------------------------------------------------------

TEST(StageMath, AttemptProbabilityAtZeroBusyIsOne) {
  // With a never-busy medium the deferral counter never fires: the
  // station always reaches BC = 0 and transmits.
  for (const int cw : {1, 8, 64}) {
    for (const int dc : {0, 3, 15}) {
      EXPECT_DOUBLE_EQ(stage_attempt_probability(cw, dc, 0.0), 1.0);
    }
  }
}

TEST(StageMath, AttemptProbabilityAtFullBusy) {
  // p = 1: every countdown event is busy, so the station transmits iff
  // its draw b <= dc; the average is min(dc+1, cw)/cw.
  EXPECT_DOUBLE_EQ(stage_attempt_probability(8, 0, 1.0), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(stage_attempt_probability(64, 15, 1.0), 16.0 / 64.0);
  EXPECT_DOUBLE_EQ(stage_attempt_probability(4, 15, 1.0), 1.0);
}

TEST(StageMath, AttemptProbabilityDecreasesWithBusy) {
  double previous = 2.0;
  for (double p = 0.0; p <= 1.0; p += 0.1) {
    const double x = stage_attempt_probability(32, 3, p);
    EXPECT_LE(x, previous + 1e-12);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    previous = x;
  }
}

TEST(StageMath, CountdownAtZeroBusyIsMeanBackoff) {
  // No busy events: countdown slots = E[b] = (CW-1)/2.
  EXPECT_DOUBLE_EQ(stage_expected_countdown(8, 0, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(stage_expected_countdown(64, 15, 0.0), 31.5);
  EXPECT_DOUBLE_EQ(stage_expected_countdown(1, 0, 0.5), 0.0);
}

TEST(StageMath, CountdownShrinksWithBusyWhenDeferralActive) {
  // d = 0: any busy event ends the stage early, so more busy => fewer
  // expected countdown events.
  double previous = 100.0;
  for (double p = 0.0; p <= 1.0; p += 0.2) {
    const double s = stage_expected_countdown(32, 0, p);
    EXPECT_LE(s, previous + 1e-12);
    previous = s;
  }
}

TEST(StageMath, DisabledDeferralMatchesPlainBackoff) {
  // With an unreachable deferral counter, busy probability is irrelevant.
  EXPECT_DOUBLE_EQ(
      stage_attempt_probability(64, mac::kDeferralDisabled, 0.7), 1.0);
  EXPECT_DOUBLE_EQ(
      stage_expected_countdown(64, mac::kDeferralDisabled, 0.7), 31.5);
}

TEST(StageMath, RejectsBadArguments) {
  EXPECT_THROW(stage_attempt_probability(0, 0, 0.5), plc::Error);
  EXPECT_THROW(stage_attempt_probability(8, -1, 0.5), plc::Error);
  EXPECT_THROW(stage_expected_countdown(8, 0, -0.1), plc::Error);
}

// --- Oracle: the per-b binomial_cdf evaluation ------------------------------------
//
// The stage sums as first written (every F_b = P(Bin(b, p) <= dc) rebuilt
// from lgamma/exp pmfs), with the renewal cycle and the bisection around
// them: a slow reference that the incremental pass in model_1901.cpp must
// reproduce.
namespace oracle {

double stage_attempt(int cw, int dc, double p) {
  double sum = 0.0;
  for (int b = 0; b < cw; ++b) sum += util::binomial_cdf(b, dc, p);
  return sum / static_cast<double>(cw);
}

double stage_countdown(int cw, int dc, double p) {
  double sum = 0.0;
  for (int k = 0; k + 1 < cw; ++k) {
    sum += static_cast<double>(cw - 1 - k) * util::binomial_cdf(k, dc, p);
  }
  return sum / static_cast<double>(cw);
}

double tau_given_busy(const mac::BackoffConfig& config, double p) {
  double attempts = 0.0;
  double events = 0.0;
  double entering = 1.0;
  for (std::size_t i = 0; i + 1 < config.cw.size(); ++i) {
    const double x = stage_attempt(config.cw[i], config.dc[i], p);
    const double s = stage_countdown(config.cw[i], config.dc[i], p);
    attempts += entering * x;
    events += entering * (s + x);
    entering *= 1.0 - x * (1.0 - p);
  }
  const double x = stage_attempt(config.cw.back(), config.dc.back(), p);
  const double s = stage_countdown(config.cw.back(), config.dc.back(), p);
  const double leave = x * (1.0 - p);
  if (leave < 1e-12) return x / (s + x);
  const double last_visits = entering / leave;
  return (attempts + last_visits * x) / (events + last_visits * (s + x));
}

Model1901Result solve(int n, const mac::BackoffConfig& config) {
  Model1901Result result;
  const double stations = static_cast<double>(n);
  if (n == 1) {
    result.tau = tau_given_busy(config, 0.0);
  } else {
    const auto busy = [stations](double tau) {
      return 1.0 - std::pow(1.0 - tau, stations - 1);
    };
    result.tau = util::bisect(
        [&](double tau) { return tau_given_busy(config, busy(tau)) - tau; },
        1e-12, 1.0 - 1e-12, 1e-14, 200);
    result.gamma = busy(result.tau);
  }
  result.p_idle = std::pow(1.0 - result.tau, stations);
  result.p_success =
      stations * result.tau * std::pow(1.0 - result.tau, stations - 1);
  result.p_collision =
      std::max(0.0, 1.0 - result.p_idle - result.p_success);
  return result;
}

int best_uniform_window(int n) {
  int best_window = 0;
  double best_throughput = -1.0;
  for (int w = 2; w <= 4096; w = std::max(w + 1, w + w / 16)) {
    mac::BackoffConfig config;
    config.cw = {w};
    config.dc = {mac::kDeferralDisabled};
    const double throughput =
        solve(n, config).normalized_throughput(kTiming, kFrame);
    if (throughput > best_throughput) {
      best_window = w;
      best_throughput = throughput;
    }
  }
  return best_window;
}

}  // namespace oracle

::testing::AssertionResult RelativelyClose(double actual, double expected,
                                           double tolerance) {
  const double scale = std::max(std::fabs(expected), 1e-300);
  if (std::fabs(actual - expected) <= tolerance * scale) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::setprecision(17) << actual << " vs oracle " << expected
         << " (relative error " << std::fabs(actual - expected) / scale
         << ")";
}

TEST(StageMathOracle, StageSumsMatchPerBinomialCdfSums) {
  for (const int cw : {1, 2, 3, 8, 16, 64, 512, 4096}) {
    for (const int dc : {0, 1, 3, 15, 31, mac::kDeferralDisabled}) {
      for (const double p : {0.0, 1e-6, 0.01, 0.3, 0.77, 0.99, 1.0}) {
        SCOPED_TRACE(::testing::Message()
                     << "cw=" << cw << " dc=" << dc << " p=" << p);
        EXPECT_TRUE(RelativelyClose(stage_attempt_probability(cw, dc, p),
                                    oracle::stage_attempt(cw, dc, p),
                                    1e-12));
        EXPECT_TRUE(RelativelyClose(stage_expected_countdown(cw, dc, p),
                                    oracle::stage_countdown(cw, dc, p),
                                    1e-12));
      }
    }
  }
}

TEST(StageMathOracle, ClosedFormsAreExactWhenDeferralCannotFire) {
  // dc >= CW-1: the exact integer sums, so the same doubles as the
  // per-b evaluation, not merely close ones.
  for (const int cw : {1, 2, 3, 8, 64, 4096}) {
    for (const int dc : {cw - 1, cw, mac::kDeferralDisabled}) {
      for (const double p : {0.0, 0.3, 1.0}) {
        EXPECT_EQ(stage_attempt_probability(cw, dc, p),
                  oracle::stage_attempt(cw, dc, p));
        EXPECT_EQ(stage_expected_countdown(cw, dc, p),
                  oracle::stage_countdown(cw, dc, p));
      }
    }
  }
}

TEST(Model1901Oracle, RegistryConfigsMatchOracle) {
  int configs = 0;
  for (const std::string& name : scenario::Registry::names()) {
    const scenario::Spec spec = scenario::Registry::get(name);
    for (const scenario::MacVariant& variant : spec.macs) {
      const mac::BackoffConfig* config = variant.mac.backoff_config();
      if (config == nullptr) continue;
      ++configs;
      for (int n = 1; n <= 50; ++n) {
        SCOPED_TRACE(::testing::Message()
                     << name << "/" << variant.label << " n=" << n);
        const Model1901Result fast = solve_1901(n, *config);
        const Model1901Result slow = oracle::solve(n, *config);
        EXPECT_TRUE(RelativelyClose(fast.tau, slow.tau, 1e-12));
        EXPECT_TRUE(RelativelyClose(fast.gamma, slow.gamma, 1e-12));
      }
    }
  }
  EXPECT_GE(configs, 5);
}

TEST(Model1901Oracle, RandomSchedulesMatchOracle) {
  des::RandomStream rng(0x0AC1E);
  for (int trial = 0; trial < 200; ++trial) {
    mac::BackoffConfig config;
    const int stages = rng.uniform_int(1, 5);
    for (int i = 0; i < stages; ++i) {
      // Log-uniform windows in [1, 256] (the stage-sum grid above covers
      // larger ones); deferral counters from 0 up to past the window, or
      // disabled.
      const int cw = static_cast<int>(std::exp2(8.0 * rng.uniform()));
      const int dc = rng.bernoulli(0.1)
                         ? mac::kDeferralDisabled
                         : rng.uniform_int(0, std::min(cw + 1, 33));
      config.cw.push_back(cw);
      config.dc.push_back(dc);
    }
    const int n = rng.uniform_int(1, 50);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n=" << n);
    const Model1901Result fast = solve_1901(n, config);
    const Model1901Result slow = oracle::solve(n, config);
    EXPECT_TRUE(RelativelyClose(fast.tau, slow.tau, 1e-12));
    EXPECT_TRUE(RelativelyClose(fast.gamma, slow.gamma, 1e-12));
  }
}

// --- Decoupling model -----------------------------------------------------------------

TEST(Model1901, SingleStationClosedForm) {
  const Model1901Result result = solve_1901(1, kCa1);
  EXPECT_DOUBLE_EQ(result.gamma, 0.0);
  // tau = 1 / (E[BC_0] + 1) = 1 / 4.5 = 2/(CW0+1).
  EXPECT_NEAR(result.tau, 2.0 / 9.0, 1e-12);
  const double cycle_us = 3.5 * 35.84 + 2542.64;
  EXPECT_NEAR(result.normalized_throughput(kTiming, kFrame),
              2050.0 / cycle_us, 1e-9);
}

TEST(Model1901, EventProbabilitiesSumToOne) {
  for (const int n : {1, 2, 5, 10, 50}) {
    const Model1901Result result = solve_1901(n, kCa1);
    EXPECT_NEAR(result.p_idle + result.p_success + result.p_collision, 1.0,
                1e-9)
        << "n=" << n;
  }
}

TEST(Model1901, GammaIncreasesWithN) {
  double previous = -1.0;
  for (const int n : {1, 2, 3, 5, 10, 20, 50}) {
    const Model1901Result result = solve_1901(n, kCa1);
    EXPECT_GT(result.gamma, previous) << "n=" << n;
    previous = result.gamma;
  }
}

TEST(Model1901, TauDecreasesWithN) {
  double previous = 2.0;
  for (const int n : {1, 2, 5, 10, 50}) {
    const Model1901Result result = solve_1901(n, kCa1);
    EXPECT_LT(result.tau, previous) << "n=" << n;
    previous = result.tau;
  }
}

TEST(Model1901, StageVisitsDecayAcrossStages) {
  const Model1901Result result = solve_1901(5, kCa1);
  ASSERT_EQ(result.stages.size(), 4u);
  // Stage 0 is entered once per cycle; later stages at most as often.
  EXPECT_NEAR(result.stages[0].expected_visits, 1.0, 1e-9);
  EXPECT_LE(result.stages[1].expected_visits, 1.0 + 1e-9);
}

TEST(Model1901, MatchesSimulatorAtModerateN) {
  // The decoupling assumption is accurate for N >= ~4 (the paper's
  // observation); at small N it overestimates because the stations'
  // stages are anti-correlated (see ExactPair below).
  for (const int n : {4, 5, 7}) {
    const Model1901Result model = solve_1901(n, kCa1);
    const sim::Sim1901Result simulated =
        sim::sim_1901(n, 5e7, 2920.64, 2542.64, 2050.0, kCa1.cw, kCa1.dc);
    EXPECT_NEAR(model.gamma, simulated.collision_probability, 0.025)
        << "n=" << n;
    EXPECT_NEAR(model.normalized_throughput(kTiming, kFrame),
                simulated.normalized_throughput, 0.02)
        << "n=" << n;
  }
}

TEST(Model1901, OverestimatesCollisionsAtSmallN) {
  // The paper's central analytical observation, reproduced: at N = 2 the
  // decoupled prediction lies well above the simulated (= true coupled)
  // collision probability.
  const Model1901Result model = solve_1901(2, kCa1);
  const sim::Sim1901Result simulated =
      sim::sim_1901(2, 5e7, 2920.64, 2542.64, 2050.0, kCa1.cw, kCa1.dc);
  EXPECT_GT(model.gamma, simulated.collision_probability + 0.02);
}

TEST(Model1901, SuccessRatePositive) {
  const Model1901Result result = solve_1901(3, kCa1);
  EXPECT_GT(result.success_rate_per_second(kTiming, kFrame), 100.0);
  EXPECT_LT(result.success_rate_per_second(kTiming, kFrame), 1e6);
}

// --- DCF model ---------------------------------------------------------------------------

TEST(ModelDcf, SingleStation) {
  const ModelDcfResult result = solve_dcf(1, 16, 1024);
  EXPECT_DOUBLE_EQ(result.gamma, 0.0);
  EXPECT_NEAR(result.tau, 1.0 / (1.0 + 7.5), 1e-9);
}

TEST(ModelDcf, MatchesDcfSimulator) {
  // The freeze-corrected Bianchi fixed point tracks the DCF simulator to
  // within a few points of probability (the residual is the usual
  // decoupling error, growing mildly with contention).
  for (const int n : {2, 5, 10}) {
    const ModelDcfResult model = solve_dcf(n, 16, 1024);
    sim::SlotSimulator simulator(sim::make_dcf_entities(n, 16, 1024, 5),
                                 kTiming);
    const sim::SlotSimResults results =
        simulator.run(des::SimTime::from_seconds(40.0));
    EXPECT_NEAR(model.gamma, results.collision_probability(), 0.04)
        << "n=" << n;
  }
}

TEST(ModelDcf, GammaIncreasesWithN) {
  double previous = -1.0;
  for (const int n : {1, 2, 5, 10, 30}) {
    const ModelDcfResult result = solve_dcf(n, 16, 1024);
    EXPECT_GT(result.gamma, previous);
    previous = result.gamma;
  }
}

// --- Drift (coupled occupancy) model -----------------------------------------------------

TEST(Drift, ConvergesForDefaultConfig) {
  for (const int n : {1, 2, 5, 10}) {
    const DriftResult result = solve_drift(n, kCa1);
    EXPECT_TRUE(result.converged) << "n=" << n;
    double total = 0.0;
    for (const double occupancy : result.occupancy) total += occupancy;
    EXPECT_NEAR(total, static_cast<double>(n), 1e-6) << "n=" << n;
  }
}

TEST(Drift, AgreesWithDecouplingAtLargeN) {
  const DriftResult drift = solve_drift(20, kCa1);
  const Model1901Result decoupled = solve_1901(20, kCa1);
  EXPECT_NEAR(drift.gamma, decoupled.gamma, 0.02);
}

TEST(Drift, OccupancyShiftsUpWithN) {
  const DriftResult few = solve_drift(2, kCa1);
  const DriftResult many = solve_drift(20, kCa1);
  // Fraction of stations beyond stage 0 grows with contention.
  const double tail_few = 1.0 - few.occupancy[0] / 2.0;
  const double tail_many = 1.0 - many.occupancy[0] / 20.0;
  EXPECT_GT(tail_many, tail_few);
}

TEST(Drift, TrajectoryConservesStationsAndConverges) {
  std::vector<double> start = {5.0, 0.0, 0.0, 0.0};
  const auto trajectory = drift_trajectory(5, kCa1, start, 4000, 0.5);
  ASSERT_EQ(trajectory.size(), 4001u);
  for (const DriftState& state : trajectory) {
    double total = 0.0;
    for (const double occupancy : state.occupancy) total += occupancy;
    EXPECT_NEAR(total, 5.0, 1e-6);
  }
  // The trajectory should approach the solved equilibrium (loosely: the
  // integrator refreshes its busy estimate once per step, the solver
  // iterates it to convergence).
  const DriftResult equilibrium = solve_drift(5, kCa1);
  const auto& final_state = trajectory.back();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(final_state.occupancy[i], equilibrium.occupancy[i], 0.5)
        << "stage " << i;
  }
}

TEST(Drift, OccupancyMatchesSimulatedStageDistribution) {
  // Validate the occupancy itself, not just gamma: sample the per-stage
  // station counts of a long simulation at every medium event and
  // compare the time-average against the drift equilibrium.
  const int n = 5;
  sim::SlotSimulator simulator(sim::make_1901_entities(n, kCa1, 99));
  std::vector<double> occupancy_sum(4, 0.0);
  std::int64_t samples = 0;
  simulator.set_observer([&](const sim::SlotEvent&) {
    for (int i = 0; i < n; ++i) {
      occupancy_sum[static_cast<std::size_t>(
          simulator.entity(i).stage())] += 1.0;
    }
    ++samples;
  });
  simulator.run(des::SimTime::from_seconds(60.0));
  const DriftResult drift = solve_drift(n, kCa1);
  for (std::size_t stage = 0; stage < 4; ++stage) {
    const double simulated =
        occupancy_sum[stage] / static_cast<double>(samples);
    EXPECT_NEAR(drift.occupancy[stage], simulated, 0.45)
        << "stage " << stage;
  }
}

TEST(Drift, TrajectoryValidatesInputs) {
  EXPECT_THROW(drift_trajectory(5, kCa1, {1.0, 1.0}, 10, 0.5), plc::Error);
  EXPECT_THROW(drift_trajectory(5, kCa1, {1.0, 1.0, 1.0, 1.0}, 10, 0.5),
               plc::Error);  // Sums to 4, not 5.
  EXPECT_THROW(drift_trajectory(5, kCa1, {5.0, 0.0, 0.0, 0.0}, 0, 0.5),
               plc::Error);
}

// --- Exact two-station chain ---------------------------------------------------------------

TEST(ExactPair, TinyConfigMatchesLongSimulation) {
  mac::BackoffConfig tiny;
  tiny.cw = {2, 4};
  tiny.dc = {0, 1};
  const ExactPairResult exact = solve_exact_pair(tiny);
  EXPECT_LT(exact.residual, 1e-10);
  const sim::Sim1901Result simulated =
      sim::sim_1901(2, 2e8, 2920.64, 2542.64, 2050.0, tiny.cw, tiny.dc);
  EXPECT_NEAR(exact.collision_probability,
              simulated.collision_probability, 0.005);
}

TEST(ExactPair, DefaultConfigMatchesSimulatorWhereDecouplingFails) {
  const ExactPairResult exact = solve_exact_pair(kCa1, 4000, 1e-10);
  const sim::Sim1901Result simulated =
      sim::sim_1901(2, 1e8, 2920.64, 2542.64, 2050.0, kCa1.cw, kCa1.dc);
  // The exact chain nails the coupled behaviour...
  EXPECT_NEAR(exact.collision_probability,
              simulated.collision_probability, 0.006);
  // ...which the decoupling model misses by a wide margin at N=2.
  const Model1901Result decoupled = solve_1901(2, kCa1);
  EXPECT_GT(std::abs(decoupled.gamma - simulated.collision_probability),
            3.0 * std::abs(exact.collision_probability -
                           simulated.collision_probability));
}

TEST(ExactPair, ProbabilitiesWellFormed) {
  mac::BackoffConfig small;
  small.cw = {4, 8};
  small.dc = {0, 3};
  const ExactPairResult exact = solve_exact_pair(small);
  EXPECT_NEAR(exact.p_idle + exact.p_success + exact.p_collision, 1.0,
              1e-9);
  EXPECT_GT(exact.p_success, 0.0);
  EXPECT_GT(exact.p_collision, 0.0);
  EXPECT_GT(exact.normalized_throughput(kTiming, kFrame), 0.0);
  // Stage joint sums to 1 and is symmetric (identical stations).
  double total = 0.0;
  for (std::size_t i = 0; i < exact.stage_joint.size(); ++i) {
    for (std::size_t j = 0; j < exact.stage_joint.size(); ++j) {
      total += exact.stage_joint[i][j];
      EXPECT_NEAR(exact.stage_joint[i][j], exact.stage_joint[j][i], 1e-6);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ExactPair, StagesAreAntiCorrelated) {
  // The coupling signature: P(both at stage 0) is *below* the product of
  // the marginals — when one station holds the channel the other has been
  // pushed up.
  mac::BackoffConfig small;
  small.cw = {4, 8, 16};
  small.dc = {0, 1, 3};
  const ExactPairResult exact = solve_exact_pair(small);
  double marginal0 = 0.0;
  for (std::size_t j = 0; j < exact.stage_joint.size(); ++j) {
    marginal0 += exact.stage_joint[0][j];
  }
  EXPECT_LT(exact.stage_joint[0][0], marginal0 * marginal0);
}

TEST(ExactPair, GuardsAgainstHugeStateSpaces) {
  mac::BackoffConfig big;
  big.cw = {1 << 12};
  big.dc = {1 << 12};
  EXPECT_THROW(solve_exact_pair(big), plc::Error);
}

// --- Heterogeneous exact pair ----------------------------------------------------------------

TEST(ExactPairHeterogeneous, SymmetricCallMatchesHomogeneous) {
  mac::BackoffConfig small;
  small.cw = {4, 8};
  small.dc = {0, 1};
  const ExactPairResult homogeneous = solve_exact_pair(small);
  const ExactPairResult heterogeneous = solve_exact_pair(small, small);
  EXPECT_NEAR(homogeneous.collision_probability,
              heterogeneous.collision_probability, 1e-9);
  EXPECT_NEAR(heterogeneous.success_share_a(), 0.5, 1e-6);
}

TEST(ExactPairHeterogeneous, SmallerWindowWinsTheChannel) {
  // A station with a tighter window grabs more successes — the exact
  // quantification of the coexistence (boosting-vs-default) question.
  mac::BackoffConfig aggressive;
  aggressive.cw = {4, 8};
  aggressive.dc = {0, 1};
  mac::BackoffConfig relaxed;
  relaxed.cw = {16, 32};
  relaxed.dc = {0, 1};
  const ExactPairResult result = solve_exact_pair(aggressive, relaxed);
  EXPECT_GT(result.success_share_a(), 0.6);
  EXPECT_NEAR(result.p_success_a + result.p_success_b, result.p_success,
              1e-12);
  EXPECT_NEAR(result.p_idle + result.p_success + result.p_collision, 1.0,
              1e-9);
}

TEST(ExactPairHeterogeneous, MatchesHeterogeneousSimulation) {
  mac::BackoffConfig a;
  a.cw = {4, 8};
  a.dc = {0, 1};
  mac::BackoffConfig b;
  b.cw = {8, 16};
  b.dc = {1, 3};
  const ExactPairResult exact = solve_exact_pair(a, b);

  std::vector<std::unique_ptr<mac::BackoffEntity>> entities;
  entities.push_back(std::make_unique<mac::Backoff1901>(
      a, des::RandomStream(11)));
  entities.push_back(std::make_unique<mac::Backoff1901>(
      b, des::RandomStream(22)));
  sim::SlotSimulator simulator(std::move(entities), kTiming);
  simulator.enable_winner_trace(true);
  const sim::SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(200.0));

  EXPECT_NEAR(exact.collision_probability,
              results.collision_probability(), 0.01);
  const double share_a =
      static_cast<double>(results.tx_success[0]) /
      static_cast<double>(results.successes);
  EXPECT_NEAR(exact.success_share_a(), share_a, 0.02);
}

// --- Heterogeneous decoupling model ------------------------------------------------------------

TEST(Heterogeneous, SingleClassMatchesHomogeneousModel) {
  const HeterogeneousResult mixed =
      solve_heterogeneous({{kCa1, 5}});
  const Model1901Result homogeneous = solve_1901(5, kCa1);
  ASSERT_TRUE(mixed.converged);
  EXPECT_NEAR(mixed.classes[0].tau, homogeneous.tau, 1e-9);
  EXPECT_NEAR(mixed.classes[0].gamma, homogeneous.gamma, 1e-9);
  EXPECT_NEAR(mixed.p_success, homogeneous.p_success, 1e-9);
  EXPECT_NEAR(mixed.classes[0].success_share, 1.0, 1e-12);
  EXPECT_NEAR(mixed.classes[0].per_station_share, 0.2, 1e-12);
}

TEST(Heterogeneous, SingleStationHasNoCollisions) {
  const HeterogeneousResult result = solve_heterogeneous({{kCa1, 1}});
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.classes[0].gamma, 0.0);
  EXPECT_DOUBLE_EQ(result.p_collision, 0.0);
}

TEST(Heterogeneous, GreedyClassTakesMoreThanItsFairShare) {
  mac::BackoffConfig greedy;
  greedy.cw = {4, 8};
  greedy.dc = {3, 7};  // d >= CW-1: deferral effectively disabled.
  const HeterogeneousResult result =
      solve_heterogeneous({{greedy, 1}, {kCa1, 4}});
  ASSERT_TRUE(result.converged);
  // 5 stations, fair per-station share 0.2.
  EXPECT_GT(result.classes[0].per_station_share, 0.3);
  EXPECT_LT(result.classes[1].per_station_share, 0.2);
  double share_sum = 0.0;
  for (const ClassResult& c : result.classes) share_sum += c.success_share;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(Heterogeneous, SharesMatchMixedSimulation) {
  mac::BackoffConfig greedy;
  greedy.cw = {4, 8};
  greedy.dc = {3, 7};
  const HeterogeneousResult model =
      solve_heterogeneous({{greedy, 1}, {kCa1, 4}});

  des::RandomStream root(0x4E7);
  std::vector<std::unique_ptr<mac::BackoffEntity>> entities;
  entities.push_back(std::make_unique<mac::Backoff1901>(
      greedy, des::RandomStream(root.derive_seed("greedy"))));
  for (int i = 0; i < 4; ++i) {
    entities.push_back(std::make_unique<mac::Backoff1901>(
        kCa1,
        des::RandomStream(root.derive_seed("d" + std::to_string(i)))));
  }
  sim::SlotSimulator simulator(std::move(entities), kTiming);
  const sim::SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(120.0));
  const double greedy_share =
      static_cast<double>(results.tx_success[0]) /
      static_cast<double>(results.successes);
  // Decoupling error is larger in heterogeneous settings; the *ordering*
  // and rough magnitude must hold.
  EXPECT_NEAR(model.classes[0].success_share, greedy_share, 0.12);
  EXPECT_GT(model.classes[0].success_share, 0.3);
  EXPECT_GT(greedy_share, 0.3);
}

TEST(Heterogeneous, ValidatesInput) {
  EXPECT_THROW(solve_heterogeneous({}), plc::Error);
  EXPECT_THROW(solve_heterogeneous({{kCa1, 0}}), plc::Error);
}

// --- Unsaturated delay model -------------------------------------------------------------------

TEST(DelayModel, SaturationRateMatchesSaturatedModel) {
  const double capacity =
      saturation_rate_fps(5, kCa1, kTiming, kFrame);
  const Model1901Result saturated = solve_1901(5, kCa1);
  EXPECT_NEAR(capacity, saturated.success_rate_per_second(kTiming, kFrame) / 5.0,
              1e-9);
  EXPECT_GT(capacity, 10.0);
  EXPECT_LT(capacity, 1000.0);
}

TEST(DelayModel, SingleStationLowLoadIsServiceTime) {
  // N = 1, light load: sojourn ~ E[S] = E[BC] slots + Ts.
  const double capacity = saturation_rate_fps(1, kCa1, kTiming, kFrame);
  const DelayModelResult model =
      access_delay(1, kCa1, kTiming, kFrame, 0.05 * capacity);
  const double expected_service = (3.5 * 35.84 + 2542.64) * 1e-6;
  EXPECT_NEAR(model.mean_service_s, expected_service, 1e-6);
  EXPECT_NEAR(model.mean_sojourn_s, expected_service, 0.2e-3);
  EXPECT_TRUE(model.stable);
}

TEST(DelayModel, SojournGrowsWithLoadAndDiverges) {
  const double capacity = saturation_rate_fps(5, kCa1, kTiming, kFrame);
  double previous = 0.0;
  for (const double load : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const DelayModelResult model =
        access_delay(5, kCa1, kTiming, kFrame, load * capacity);
    EXPECT_GT(model.mean_sojourn_s, previous);
    previous = model.mean_sojourn_s;
  }
  const DelayModelResult overloaded =
      access_delay(5, kCa1, kTiming, kFrame, 3.0 * capacity);
  EXPECT_FALSE(overloaded.stable);
  EXPECT_TRUE(std::isinf(overloaded.mean_sojourn_s));
}

TEST(DelayModel, MatchesSimulationAtSingleStation) {
  const double capacity = saturation_rate_fps(1, kCa1, kTiming, kFrame);
  for (const double load : {0.2, 0.5, 0.8}) {
    const DelayModelResult model =
        access_delay(1, kCa1, kTiming, kFrame, load * capacity);
    sim::PoissonMacSpec spec;
    spec.stations = 1;
    spec.arrival_rate_fps = load * capacity;
    spec.duration = des::SimTime::from_seconds(120.0);
    const sim::PoissonMacResult simulated = sim::run_poisson_mac(spec);
    EXPECT_NEAR(model.mean_sojourn_s, simulated.mean_delay_s,
                0.15 * simulated.mean_delay_s)
        << "load=" << load;
  }
}

TEST(DelayModel, TracksSimulationUnderContention) {
  const double capacity = saturation_rate_fps(5, kCa1, kTiming, kFrame);
  for (const double load : {0.3, 0.8}) {
    const DelayModelResult model =
        access_delay(5, kCa1, kTiming, kFrame, load * capacity);
    sim::PoissonMacSpec spec;
    spec.stations = 5;
    spec.arrival_rate_fps = load * capacity;
    spec.duration = des::SimTime::from_seconds(120.0);
    const sim::PoissonMacResult simulated = sim::run_poisson_mac(spec);
    // Open-loop approximation: generous bound, tight enough to catch
    // regressions (ratio within [0.6, 1.6]).
    EXPECT_GT(model.mean_sojourn_s, 0.6 * simulated.mean_delay_s)
        << "load=" << load;
    EXPECT_LT(model.mean_sojourn_s, 1.6 * simulated.mean_delay_s)
        << "load=" << load;
  }
}

TEST(DelayModel, RejectsBadArguments) {
  EXPECT_THROW(access_delay(0, kCa1, kTiming, kFrame, 10.0), plc::Error);
  EXPECT_THROW(access_delay(2, kCa1, kTiming, kFrame, 0.0), plc::Error);
  EXPECT_THROW(solve_1901_continuous(0.5, kCa1), plc::Error);
}

TEST(PoissonMacSim, ThroughputEqualsOfferedLoadWhenStable) {
  sim::PoissonMacSpec spec;
  spec.stations = 3;
  spec.arrival_rate_fps = 30.0;
  spec.duration = des::SimTime::from_seconds(60.0);
  const sim::PoissonMacResult result = sim::run_poisson_mac(spec);
  EXPECT_NEAR(result.throughput_fps, 90.0, 5.0);
  EXPECT_LT(result.backlog_at_end, 10u);
  EXPECT_GT(result.p99_delay_s, result.p50_delay_s);
  EXPECT_GE(result.frames_generated,
            result.frames_delivered);
}

// --- Optimizer ("boosting") -------------------------------------------------------------------

TEST(Optimizer, RanksByThroughput) {
  const auto scores =
      rank_configurations(10, kTiming, kFrame, default_candidate_pool());
  ASSERT_GT(scores.size(), 3u);
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_GE(scores[i - 1].throughput, scores[i].throughput);
  }
}

TEST(Optimizer, SomeCandidateBeatsDefaultAtLargeN) {
  // The "boosting" premise: at high contention, the default Table 1
  // configuration is not throughput-optimal.
  const auto scores =
      rank_configurations(30, kTiming, kFrame, default_candidate_pool());
  double default_throughput = 0.0;
  for (const CandidateScore& score : scores) {
    if (score.config.name == "CA0/CA1") {
      default_throughput = score.throughput;
    }
  }
  ASSERT_GT(default_throughput, 0.0);
  EXPECT_GT(scores.front().throughput, default_throughput * 1.02);
}

TEST(Optimizer, BestUniformWindowGrowsWithN) {
  const CandidateScore few = best_uniform_window(2, kTiming, kFrame);
  const CandidateScore many = best_uniform_window(30, kTiming, kFrame);
  ASSERT_EQ(few.config.cw.size(), 1u);
  ASSERT_EQ(many.config.cw.size(), 1u);
  EXPECT_GT(many.config.cw[0], few.config.cw[0]);
}

TEST(Optimizer, BestUniformWindowMatchesOracle) {
  // The chosen window feeds boosted-cw's canonical spec and so its store
  // key: it must be exactly the oracle's.
  for (int n = 1; n <= 64; ++n) {
    EXPECT_EQ(best_uniform_window(n, kTiming, kFrame).config.cw[0],
              oracle::best_uniform_window(n))
        << "n=" << n;
  }
}

TEST(Optimizer, BestUniformWindowPredictionValidatedBySimulation) {
  const CandidateScore best = best_uniform_window(10, kTiming, kFrame);
  const sim::Sim1901Result simulated = sim::sim_1901(
      10, 3e7, 2920.64, 2542.64, 2050.0, best.config.cw, best.config.dc);
  EXPECT_NEAR(best.throughput, simulated.normalized_throughput, 0.03);
}

}  // namespace
}  // namespace plc::analysis
