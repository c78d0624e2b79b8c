// Decoupling-assumption model of the IEEE 1901 CSMA/CA backoff — the
// "Analysis" curve of the paper's Figure 2 (reference [5]: Vlachou,
// Banchs, Herzen, Thiran, "On the MAC for Power-Line Communications:
// Modeling Assumptions and Performance Tradeoffs", ICNP 2014).
//
// Model. N saturated stations; the medium evolves in events (idle slot /
// success / collision). Under the decoupling assumption, a tagged station
// sees every event busy independently with probability
//      p = 1 - (1 - tau)^(N-1),
// where tau is the per-event transmission probability of a station. Given
// p, stage i (window CW_i, deferral d_i) behaves as follows for an initial
// backoff draw b ~ U{0..CW_i-1}:
//   - the station transmits iff fewer than d_i + 1 of its b countdown
//     events are busy:  P(tx | b) = P(Bin(b, p) <= d_i);
//   - otherwise it jumps to stage i+1 at the (d_i+1)-th busy event.
// Exact per-stage quantities are averages of the binomial CDF sequence
// F_b = P(Bin(b, p) <= d_i) over b, built in one incremental pass over the
// pmf row (O(CW_i * d_i) multiply-adds; closed forms once d_i >= CW_i - 1):
//   x_i = attempt probability, S_i = expected countdown events per visit.
// A renewal cycle (success to success) visits stages 0,1,... with the
// last stage self-looping; tau = E[attempts]/E[events] over the cycle, and
// the fixed point in tau is found by bisection (the map is monotone).
//
// Outputs mirror the simulator's estimators: the collision probability
// gamma = p (which equals the paper's sum(Ci)/sum(Ai) estimator in
// stationarity) and the normalized throughput
//   Nt * tau(1-tau)^(N-1) * frame / (P_idle*slot + P_succ*Ts + P_coll*Tc).
#pragma once

#include <vector>

#include "des/time.hpp"
#include "mac/config.hpp"
#include "phy/timing.hpp"

namespace plc::analysis {

/// Per-stage quantities at a given busy probability p.
struct StageMetrics {
  double attempt_probability = 0.0;   ///< x_i.
  double expected_countdown = 0.0;    ///< S_i (events, excluding own tx).
  double expected_visits = 0.0;       ///< e_i per renewal cycle.
};

/// Solution of the fixed point.
struct Model1901Result {
  double tau = 0.0;          ///< Per-event transmission probability.
  double gamma = 0.0;        ///< Collision probability given transmission.
  double busy_probability = 0.0;  ///< p seen by a tagged station (= gamma).
  double p_idle = 0.0;       ///< P(event is an idle slot).
  double p_success = 0.0;    ///< P(event is a success).
  double p_collision = 0.0;  ///< P(event is a collision).
  std::vector<StageMetrics> stages;

  /// Normalized throughput for the given timing (the simulator's
  /// succ*frame/t in expectation).
  double normalized_throughput(const phy::TimingConfig& timing,
                               des::SimTime frame_length) const;

  /// Expected successful exchanges per second.
  double success_rate_per_second(const phy::TimingConfig& timing,
                                 des::SimTime frame_length) const;
};

/// Solves the decoupling model for N saturated 1901 stations.
///
/// N = 1 is handled exactly (p = 0, no collisions).
Model1901Result solve_1901(int n, const mac::BackoffConfig& config);

/// Continuous relaxation: a real-valued effective station count
/// n_effective >= 1, with p = 1 - (1-tau)^(n_effective - 1). Used by the
/// unsaturated delay model, where the expected number of *backlogged*
/// competitors is fractional.
Model1901Result solve_1901_continuous(double n_effective,
                                      const mac::BackoffConfig& config);

/// The per-stage attempt probability x_i(p): average over b of
/// P(Bin(b, p) <= d_i). Exposed for tests and the drift model.
double stage_attempt_probability(int cw, int dc, double p);

/// The renewal-cycle transmission probability tau of a station whose
/// every countdown event is busy independently with probability p.
/// Exposed for the heterogeneous model.
double transmission_probability_given_busy(const mac::BackoffConfig& config,
                                           double p);

/// The per-stage expected countdown events S_i(p). Exposed for tests and
/// the drift model.
double stage_expected_countdown(int cw, int dc, double p);

}  // namespace plc::analysis
