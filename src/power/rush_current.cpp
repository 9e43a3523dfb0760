#include "power/rush_current.hpp"

#include <cmath>

#include "util/error.hpp"

namespace retscan {

namespace {
// Effective impedance coupling the power-gated domain's inrush current onto
// the always-on rail that feeds the retention latches (shared package /
// grid impedance). The engineering model used by the rush-current
// literature the paper cites: droop is proportional to the peak inrush
// current through this shared impedance.
constexpr double kSharedImpedanceOhm = 0.35;
constexpr double kNsToS = 1e-9;
}  // namespace

RushCurrentModel::RushCurrentModel(const RushParameters& params) : params_(params) {
  RETSCAN_CHECK(params_.resistance_ohm > 0 && params_.inductance_nh > 0 &&
                    params_.capacitance_nf > 0 && params_.vdd_volts > 0,
                "RushCurrentModel: parameters must be positive");
  RETSCAN_CHECK(params_.stagger_stages >= 1, "RushCurrentModel: stagger_stages >= 1");
  const double l = params_.inductance_nh * 1e-9;
  const double c = params_.capacitance_nf * 1e-9;
  omega0_ = 1.0 / std::sqrt(l * c);
  zeta_ = params_.resistance_ohm / 2.0 * std::sqrt(c / l);
}

double RushCurrentModel::domain_voltage(double t_ns) const {
  const double t = t_ns * kNsToS;
  if (t <= 0) {
    return 0.0;
  }
  const double v = params_.vdd_volts;
  const double a = zeta_ * omega0_;
  if (underdamped()) {
    const double wd = omega0_ * std::sqrt(1.0 - zeta_ * zeta_);
    return v * (1.0 - std::exp(-a * t) *
                          (std::cos(wd * t) + a / wd * std::sin(wd * t)));
  }
  // Critically/over-damped closed form.
  const double s = omega0_ * std::sqrt(std::max(zeta_ * zeta_ - 1.0, 1e-12));
  const double s1 = -a + s;
  const double s2 = -a - s;
  return v * (1.0 - (s2 * std::exp(s1 * t) - s1 * std::exp(s2 * t)) / (s2 - s1));
}

double RushCurrentModel::inrush_current(double t_ns) const {
  const double t = t_ns * kNsToS;
  if (t <= 0) {
    return 0.0;
  }
  const double c = params_.capacitance_nf * 1e-9;
  const double v = params_.vdd_volts;
  const double a = zeta_ * omega0_;
  // i = C dV/dt.
  if (underdamped()) {
    const double wd = omega0_ * std::sqrt(1.0 - zeta_ * zeta_);
    const double amplitude = v * (a * a + wd * wd) / wd;
    return c * amplitude * std::exp(-a * t) * std::sin(wd * t);
  }
  const double s = omega0_ * std::sqrt(std::max(zeta_ * zeta_ - 1.0, 1e-12));
  const double s1 = -a + s;
  const double s2 = -a - s;
  return c * v * s1 * s2 / (s2 - s1) * (std::exp(s2 * t) - std::exp(s1 * t));
}

double RushCurrentModel::peak_current() const {
  // Sample the first few natural periods densely.
  const double horizon_ns = 8.0 * 2.0 * M_PI / omega0_ * 1e9;
  double peak = 0.0;
  for (int i = 1; i <= 4000; ++i) {
    const double t_ns = horizon_ns * i / 4000.0;
    peak = std::max(peak, std::abs(inrush_current(t_ns)));
  }
  return peak / static_cast<double>(params_.stagger_stages);
}

double RushCurrentModel::peak_droop() const {
  // Droop seen by the always-on rail: the inrush current flowing through
  // the shared package/grid impedance. Proportional-to-current is the
  // standard ground-bounce engineering model ([7]): more damping (bigger
  // switch resistance, ref [7]'s gate-voltage control) means a smaller
  // current peak and a smaller droop.
  return kSharedImpedanceOhm * peak_current();
}

double RushCurrentModel::settle_time_ns(double tolerance) const {
  RETSCAN_CHECK(tolerance > 0 && tolerance < 1, "settle_time_ns: bad tolerance");
  const double horizon_ns = 16.0 * 2.0 * M_PI / omega0_ * 1e9;
  const double band = tolerance * params_.vdd_volts;
  double last_violation = 0.0;
  for (int i = 1; i <= 8000; ++i) {
    const double t_ns = horizon_ns * i / 8000.0;
    if (std::abs(domain_voltage(t_ns) - params_.vdd_volts) > band) {
      last_violation = t_ns;
    }
  }
  // Staggering stretches wake-up roughly linearly while taming the peak.
  return last_violation * static_cast<double>(params_.stagger_stages);
}

}  // namespace retscan
