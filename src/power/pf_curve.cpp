#include "pf_curve.hpp"

#include <algorithm>
#include <cmath>

#include "sim/logging.hpp"

namespace blitz::power {

PfCurve::PfCurve(std::string name, std::vector<OpPoint> points,
                 double idleFraction)
    : name_(std::move(name)), points_(std::move(points))
{
    if (points_.empty())
        sim::fatal("PfCurve '", name_, "' has no operating points");
    std::sort(points_.begin(), points_.end(),
              [](const OpPoint &a, const OpPoint &b) {
                  return a.freqMhz < b.freqMhz;
              });
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].freqMhz <= points_[i - 1].freqMhz ||
            points_[i].powerMw <= points_[i - 1].powerMw ||
            points_[i].voltage < points_[i - 1].voltage) {
            sim::fatal("PfCurve '", name_,
                       "' operating points are not monotone");
        }
    }
    if (idleFraction <= 0.0 || idleFraction > 1.0)
        sim::fatal("PfCurve '", name_, "' idle fraction out of (0, 1]");
    pIdle_ = points_.front().powerMw * idleFraction;
}

double
PfCurve::powerAt(double freqMhz) const
{
    BLITZ_ASSERT(freqMhz >= 0.0 && freqMhz <= fMax() + 1e-9,
                 "frequency ", freqMhz, " MHz outside curve '", name_, "'");
    const OpPoint &lo = points_.front();
    if (freqMhz <= lo.freqMhz) {
        // Frequency scaling at minimum voltage: power falls linearly
        // from P(Fmin) to the idle floor as the clock slows to zero.
        double frac = freqMhz / lo.freqMhz;
        return pIdle_ + (lo.powerMw - pIdle_) * frac;
    }
    for (std::size_t i = 1; i < points_.size(); ++i) {
        const OpPoint &a = points_[i - 1];
        const OpPoint &b = points_[i];
        if (freqMhz <= b.freqMhz) {
            double t = (freqMhz - a.freqMhz) / (b.freqMhz - a.freqMhz);
            return a.powerMw + t * (b.powerMw - a.powerMw);
        }
    }
    return points_.back().powerMw;
}

double
PfCurve::freqForPower(double budgetMw) const
{
    if (budgetMw <= pIdle_)
        return 0.0;
    const OpPoint &lo = points_.front();
    if (budgetMw <= lo.powerMw) {
        return lo.freqMhz * (budgetMw - pIdle_) / (lo.powerMw - pIdle_);
    }
    for (std::size_t i = 1; i < points_.size(); ++i) {
        const OpPoint &a = points_[i - 1];
        const OpPoint &b = points_[i];
        if (budgetMw <= b.powerMw) {
            double t = (budgetMw - a.powerMw) / (b.powerMw - a.powerMw);
            return a.freqMhz + t * (b.freqMhz - a.freqMhz);
        }
    }
    return fMax();
}

namespace catalog {
namespace {

/**
 * Build a curve from the analytic model described in the header:
 * F(V) linear above the threshold voltage, P = dynamic + leakage with
 * an 85/15 split at the peak point.
 */
PfCurve
makeCurve(const std::string &name, double v_min, double v_max,
          double f_max_mhz, double p_max_mw, int n_points = 6)
{
    constexpr double v_t = 0.30; // critical-path threshold voltage
    const double p_dyn_max = 0.85 * p_max_mw;
    const double p_leak_max = 0.15 * p_max_mw;

    std::vector<OpPoint> pts;
    pts.reserve(static_cast<std::size_t>(n_points));
    for (int i = 0; i < n_points; ++i) {
        double v = v_min + (v_max - v_min) * i /
                   static_cast<double>(n_points - 1);
        double f = f_max_mhz * (v - v_t) / (v_max - v_t);
        double p = p_dyn_max * (v / v_max) * (v / v_max) * (f / f_max_mhz) +
                   p_leak_max * (v / v_max);
        pts.push_back(OpPoint{v, f, p});
    }
    return PfCurve(name, std::move(pts));
}

} // namespace

// 3x3 autonomous-vehicle SoC tiles (ASIC-measured in the paper).
// Peak powers sum to 3*55 + 2*27.5 + 180 = 400 mW across the SoC.
const PfCurve &
fft()
{
    static const PfCurve curve = makeCurve("FFT", 0.5, 1.0, 800.0, 55.0);
    return curve;
}

const PfCurve &
viterbi()
{
    static const PfCurve curve =
        makeCurve("Viterbi", 0.5, 1.0, 800.0, 27.5);
    return curve;
}

const PfCurve &
nvdla()
{
    static const PfCurve curve =
        makeCurve("NVDLA", 0.6, 1.0, 900.0, 180.0);
    return curve;
}

// 4x4 computer-vision SoC tiles (Cadence Joules in the paper).
// Peak powers sum to 4*140 + 5*115 + 4*55 = 1355 mW across the SoC.
const PfCurve &
gemm()
{
    static const PfCurve curve =
        makeCurve("GEMM", 0.6, 0.9, 1000.0, 140.0);
    return curve;
}

const PfCurve &
conv2d()
{
    static const PfCurve curve =
        makeCurve("Conv2D", 0.6, 0.9, 1000.0, 115.0);
    return curve;
}

const PfCurve &
vision()
{
    static const PfCurve curve =
        makeCurve("Vision", 0.6, 0.9, 850.0, 55.0);
    return curve;
}

std::vector<const PfCurve *>
all()
{
    return {&fft(), &viterbi(), &nvdla(), &gemm(), &conv2d(), &vision()};
}

} // namespace catalog

} // namespace blitz::power
