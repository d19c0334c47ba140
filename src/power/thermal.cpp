#include "thermal.hpp"

#include "sim/logging.hpp"

namespace blitz::power {

ThermalModel::ThermalModel(std::size_t tiles, const ThermalConfig &cfg)
    : cfg_(cfg), params_(tiles, cfg.node), temp_(tiles, cfg.initialC),
      ddt_(tiles, 0.0)
{
}

void
ThermalModel::setParams(std::size_t tile, const ThermalNodeParams &p)
{
    BLITZ_ASSERT(tile < params_.size(), "thermal tile ", tile,
                 " out of range");
    BLITZ_ASSERT(p.rCPerW > 0.0 && p.cJPerC > 0.0,
                 "thermal RC parameters must be positive");
    params_[tile] = p;
}

void
ThermalModel::addCoupling(std::size_t a, std::size_t b, double gWPerC)
{
    BLITZ_ASSERT(a < temp_.size() && b < temp_.size() && a != b,
                 "thermal coupling endpoints out of range");
    BLITZ_ASSERT(gWPerC >= 0.0, "negative thermal conductance");
    if (gWPerC == 0.0)
        return;
    couplings_.push_back({static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(b), gWPerC});
}

void
ThermalModel::step(double dtNs, const double *powerMw)
{
    const double dtS = dtNs * 1e-9;
    const std::size_t n = temp_.size();
    // Self-heating and junction-to-ambient decay.
    for (std::size_t i = 0; i < n; ++i) {
        const ThermalNodeParams &p = params_[i];
        const double watts = powerMw[i] * 1e-3;
        ddt_[i] = (watts + (cfg_.ambientC - temp_[i]) / p.rCPerW) /
                  p.cJPerC;
    }
    // Lateral spreading: conductance * delta-T, hot to cold.
    for (const Coupling &c : couplings_) {
        const double flowW = c.gWPerC * (temp_[c.a] - temp_[c.b]);
        ddt_[c.a] -= flowW / params_[c.a].cJPerC;
        ddt_[c.b] += flowW / params_[c.b].cJPerC;
    }
    for (std::size_t i = 0; i < n; ++i)
        temp_[i] += ddt_[i] * dtS;
    ++steps_;
}

double
ThermalModel::maxC() const
{
    double m = cfg_.ambientC;
    for (double t : temp_)
        m = t > m ? t : m;
    return m;
}

double
ThermalModel::meanC() const
{
    if (temp_.empty())
        return cfg_.ambientC;
    double sum = 0.0;
    for (double t : temp_)
        sum += t;
    return sum / static_cast<double>(temp_.size());
}

void
ThermalModel::reset(double tC)
{
    for (double &t : temp_)
        t = tC;
}

} // namespace blitz::power
