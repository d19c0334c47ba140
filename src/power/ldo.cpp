#include "ldo.hpp"

#include <algorithm>
#include <cmath>

namespace blitz::power {

Ldo::Ldo(const LdoConfig &cfg)
    : cfg_(cfg), codes_(1 << cfg.codeBits), voltage_(cfg.vMin)
{
    if (cfg_.vMax <= cfg_.vMin)
        sim::fatal("LDO voltage range is empty");
    if (cfg_.codeBits < 1 || cfg_.codeBits > 16)
        sim::fatal("LDO code width out of range: ", cfg_.codeBits);
    if (cfg_.slewVPerUs <= 0.0)
        sim::fatal("LDO slew rate must be positive");
}

void
Ldo::setCode(int code)
{
    code_ = std::clamp(code, 0, codes_ - 1);
}

double
Ldo::voltageForCode(int code) const
{
    code = std::clamp(code, 0, codes_ - 1);
    return cfg_.vMin + (cfg_.vMax - cfg_.vMin) *
           static_cast<double>(code) / static_cast<double>(codes_ - 1);
}

void
Ldo::step(double dtNs)
{
    const double target = voltageForCode(code_);
    const double max_move = cfg_.slewVPerUs * dtNs * 1e-3;
    const double delta = target - voltage_;
    if (std::abs(delta) <= max_move) {
        voltage_ = target;
    } else {
        voltage_ += delta > 0 ? max_move : -max_move;
    }
}

} // namespace blitz::power
