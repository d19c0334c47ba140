#include "rail.hpp"

#include "sim/logging.hpp"

namespace blitz::power {

RailSet::RailSet(std::size_t tiles) : railOfTile_(tiles, -1) {}

std::size_t
RailSet::addRail(const RailConfig &cfg)
{
    BLITZ_ASSERT(cfg.vNominal > 0.0, "rail needs a positive voltage");
    BLITZ_ASSERT(cfg.limitMa > 0.0, "rail needs a positive limit");
    BLITZ_ASSERT(cfg.releaseFraction > 0.0 && cfg.releaseFraction <= 1.0,
                 "release fraction outside (0, 1]");
    Rail r;
    r.cfg = cfg;
    rails_.push_back(r);
    return rails_.size() - 1;
}

void
RailSet::assignTile(std::size_t rail, std::size_t tile)
{
    BLITZ_ASSERT(rail < rails_.size(), "rail ", rail, " out of range");
    BLITZ_ASSERT(tile < railOfTile_.size(), "tile ", tile,
                 " out of range");
    BLITZ_ASSERT(railOfTile_[tile] < 0, "tile ", tile,
                 " already feeds from rail ", railOfTile_[tile]);
    railOfTile_[tile] = static_cast<std::int32_t>(rail);
}

void
RailSet::update(const double *powerMw)
{
    for (Rail &r : rails_) {
        r.currentMa = 0.0;
        r.edge = RailEdge::None;
    }
    const std::size_t n = railOfTile_.size();
    for (std::size_t t = 0; t < n; ++t) {
        const std::int32_t r = railOfTile_[t];
        if (r < 0)
            continue;
        // P (mW) / V (V) = I (mA).
        rails_[static_cast<std::size_t>(r)].currentMa +=
            powerMw[t] / rails_[static_cast<std::size_t>(r)].cfg.vNominal;
    }
    for (Rail &r : rails_) {
        if (r.currentMa > r.peakMa)
            r.peakMa = r.currentMa;
        if (!r.over && r.currentMa >= r.cfg.limitMa) {
            r.over = true;
            r.edge = RailEdge::Engaged;
            ++r.engages;
        } else if (r.over &&
                   r.currentMa <= r.cfg.releaseFraction * r.cfg.limitMa) {
            r.over = false;
            r.edge = RailEdge::Released;
        }
    }
}

double
RailSet::maxLoadFraction() const
{
    double m = 0.0;
    for (const Rail &r : rails_) {
        const double f = r.currentMa / r.cfg.limitMa;
        if (f > m)
            m = f;
    }
    return m;
}

} // namespace blitz::power
