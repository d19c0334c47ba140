#include "throttler.hpp"

#include <algorithm>
#include <cmath>

#include "config.hpp"
#include "record/recorder.hpp"
#include "sim/logging.hpp"
#include "tile.hpp"
#include "trace/health.hpp"

namespace blitz::soc {

// ---------------------------------------------------------------- arbiter

ThrottleArbiter::ThrottleArbiter(std::size_t tiles)
{
    Slots s;
    s.cap.fill(kUncappedMhz);
    s.effective = kUncappedMhz;
    slots_.assign(tiles, s);
}

double
ThrottleArbiter::recompute(const Slots &s)
{
    double eff = kUncappedMhz;
    for (double c : s.cap)
        eff = c < eff ? c : eff;
    return eff;
}

bool
ThrottleArbiter::set(std::size_t tile, ThrottleSource src, double capMhz)
{
    BLITZ_ASSERT(tile < slots_.size(), "throttle tile out of range");
    BLITZ_ASSERT(std::isfinite(capMhz) && capMhz >= 0.0,
                 "a throttle cap must be a finite frequency");
    Slots &s = slots_[tile];
    double &slot = s.cap[static_cast<std::size_t>(src)];
    if (slot == kUncappedMhz)
        ++engages_;
    else if (slot != capMhz)
        ++updates_;
    slot = capMhz;
    const double eff = recompute(s);
    const bool changed = eff != s.effective;
    s.effective = eff;
    return changed;
}

bool
ThrottleArbiter::clear(std::size_t tile, ThrottleSource src)
{
    BLITZ_ASSERT(tile < slots_.size(), "throttle tile out of range");
    Slots &s = slots_[tile];
    double &slot = s.cap[static_cast<std::size_t>(src)];
    if (slot == kUncappedMhz)
        return false;
    slot = kUncappedMhz;
    ++releases_;
    const double eff = recompute(s);
    const bool changed = eff != s.effective;
    s.effective = eff;
    return changed;
}

unsigned
ThrottleArbiter::activeMask(std::size_t tile) const
{
    unsigned mask = 0;
    const Slots &s = slots_[tile];
    for (std::size_t i = 0; i < kThrottleSourceCount; ++i) {
        if (s.cap[i] != kUncappedMhz)
            mask |= 1u << i;
    }
    return mask;
}

std::size_t
ThrottleArbiter::throttledCount() const
{
    std::size_t n = 0;
    for (const Slots &s : slots_)
        n += s.effective != kUncappedMhz ? 1 : 0;
    return n;
}

// ----------------------------------------------------------------- plane

PhysicsPlane::PhysicsPlane(PhysicsConfig cfg) : cfg_(std::move(cfg))
{
    BLITZ_ASSERT(cfg_.trip.releaseC <= cfg_.trip.tripC,
                 "thermal release above the trip point");
    BLITZ_ASSERT(cfg_.trip.capFraction > 0.0 &&
                     cfg_.trip.capFraction <= 1.0,
                 "thermal cap fraction outside (0, 1]");
}

PhysicsPlane::~PhysicsPlane() = default;

void
PhysicsPlane::bind(const SocConfig &cfg,
                   const std::vector<AcceleratorTile *> &tilesByNode)
{
    BLITZ_ASSERT(!bound(), "the physics plane is already bound");
    tiles_ = tilesByNode;
    const std::size_t nodes = tiles_.size();
    fMaxMhz_.assign(nodes, 0.0);
    powerMw_.assign(nodes, 0.0);
    accels_.clear();
    for (std::size_t id = 0; id < nodes; ++id) {
        if (!tiles_[id])
            continue;
        accels_.push_back(id);
        fMaxMhz_[id] = tiles_[id]->curve().fMax();
    }

    thermal_ = std::make_unique<power::ThermalModel>(nodes, cfg_.thermal);
    peakTempC_ = cfg_.thermal.initialC;
    if (cfg_.neighborCouplingWPerC > 0.0) {
        // Substrate spreading between mesh-adjacent accelerators:
        // right and down from each node covers every edge once.
        for (std::size_t id : accels_) {
            const std::size_t x = id % static_cast<std::size_t>(cfg.width);
            const std::size_t right = id + 1;
            const std::size_t down =
                id + static_cast<std::size_t>(cfg.width);
            if (x + 1 < static_cast<std::size_t>(cfg.width) &&
                tiles_[right])
                thermal_->addCoupling(id, right,
                                      cfg_.neighborCouplingWPerC);
            if (down < nodes && tiles_[down])
                thermal_->addCoupling(id, down,
                                      cfg_.neighborCouplingWPerC);
        }
    }
    for (const ThermalCouplingSpec &c : cfg_.couplings)
        thermal_->addCoupling(c.a, c.b, c.gWPerC);

    rails_ = std::make_unique<power::RailSet>(nodes);
    railTiles_.clear();
    for (const RailSpec &spec : cfg_.rails) {
        const std::size_t r = rails_->addRail(spec.rail);
        railTiles_.emplace_back();
        const std::vector<noc::NodeId> *members = &spec.tiles;
        std::vector<noc::NodeId> everyAccel;
        if (members->empty()) {
            everyAccel.assign(accels_.begin(), accels_.end());
            members = &everyAccel;
        }
        for (noc::NodeId id : *members) {
            BLITZ_ASSERT(id < nodes && tiles_[id], "rail member ", id,
                         " is not an accelerator tile");
            rails_->assignTile(r, id);
            railTiles_.back().push_back(id);
        }
    }

    arbiter_ = std::make_unique<ThrottleArbiter>(nodes);
}

void
PhysicsPlane::journal(std::uint8_t event, ThrottleSource src,
                      std::size_t tile, double capMhz, sim::Tick now)
{
    if (!recorder_)
        return;
    recorder_->throttle(now, event,
                        static_cast<std::uint8_t>(src),
                        static_cast<std::int64_t>(tile), capMhz,
                        arbiter_->effectiveCapMhz(tile),
                        arbiter_->activeMask(tile));
}

void
PhysicsPlane::assertCap(std::size_t tile, ThrottleSource src,
                        double capMhz, sim::Tick now)
{
    const bool changed = arbiter_->set(tile, src, capMhz);
    if (changed)
        tiles_[tile]->setThrottleCapMhz(arbiter_->effectiveCapMhz(tile));
    journal(record::kThrottleEngage, src, tile, capMhz, now);
}

void
PhysicsPlane::releaseCap(std::size_t tile, ThrottleSource src,
                         sim::Tick now)
{
    const bool changed = arbiter_->clear(tile, src);
    if (changed)
        tiles_[tile]->setThrottleCapMhz(arbiter_->effectiveCapMhz(tile));
    journal(record::kThrottleRelease, src, tile, 0.0, now);
}

void
PhysicsPlane::step(double dtNs, sim::Tick now)
{
    BLITZ_ASSERT(bound(), "step on an unbound physics plane");

    // 1. Sample every tile's instantaneous power (the same Fig. 13
    //    reconstruction the power trace uses).
    totalMw_ = 0.0;
    for (std::size_t id : accels_) {
        const double p = tiles_[id]->powerMw();
        powerMw_[id] = p;
        totalMw_ += p;
    }

    // 2. Integrate the thermal network over the elapsed interval.
    thermal_->step(dtNs, powerMw_.data());
    const double hottest = thermal_->maxC();
    if (hottest > peakTempC_)
        peakTempC_ = hottest;

    // 3. Reconstruct rail currents and advance overcurrent latches.
    rails_->update(powerMw_.data());

    if (!cfg_.enforce) {
        // No caps can be asserted, but keep the residency bookkeeping
        // uniform so an observer-mode report reads all-zero instead of
        // missing.
        throttleResidency_ += arbiter_->throttledCount();
        ++stepCount_;
        return;
    }

    // 4. Per-tile thermal trips (hysteresis band tripC/releaseC).
    for (std::size_t id : accels_) {
        const double t = thermal_->temperatureC(id);
        const bool tripped = arbiter_->active(id, ThrottleSource::Thermal);
        if (!tripped && t >= cfg_.trip.tripC) {
            assertCap(id, ThrottleSource::Thermal,
                      cfg_.trip.capFraction * fMaxMhz_[id], now);
        } else if (tripped && t <= cfg_.trip.releaseC) {
            releaseCap(id, ThrottleSource::Thermal, now);
        }
    }

    // 5. Rail overcurrent: the latch edge fans out to member tiles.
    for (std::size_t r = 0; r < railTiles_.size(); ++r) {
        const power::RailEdge edge = rails_->edge(r);
        if (edge == power::RailEdge::None)
            continue;
        const RailSpec &spec = cfg_.rails[r];
        for (std::size_t id : railTiles_[r]) {
            if (edge == power::RailEdge::Engaged) {
                assertCap(id, ThrottleSource::Rail,
                          spec.capFraction * fMaxMhz_[id], now);
                if (spec.droopV > 0.0)
                    tiles_[id]->injectSupplyDroopV(spec.droopV);
            } else {
                releaseCap(id, ThrottleSource::Rail, now);
            }
        }
    }

    // 6. Board TDP over the total managed draw.
    if (cfg_.board.limitMw > 0.0) {
        if (!boardOver_ && totalMw_ >= cfg_.board.limitMw) {
            boardOver_ = true;
            for (std::size_t id : accels_)
                assertCap(id, ThrottleSource::BoardTdp,
                          cfg_.board.capFraction * fMaxMhz_[id], now);
        } else if (boardOver_ &&
                   totalMw_ <=
                       cfg_.board.releaseFraction * cfg_.board.limitMw) {
            boardOver_ = false;
            for (std::size_t id : accels_)
                releaseCap(id, ThrottleSource::BoardTdp, now);
        }
    }

    // 7. Residency: tile-steps spent under any cap and steps spent
    //    with the board latch engaged. Deterministic (pure function of
    //    the schedule), so HealthReport diffs catch a run whose
    //    throttle behavior drifted even when the final counters agree.
    throttleResidency_ += arbiter_->throttledCount();
    if (boardOver_)
        ++boardLatchResidency_;
    ++stepCount_;
}

void
PhysicsPlane::fillHealth(trace::HealthReport &report) const
{
    report.bumpDet("physics.steps", static_cast<double>(stepCount_));
    report.bumpDet("physics.throttle.residency",
                   static_cast<double>(throttleResidency_));
    report.bumpDet("physics.board.residency",
                   static_cast<double>(boardLatchResidency_));
    report.bumpDet("physics.throttle.engages",
                   static_cast<double>(arbiter_->engages()));
    report.bumpDet("physics.throttle.releases",
                   static_cast<double>(arbiter_->releases()));
    report.bumpDet("physics.throttle.updates",
                   static_cast<double>(arbiter_->updates()));
    report.maxDet("physics.peak_temp_c", peakTempC_);
    report.maxDet("physics.total_power_mw", totalMw_);
}

} // namespace blitz::soc
