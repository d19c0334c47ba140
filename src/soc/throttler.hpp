/**
 * @file
 * Throttler arbiter and physics plane.
 *
 * BlitzCoin decides where the power budget *should* go; physics
 * decides what the silicon *may* do. This file models the second
 * half, mirroring the dvfs/throttler/regulator split in shipping
 * accelerator firmware: independent limit sources (per-tile thermal
 * trip, per-rail overcurrent, board TDP) each assert a frequency cap,
 * and an arbiter combines them into one effective per-tile cap — the
 * minimum of all active sources — enforced *after* the coin
 * protocol's target through the AcceleratorTile::setThrottleCapMhz
 * funnel. Coins keep flowing while a tile is clamped: the protocol
 * plane never learns about the throttle, which is exactly the
 * adversarial scenario the paper skipped (does decentralized
 * allocation stay stable and coin-conserving while an external
 * limiter fights its targets?).
 *
 * The PhysicsPlane bundles the models (power::ThermalModel,
 * power::RailSet) with the arbiter and steps them on the SoC's
 * power-sampler cadence. It is a one-branch-when-detached observer in
 * the src/trace/ idiom: a Soc without an attached plane pays one null
 * check, and an attached plane with `enforce=false` integrates the
 * physics without ever touching a tile — bit-identical to a detached
 * run (pinned by golden_trace_test).
 *
 * Determinism: step() runs at sim::Priority::Stats, after the
 * tick's state updates, and visits tiles in a fixed order, so
 * throttle decisions are a pure function of the seed.
 */

#ifndef BLITZ_SOC_THROTTLER_HPP
#define BLITZ_SOC_THROTTLER_HPP

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "noc/topology.hpp"
#include "power/rail.hpp"
#include "power/thermal.hpp"
#include "sim/types.hpp"

namespace blitz::record {
class FlightRecorder;
}

namespace blitz::trace {
class HealthReport;
}

namespace blitz::soc {

class AcceleratorTile;
struct SocConfig;

/** Independent limit sources the arbiter combines. */
enum class ThrottleSource : std::uint8_t
{
    Thermal = 0,  ///< per-tile junction temperature trip
    Rail = 1,     ///< shared-rail overcurrent latch
    BoardTdp = 2, ///< whole-board power envelope
};

constexpr std::size_t kThrottleSourceCount = 3;

/** Sentinel cap meaning "source inactive / tile uncapped". */
constexpr double kUncappedMhz = std::numeric_limits<double>::infinity();

/**
 * Combines per-source frequency caps into one per-tile effective cap.
 *
 * Each (tile, source) slot holds a cap in MHz, kUncappedMhz when the
 * source is clear. The effective cap is the minimum over all slots —
 * min is order-free, so sources may engage and release in any
 * interleaving (LIFO, FIFO, arbitrary) and the arbiter lands on the
 * same answer; once every source clears, the effective cap is exactly
 * kUncappedMhz again (no stale caps). tests/throttler_test.cpp drives
 * randomized sequences against a brute-force model of this contract.
 *
 * All storage is sized at construction; set/clear are array writes
 * plus a 3-way min — zero-allocation (tests/alloc_count_test.cpp).
 */
class ThrottleArbiter
{
  public:
    explicit ThrottleArbiter(std::size_t tiles);

    std::size_t tiles() const { return slots_.size(); }

    /**
     * Assert @p capMhz from @p src on @p tile (engage or re-assert).
     * @return true when the tile's *effective* cap changed.
     */
    bool set(std::size_t tile, ThrottleSource src, double capMhz);

    /**
     * Release @p src on @p tile (no-op when already clear).
     * @return true when the tile's effective cap changed.
     */
    bool clear(std::size_t tile, ThrottleSource src);

    /** The cap @p src currently asserts (kUncappedMhz when clear). */
    double capMhz(std::size_t tile, ThrottleSource src) const
    {
        return slots_[tile].cap[static_cast<std::size_t>(src)];
    }

    bool active(std::size_t tile, ThrottleSource src) const
    {
        return capMhz(tile, src) != kUncappedMhz;
    }

    /** Minimum over all active sources; kUncappedMhz when none. */
    double effectiveCapMhz(std::size_t tile) const
    {
        return slots_[tile].effective;
    }

    bool throttled(std::size_t tile) const
    {
        return slots_[tile].effective != kUncappedMhz;
    }

    /** Bit i set = source i active on the tile. */
    unsigned activeMask(std::size_t tile) const;

    /** Tiles with at least one active source. */
    std::size_t throttledCount() const;

    /** Inactive-to-active slot transitions over the lifetime. */
    std::uint64_t engages() const { return engages_; }
    /** Active-to-inactive slot transitions over the lifetime. */
    std::uint64_t releases() const { return releases_; }
    /** Re-assertions of an already-active slot with a new cap. */
    std::uint64_t updates() const { return updates_; }

  private:
    struct Slots
    {
        std::array<double, kThrottleSourceCount> cap;
        double effective;
    };

    static double recompute(const Slots &s);

    std::vector<Slots> slots_;
    std::uint64_t engages_ = 0;
    std::uint64_t releases_ = 0;
    std::uint64_t updates_ = 0;
};

/** Per-tile thermal trip point (hysteresis pair + cap strength). */
struct ThermalTripConfig
{
    /** Engage the thermal cap at or above this junction temp (°C). */
    double tripC = 95.0;
    /** Release once the junction cools to this temp (°C). */
    double releaseC = 85.0;
    /** Cap = capFraction * the tile's Fmax while tripped. */
    double capFraction = 0.5;
};

/** One shared-rail limit source. */
struct RailSpec
{
    power::RailConfig rail{};
    /** Cap = capFraction * Fmax on every member tile while latched. */
    double capFraction = 0.6;
    /**
     * Supply droop (V) injected into every member tile's UVFR when
     * the latch engages — the brownout transient a sagging rail
     * delivers to its point-of-load regulators. 0 disables.
     */
    double droopV = 0.0;
    /** Member tiles; empty = every accelerator tile. */
    std::vector<noc::NodeId> tiles{};
};

/** Whole-board power envelope. */
struct BoardTdpConfig
{
    /** Engage at or above this total accelerator power (mW); 0 = off. */
    double limitMw = 0.0;
    /** Release once total power <= releaseFraction * limit. */
    double releaseFraction = 0.9;
    /** Cap = capFraction * Fmax on every tile while engaged. */
    double capFraction = 0.7;
};

/** Explicit lateral thermal conductance between two nodes. */
struct ThermalCouplingSpec
{
    noc::NodeId a = 0;
    noc::NodeId b = 0;
    double gWPerC = 0.0;
};

/** Everything the physics plane models. */
struct PhysicsConfig
{
    power::ThermalConfig thermal{};
    ThermalTripConfig trip{};
    /** Explicit couplings, applied on top of neighborCouplingWPerC. */
    std::vector<ThermalCouplingSpec> couplings{};
    /**
     * Conductance (W/°C) between every pair of mesh-adjacent
     * accelerator tiles — substrate heat spreading. 0 disables.
     */
    double neighborCouplingWPerC = 0.0;
    std::vector<RailSpec> rails{};
    BoardTdpConfig board{};
    /**
     * When false the plane integrates thermal/rail state and runs the
     * arbiter but never actuates a tile or journals a record — a pure
     * observer, pinned digest-identical to a detached run.
     */
    bool enforce = true;
};

/**
 * The physics plane: thermal RC + rails + arbiter, stepped on the
 * SoC power-sampler cadence. Construct with a config, attach via
 * Soc::attachPhysics() before run(); the plane must outlive the Soc.
 */
class PhysicsPlane
{
  public:
    explicit PhysicsPlane(PhysicsConfig cfg);
    ~PhysicsPlane();
    PhysicsPlane(const PhysicsPlane &) = delete;
    PhysicsPlane &operator=(const PhysicsPlane &) = delete;

    /**
     * Bind to a Soc's tile population (called by Soc::attachPhysics;
     * at most once). Sizes the thermal model and rails and resolves
     * every member list.
     */
    void bind(const SocConfig &cfg,
              const std::vector<AcceleratorTile *> &tilesByNode);

    bool bound() const { return !tiles_.empty(); }

    /** Journal throttle decisions (nullptr detaches). */
    void setRecorder(record::FlightRecorder *rec) { recorder_ = rec; }

    /**
     * Advance physics by @p dtNs and arbitrate. Called by the Soc's
     * sampler chain at sim::Priority::Stats; allocation-free in
     * steady state.
     */
    void step(double dtNs, sim::Tick now);

    const power::ThermalModel &thermal() const { return *thermal_; }
    const power::RailSet &rails() const { return *rails_; }
    const ThrottleArbiter &arbiter() const { return *arbiter_; }

    /** Hottest junction ever seen (°C); ambient before any step. */
    double peakTempC() const { return peakTempC_; }

    /** Board-TDP latch state. */
    bool boardEngaged() const { return boardOver_; }

    std::uint64_t steps() const { return stepCount_; }

    /**
     * Tile-steps spent under any cap (sum of throttledCount() over
     * every step). Deterministic: a residency drift between two runs
     * of the same scenario is a real behavioral difference.
     */
    std::uint64_t throttleResidency() const { return throttleResidency_; }

    /**
     * Deterministic throttle/latch outcome counters into @p report
     * ("physics.*" keys; residency, engage/release/update totals,
     * peak temperature and power as max-folded gauges).
     */
    void fillHealth(trace::HealthReport &report) const;

  private:
    void assertCap(std::size_t tile, ThrottleSource src, double capMhz,
                   sim::Tick now);
    void releaseCap(std::size_t tile, ThrottleSource src, sim::Tick now);
    void journal(std::uint8_t event, ThrottleSource src,
                 std::size_t tile, double capMhz, sim::Tick now);

    PhysicsConfig cfg_;
    std::unique_ptr<power::ThermalModel> thermal_;
    std::unique_ptr<power::RailSet> rails_;
    std::unique_ptr<ThrottleArbiter> arbiter_;
    record::FlightRecorder *recorder_ = nullptr; ///< not owned

    std::vector<AcceleratorTile *> tiles_; ///< by node; null = no accel
    std::vector<std::size_t> accels_;      ///< nodes hosting accels
    std::vector<double> fMaxMhz_;          ///< by node; 0 = no accel
    std::vector<double> powerMw_;          ///< scratch, by node
    std::vector<std::vector<std::size_t>> railTiles_; ///< per rail

    bool boardOver_ = false;
    double totalMw_ = 0.0;
    double peakTempC_ = 0.0;
    std::uint64_t stepCount_ = 0;
    std::uint64_t throttleResidency_ = 0;
    std::uint64_t boardLatchResidency_ = 0;
};

} // namespace blitz::soc

#endif // BLITZ_SOC_THROTTLER_HPP
