/**
 * @file
 * Shared voltage-regulator rails with per-rail current limits.
 *
 * The per-tile UVFR (uvfr.hpp) models the *point-of-load* regulator;
 * this file models the stage above it: a board/package rail that
 * feeds a configurable group of tiles and can only source so much
 * current. Rail current is reconstructed from the member tiles'
 * instantaneous power at the rail's nominal voltage
 * (I_mA = sum P_mW / V_nominal), the same telemetry shipping
 * accelerator firmware derives its regulator limits from.
 *
 * Each rail latches an overcurrent state with hysteresis: it engages
 * when the reconstructed current reaches the limit and releases only
 * once the load falls to releaseFraction of the limit. The latch is
 * the limit *source*; converting it into per-tile frequency caps is
 * the throttler arbiter's job (src/soc/throttler.*).
 *
 * Determinism contract: update() is pure double arithmetic over fixed
 * iteration order — no RNG, no clock, no allocation (storage is sized
 * during setup; asserted by tests/alloc_count_test.cpp).
 */

#ifndef BLITZ_POWER_RAIL_HPP
#define BLITZ_POWER_RAIL_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace blitz::power {

/** One shared rail's electrical parameters. */
struct RailConfig
{
    /** Nominal rail voltage (V) used to reconstruct current. */
    double vNominal = 0.85;
    /** Overcurrent latch threshold (mA). */
    double limitMa = 1e12;
    /** Hysteresis: release once current <= releaseFraction * limit. */
    double releaseFraction = 0.9;
};

/** What the latest update() did to one rail's overcurrent latch. */
enum class RailEdge : std::uint8_t
{
    None = 0,     ///< latch unchanged
    Engaged = 1,  ///< current reached the limit this update
    Released = 2, ///< current fell under the hysteresis band
};

/**
 * A set of shared rails over a fixed tile population.
 *
 * Setup phase: addRail() then assignTile(); a tile feeds from at most
 * one rail (unassigned tiles draw from an unmodeled source). Run
 * phase: the owner calls update() with the per-tile power vector each
 * sampling interval; the set reconstructs rail currents and advances
 * the overcurrent latches.
 */
class RailSet
{
  public:
    explicit RailSet(std::size_t tiles);

    /** Declare a rail; returns its index. Setup phase only. */
    std::size_t addRail(const RailConfig &cfg);

    /** Put @p tile on rail @p rail. Setup phase only. */
    void assignTile(std::size_t rail, std::size_t tile);

    std::size_t size() const { return rails_.size(); }

    /**
     * Reconstruct every rail's current from @p powerMw (per-tile
     * instantaneous power, indexed like the tiles) and advance the
     * overcurrent latches. Allocation-free.
     */
    void update(const double *powerMw);

    /** Hottest rail's load fraction (0 when the set is empty). */
    double maxLoadFraction() const;

    /** What the latest update() did to the latch. */
    RailEdge edge(std::size_t rail) const { return rails_[rail].edge; }

    /** Peak reconstructed current over the rail's lifetime (mA). */
    double peakMa(std::size_t rail) const { return rails_[rail].peakMa; }

    /** Engage transitions over the rail's lifetime. */
    std::uint64_t engageCount(std::size_t rail) const
    {
        return rails_[rail].engages;
    }

  private:
    struct Rail
    {
        RailConfig cfg;
        double currentMa = 0.0;
        double peakMa = 0.0;
        bool over = false;
        RailEdge edge = RailEdge::None;
        std::uint64_t engages = 0;
    };

    std::vector<Rail> rails_;
    std::vector<std::int32_t> railOfTile_; ///< -1 = unassigned
};

} // namespace blitz::power

#endif // BLITZ_POWER_RAIL_HPP
