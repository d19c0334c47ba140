/**
 * @file
 * Per-tile RC thermal model.
 *
 * Each tile's junction temperature follows the first-order lumped RC
 * network real accelerator firmware assumes when it converts a diode
 * reading into a throttle decision: a thermal resistance R (°C/W) from
 * junction to ambient and a heat capacity C (J/°C), driven by the
 * tile's instantaneous power. Adjacent tiles may additionally be
 * joined by a lateral conductance (W/°C), modeling heat spreading
 * through the shared substrate.
 *
 * The governing equation per tile i is
 *
 *   dT_i/dt = (P_i + (T_amb - T_i)/R_i) / C_i
 *             + sum_j g_ij (T_j - T_i) / C_i
 *
 * integrated with explicit Euler at the caller's cadence (the SoC
 * power-sampler cadence, 0.5 us by default — four orders of magnitude
 * below the millisecond thermal time constants, so the discretization
 * error is far inside the 2% band the differential test asserts; see
 * tests/thermal_analytic_test.cpp vs the closed-form step response
 * T(t) = T_amb + P R (1 - e^(-t/RC))).
 *
 * Determinism contract: step() is pure double arithmetic over a fixed
 * iteration order, touches no RNG and no clock, and allocates nothing
 * — the instance is safe to drive from the BSP serial lane and keeps
 * golden digests bit-identical at every shard count.
 */

#ifndef BLITZ_POWER_THERMAL_HPP
#define BLITZ_POWER_THERMAL_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace blitz::power {

/** RC parameters of one tile's junction-to-ambient path. */
struct ThermalNodeParams
{
    /** Junction-to-ambient thermal resistance (°C/W). */
    double rCPerW = 300.0;
    /** Lumped heat capacity (J/°C); tau = R*C = 1.5 ms at defaults. */
    double cJPerC = 5e-6;
};

/** Model-wide parameters. */
struct ThermalConfig
{
    /** Ambient (heatsink/board) temperature (°C). */
    double ambientC = 45.0;
    /** Initial junction temperature of every tile (°C). */
    double initialC = 45.0;
    /** Default per-tile RC path; setParams overrides per tile. */
    ThermalNodeParams node{};
};

/**
 * Lumped RC thermal network over a fixed tile population.
 *
 * The instance is passive: the owner calls step() with the elapsed
 * interval and the per-tile power vector. All storage is sized at
 * construction/setup time; step() is allocation-free (asserted by
 * tests/alloc_count_test.cpp).
 */
class ThermalModel
{
  public:
    ThermalModel(std::size_t tiles, const ThermalConfig &cfg = {});

    std::size_t size() const { return temp_.size(); }

    /** Override one tile's RC path (call during setup). */
    void setParams(std::size_t tile, const ThermalNodeParams &p);

    /**
     * Join two tiles with a lateral conductance @p gWPerC (W/°C).
     * Symmetric: heat flows from the hotter to the cooler tile.
     * Call during setup only — step() iterates the coupling list.
     */
    void addCoupling(std::size_t a, std::size_t b, double gWPerC);

    /**
     * Advance every junction by @p dtNs nanoseconds under the
     * per-tile power draw @p powerMw (indexed like the tiles; entries
     * for unpopulated slots may be 0). Explicit Euler; stable while
     * dt is well below the smallest tau, which the SoC cadence is by
     * construction.
     */
    void step(double dtNs, const double *powerMw);

    /** Present junction temperature (°C). */
    double temperatureC(std::size_t tile) const { return temp_[tile]; }

    /** Hottest junction (°C); ambient when the model is empty. */
    double maxC() const;

    /** Mean junction temperature (°C); ambient when empty. */
    double meanC() const;

    /** Reset every junction to @p tC. */
    void reset(double tC);

    /** Number of step() calls so far. */
    std::uint64_t steps() const { return steps_; }

  private:
    struct Coupling
    {
        std::uint32_t a;
        std::uint32_t b;
        double gWPerC;
    };

    ThermalConfig cfg_;
    std::vector<ThermalNodeParams> params_;
    std::vector<double> temp_; ///< junction temperature (°C)
    std::vector<double> ddt_;  ///< scratch: dT/dt (°C/s)
    std::vector<Coupling> couplings_;
    std::uint64_t steps_ = 0;
};

} // namespace blitz::power

#endif // BLITZ_POWER_THERMAL_HPP
