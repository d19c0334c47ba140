/**
 * @file
 * Accelerator power/frequency characterization curves.
 *
 * The paper's Fig. 13 characterizes six accelerators: FFT, Viterbi and
 * NVDLA from 12 nm ASIC measurements (0.5-1.0 V / 0.6-1.0 V) and GEMM,
 * Conv2D and Vision from Cadence Joules post-synthesis power analysis
 * (0.6-0.9 V). We cannot rerun those flows, so the catalog transcribes
 * curves with the same voltage ranges and with peak powers calibrated so
 * that the SoC-level budget fractions of Section VI hold exactly: the
 * 3x3 SoC's accelerators sum to 400 mW at Fmax (so the paper's 120 mW /
 * 60 mW budgets are the 30% / 15% operating points) and the 4x4 SoC's to
 * ~1355 mW (450 mW / 900 mW are the 33% / 66% points).
 *
 * Curve model: the tile voltage V maps to frequency through the
 * critical-path-replica relation F(V) = Fmax (V - Vt) / (Vmax - Vt) and
 * to power through P = Pdyn V^2 F + Pleak(V), sampled at a handful of
 * (V, F, P) points exactly like the measured curves, with monotone
 * linear interpolation between points. At the minimum voltage, frequency
 * can be reduced further (the triangle-marker extension of the NVDLA
 * curve), which yields the paper's 7.5x idle power reduction.
 */

#ifndef BLITZ_POWER_PF_CURVE_HPP
#define BLITZ_POWER_PF_CURVE_HPP

#include <string>
#include <vector>

namespace blitz::power {

/** One characterized DVFS operating point. */
struct OpPoint
{
    double voltage; ///< supply voltage (V)
    double freqMhz; ///< maximum clock frequency at this voltage (MHz)
    double powerMw; ///< power running flat out at (V, F) (mW)
};

/**
 * Monotone power/frequency curve for one accelerator type.
 *
 * Frequencies below the lowest characterized point are reached by
 * frequency scaling at minimum voltage (linear dynamic power, fixed
 * leakage), exactly like the NVDLA curve extension in Fig. 13.
 */
class PfCurve
{
  public:
    /**
     * @param name accelerator name for reports.
     * @param points characterized operating points, any order;
     *        must be strictly monotone in both F and P after sorting.
     * @param idleFraction idle power as a fraction of P(Fmin);
     *        the paper measures a 7.5x reduction, i.e. 1/7.5.
     */
    PfCurve(std::string name, std::vector<OpPoint> points,
            double idleFraction = 1.0 / 7.5);

    const std::string &name() const { return name_; }

    /** Highest supported frequency (MHz). */
    double fMax() const { return points_.back().freqMhz; }

    /** Lowest characterized frequency (MHz). */
    double fMinCharacterized() const { return points_.front().freqMhz; }

    /** Power at the highest operating point (mW). */
    double pMax() const { return points_.back().powerMw; }

    /** Power at the lowest characterized operating point (mW). */
    double pMin() const { return points_.front().powerMw; }

    /** Idle power with the clock crawling at minimum voltage (mW). */
    double pIdle() const { return pIdle_; }

    /**
     * Active power at a given frequency (mW).
     * Interpolates between characterized points; below fMinCharacterized
     * scales dynamic power linearly with frequency down to idle.
     * @pre 0 <= freqMhz <= fMax().
     */
    double powerAt(double freqMhz) const;

    /**
     * Highest frequency whose power fits in the budget (MHz).
     * Returns 0 when the budget does not even cover idle operation.
     */
    double freqForPower(double budgetMw) const;

    /** Characterized points, ascending. */
    const std::vector<OpPoint> &points() const { return points_; }

  private:
    std::string name_;
    std::vector<OpPoint> points_;
    double pIdle_;
};

/**
 * Catalog of the six accelerators evaluated in the paper.
 * Returned references have static storage duration.
 */
namespace catalog {

const PfCurve &fft();     ///< depth-estimation FFT (3x3 SoC)
const PfCurve &viterbi(); ///< V2V Viterbi decoder (3x3 SoC)
const PfCurve &nvdla();   ///< NVIDIA Deep Learning Accelerator (3x3 SoC)
const PfCurve &gemm();    ///< dense matrix multiply (4x4 SoC)
const PfCurve &conv2d();  ///< 2D convolution (4x4 SoC)
const PfCurve &vision();  ///< noise filter / hist-eq / DWT engine (4x4)

/** All catalog entries, for sweeps. */
std::vector<const PfCurve *> all();

} // namespace catalog

} // namespace blitz::power

#endif // BLITZ_POWER_PF_CURVE_HPP
