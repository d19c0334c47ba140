/**
 * @file
 * Tests for the power/frequency characterization curves (Fig. 13).
 */

#include <gtest/gtest.h>

#include "power/pf_curve.hpp"
#include "sim/logging.hpp"

namespace {

using namespace blitz;
using power::OpPoint;
using power::PfCurve;

TEST(PfCurve, CatalogPeaksMatchPaperBudgetFractions)
{
    using namespace power::catalog;
    // 3x3 AV SoC: 3 FFT + 2 Viterbi + 1 NVDLA sum to 400 mW, so the
    // paper's 120/60 mW budgets are the 30%/15% points.
    double av = 3 * fft().pMax() + 2 * viterbi().pMax() + nvdla().pMax();
    EXPECT_NEAR(av, 400.0, 1e-9);
    EXPECT_NEAR(120.0 / av, 0.30, 1e-9);
    // 4x4 vision SoC: 4 GEMM + 5 Conv2D + 4 Vision ~ 1355 mW; the
    // 450/900 mW budgets are the ~33%/66% points.
    double vis = 4 * gemm().pMax() + 5 * conv2d().pMax() +
                 4 * vision().pMax();
    EXPECT_NEAR(vis, 1355.0, 1e-9);
    EXPECT_NEAR(450.0 / vis, 0.33, 0.01);
}

TEST(PfCurve, PowerIsMonotoneInFrequency)
{
    for (const PfCurve *c : power::catalog::all()) {
        double prev = -1.0;
        for (double f = 0.0; f <= c->fMax(); f += c->fMax() / 50.0) {
            double p = c->powerAt(f);
            EXPECT_GE(p, prev) << c->name() << " at " << f;
            prev = p;
        }
    }
}

TEST(PfCurve, FreqForPowerInvertsPowerAt)
{
    for (const PfCurve *c : power::catalog::all()) {
        for (double f = 0.0; f <= c->fMax(); f += c->fMax() / 20.0) {
            double p = c->powerAt(f);
            EXPECT_NEAR(c->freqForPower(p), f, c->fMax() * 1e-9)
                << c->name();
        }
    }
}

TEST(PfCurve, BudgetBeyondPeakSaturatesAtFmax)
{
    const PfCurve &c = power::catalog::fft();
    EXPECT_DOUBLE_EQ(c.freqForPower(c.pMax() * 10.0), c.fMax());
}

TEST(PfCurve, BudgetBelowIdleYieldsZeroFrequency)
{
    const PfCurve &c = power::catalog::nvdla();
    EXPECT_DOUBLE_EQ(c.freqForPower(c.pIdle() * 0.5), 0.0);
}

TEST(PfCurve, IdleIsSevenPointFiveTimesBelowPmin)
{
    // The paper's measurement: idle at minimum voltage with a crawling
    // clock saves 7.5x versus the lowest operating point.
    for (const PfCurve *c : power::catalog::all())
        EXPECT_NEAR(c->pMin() / c->pIdle(), 7.5, 1e-9) << c->name();
}

TEST(PfCurve, SubFminFrequencyScalingIsLinear)
{
    const PfCurve &c = power::catalog::gemm();
    double f_min = c.fMinCharacterized();
    double p_half = c.powerAt(f_min / 2.0);
    EXPECT_GT(p_half, c.pIdle());
    EXPECT_LT(p_half, c.pMin());
    // Exactly halfway between idle and Pmin by construction.
    EXPECT_NEAR(p_half, c.pIdle() + (c.pMin() - c.pIdle()) / 2.0, 1e-9);
}

TEST(PfCurve, VoltageRangesMatchCharacterization)
{
    using namespace power::catalog;
    EXPECT_NEAR(fft().points().front().voltage, 0.5, 1e-9);
    EXPECT_NEAR(fft().points().back().voltage, 1.0, 1e-9);
    EXPECT_NEAR(nvdla().points().front().voltage, 0.6, 1e-9);
    EXPECT_NEAR(gemm().points().back().voltage, 0.9, 1e-9);
}

TEST(PfCurve, ValidationRejectsBadCurves)
{
    EXPECT_THROW(PfCurve("empty", {}), sim::FatalError);
    EXPECT_THROW(PfCurve("nonmono",
                         {OpPoint{0.5, 100.0, 10.0},
                          OpPoint{0.6, 200.0, 5.0}}),
                 sim::FatalError);
    EXPECT_THROW(PfCurve("badidle", {OpPoint{0.5, 100.0, 10.0}}, 0.0),
                 sim::FatalError);
}

TEST(PfCurve, OutOfRangeFrequencyPanics)
{
    const PfCurve &c = power::catalog::fft();
    EXPECT_THROW(c.powerAt(-1.0), sim::PanicError);
    EXPECT_THROW(c.powerAt(c.fMax() * 2.0), sim::PanicError);
}

TEST(PfCurve, NvdlaIsTheBigTile)
{
    // Relative magnitudes drive the RP-vs-AP result; NVDLA dominates.
    using namespace power::catalog;
    EXPECT_GT(nvdla().pMax(), 3.0 * fft().pMax());
    EXPECT_GT(fft().pMax(), viterbi().pMax());
}

} // namespace
