/**
 * @file
 * Tests for the actuation primitives: LDO, ring oscillator, TDC, PID.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "power/ldo.hpp"
#include "power/pid.hpp"
#include "power/ring_oscillator.hpp"
#include "power/tdc.hpp"
#include "sim/logging.hpp"

namespace {

using namespace blitz;
using power::Ldo;
using power::LdoConfig;
using power::Pid;
using power::PidConfig;
using power::RingOscillator;
using power::RingOscillatorConfig;
using power::Tdc;

// ------------------------------------------------------------------ LDO

TEST(Ldo, CodeVoltageMappingIsLinear)
{
    Ldo ldo;
    EXPECT_EQ(ldo.codes(), 128);
    EXPECT_DOUBLE_EQ(ldo.voltageForCode(0), 0.45);
    EXPECT_DOUBLE_EQ(ldo.voltageForCode(127), 1.0);
    double mid = ldo.voltageForCode(64);
    EXPECT_GT(mid, 0.7);
    EXPECT_LT(mid, 0.73);
}

TEST(Ldo, OutputSlewsTowardTarget)
{
    LdoConfig cfg;
    cfg.slewVPerUs = 10.0; // 0.01 V/ns
    Ldo ldo(cfg);
    ldo.setCode(127); // target 1.0 V from 0.45 V
    ldo.step(10.0);   // 10 ns -> at most 0.1 V movement
    EXPECT_NEAR(ldo.voltage(), 0.55, 1e-9);
    for (int i = 0; i < 20; ++i)
        ldo.step(10.0);
    EXPECT_DOUBLE_EQ(ldo.voltage(), 1.0); // reached and held
}

TEST(Ldo, SlewIsSymmetricDownward)
{
    Ldo ldo;
    ldo.forceVoltage(1.0);
    ldo.setCode(0);
    double before = ldo.voltage();
    ldo.step(5.0);
    EXPECT_LT(ldo.voltage(), before);
    for (int i = 0; i < 1000; ++i)
        ldo.step(5.0);
    EXPECT_DOUBLE_EQ(ldo.voltage(), 0.45);
}

TEST(Ldo, SetCodeClamps)
{
    Ldo ldo;
    ldo.setCode(-5);
    EXPECT_EQ(ldo.code(), 0);
    ldo.setCode(1000);
    EXPECT_EQ(ldo.code(), 127);
}

TEST(Ldo, InvalidConfigFatal)
{
    LdoConfig bad;
    bad.vMax = bad.vMin;
    EXPECT_THROW(Ldo{bad}, sim::FatalError);
    LdoConfig bad2;
    bad2.slewVPerUs = 0.0;
    EXPECT_THROW(Ldo{bad2}, sim::FatalError);
}

// ------------------------------------------------------------------- RO

TEST(RingOscillator, LinearAboveThreshold)
{
    RingOscillatorConfig cfg;
    cfg.fMaxMhz = 700.0;
    cfg.vNominal = 1.0;
    cfg.vThreshold = 0.3;
    RingOscillator ro(cfg);
    EXPECT_DOUBLE_EQ(ro.freqAt(1.0), 700.0);
    EXPECT_DOUBLE_EQ(ro.freqAt(0.65), 350.0);
    EXPECT_DOUBLE_EQ(ro.freqAt(0.3), 0.0);
    EXPECT_DOUBLE_EQ(ro.freqAt(0.1), 0.0);
}

TEST(RingOscillator, ProcessFactorScalesFrequency)
{
    RingOscillatorConfig fast;
    fast.processFactor = 1.1;
    RingOscillatorConfig slow;
    slow.processFactor = 0.9;
    EXPECT_GT(RingOscillator(fast).freqAt(0.8),
              RingOscillator(slow).freqAt(0.8));
}

TEST(RingOscillator, DroopSlowsClock)
{
    // The UVFR safety property: a voltage droop stretches the clock.
    RingOscillator ro;
    EXPECT_LT(ro.freqAt(0.75), ro.freqAt(0.80));
}

TEST(RingOscillator, InvalidConfigFatal)
{
    RingOscillatorConfig bad;
    bad.vNominal = 0.2; // below threshold
    EXPECT_THROW(RingOscillator{bad}, sim::FatalError);
}

// ------------------------------------------------------------------ TDC

TEST(Tdc, MeasuresEdgeCount)
{
    Tdc tdc(64, 800.0);
    EXPECT_EQ(tdc.measure(800.0), 64);
    EXPECT_EQ(tdc.measure(400.0), 32);
    EXPECT_EQ(tdc.measure(0.0), 0);
    // floor(): partial edges do not count.
    EXPECT_EQ(tdc.measure(409.0), 32);
}

TEST(Tdc, CodeForRoundsToNearest)
{
    Tdc tdc(64, 800.0);
    EXPECT_EQ(tdc.codeFor(800.0), 64);
    EXPECT_EQ(tdc.codeFor(406.0), 32); // 32.48 -> 32
    EXPECT_EQ(tdc.codeFor(419.0), 34); // 33.52 -> 34
}

TEST(Tdc, ResolutionMatchesWindow)
{
    EXPECT_DOUBLE_EQ(Tdc(64, 800.0).resolutionMhz(), 12.5);
    EXPECT_DOUBLE_EQ(Tdc(128, 800.0).resolutionMhz(), 6.25);
}

TEST(Tdc, FreqOfInvertsCodeFor)
{
    Tdc tdc(64, 800.0);
    for (int code = 0; code <= 64; ++code)
        EXPECT_EQ(tdc.codeFor(tdc.freqOf(code)), code);
}

TEST(Tdc, InvalidConfigFatal)
{
    EXPECT_THROW(Tdc(0, 800.0), sim::FatalError);
    EXPECT_THROW(Tdc(64, 0.0), sim::FatalError);
}

// ------------------------------------------------------------------ PID

TEST(Pid, ProportionalResponse)
{
    PidConfig cfg;
    cfg.kp = 2.0;
    cfg.ki = 0.0;
    cfg.kd = 0.0;
    cfg.outMax = 1000.0;
    Pid pid(cfg);
    EXPECT_DOUBLE_EQ(pid.step(10.0), 20.0);
    // Negative command clamps at the default outMin of 0.
    EXPECT_DOUBLE_EQ(pid.step(-5.0), 0.0);
}

TEST(Pid, IntegralEliminatesSteadyError)
{
    PidConfig cfg;
    cfg.kp = 0.0;
    cfg.ki = 0.5;
    cfg.outMax = 100.0;
    Pid pid(cfg);
    double out = 0.0;
    for (int i = 0; i < 10; ++i)
        out = pid.step(4.0);
    EXPECT_NEAR(out, 0.5 * 4.0 * 10, 1e-9); // integral accumulates
}

TEST(Pid, OutputClampsAndAntiWindup)
{
    PidConfig cfg;
    cfg.kp = 0.0;
    cfg.ki = 1.0;
    cfg.outMax = 10.0;
    Pid pid(cfg);
    for (int i = 0; i < 100; ++i)
        EXPECT_LE(pid.step(5.0), 10.0);
    // After saturation, a reversal must act immediately (no wound-up
    // integral to unwind for hundreds of steps).
    double out = pid.step(-5.0);
    EXPECT_LT(out, 10.0);
}

TEST(Pid, DerivativeDampens)
{
    PidConfig cfg;
    cfg.kp = 1.0;
    cfg.ki = 0.0;
    cfg.kd = 1.0;
    cfg.outMin = -100.0;
    Pid pid(cfg);
    pid.step(10.0);
    // Error shrinking: derivative term is negative, damping output.
    EXPECT_LT(pid.step(8.0), 8.0);
}

TEST(Pid, PrimeSetsStartingOutput)
{
    PidConfig cfg;
    cfg.kp = 0.0;
    cfg.ki = 0.5;
    Pid pid(cfg);
    pid.prime(40.0);
    EXPECT_NEAR(pid.step(0.0), 40.0, 1e-9);
}

TEST(Pid, ResetClearsState)
{
    Pid pid;
    pid.step(50.0);
    pid.step(50.0);
    pid.reset();
    PidConfig def;
    EXPECT_NEAR(pid.step(1.0), def.kp * 1.0 + def.ki * 1.0, 1e-9);
}

TEST(Pid, InvalidRangeFatal)
{
    PidConfig bad;
    bad.outMin = 5.0;
    bad.outMax = 5.0;
    EXPECT_THROW(Pid{bad}, sim::FatalError);
}

} // namespace
