/**
 * @file
 * The benchmark's five paper-scenario workloads.
 *
 * A workload sets up its long-lived state (several times, so set-up cost
 * can be reported as a median), then runs ops: the unit
 * a user waits for. Every op of a workload does similar work, and op k
 * draws its inputs from stream k of the run's seed, so a (seed, k) pair
 * fully determines what the op simulates.
 */

#ifndef BENCH_WORKLOADS_HPP
#define BENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapters.hpp"
#include "spans.hpp"

namespace bench {

/** Order-sensitive FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

/** What one op did, as the benchmark checks and counts it. */
struct OpResult
{
    bool ok = true;
    std::string failure; ///< the first failed check
    /** Model time-to-result (exec or convergence time), us. */
    double modelUs = 0.0;
    /** Model time the op advanced its simulators by, us. */
    double advancedUs = 0.0;
    /** Fold of the op's deterministic outputs. */
    Fnv digest;
    adapt::Counters counters;
    /** Power-management responses (SoC ops): count and summed us. */
    std::uint64_t responses = 0;
    double responseUsSum = 0.0;

    void
    fail(const std::string &why)
    {
        if (ok)
            failure = why;
        ok = false;
    }

    /** Fold a sub-result (one run or trial of the op) in. */
    void
    merge(const OpResult &o)
    {
        if (!o.ok)
            fail(o.failure);
        modelUs += o.modelUs;
        advancedUs += o.advancedUs;
        digest.add(o.digest.h);
        counters += o.counters;
        responses += o.responses;
        responseUsSum += o.responseUsSum;
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Generate inputs and construct the long-lived instances, freeing
     * any a previous call built before building them again. Children of @p span: "build" (the
     * long-lived constructors), "inputs", and for meshes that start
     * converged, "run".
     */
    virtual void setup(Scope &span) = 0;

    /**
     * Run op @p index. bench_e2e calls ops with consecutive indices
     * from 0. Children of @p span: build, attach, run, settle, observe,
     * check.
     */
    virtual OpResult op(std::uint64_t index, Scope &span) = 0;

    /** End-of-run checks; returns the failure, or "" when they pass. */
    virtual std::string finish(Scope &span)
    {
        (void)span;
        return {};
    }
};

/** Every workload's name, in the order the full set runs them. */
const std::vector<const char *> &workloads();

/** The workload called @p name, with every input rooted at @p seed. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace bench

#endif // BENCH_WORKLOADS_HPP
