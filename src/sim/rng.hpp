/**
 * @file
 * Deterministic random-number generation for reproducible experiments.
 *
 * Every stochastic component in the simulator draws from an Rng seeded
 * explicitly by the experiment harness, so a (seed, configuration) pair
 * fully determines a run. The generator is xoshiro256** with splitmix64
 * seeding — fast, high quality, and trivially portable, which matters
 * because the Monte-Carlo benches run hundreds of thousands of trials.
 */

#ifndef BLITZ_SIM_RNG_HPP
#define BLITZ_SIM_RNG_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "logging.hpp"

namespace blitz::sim {

/**
 * Deterministic pseudo-random generator (xoshiro256**).
 *
 * Satisfies UniformRandomBitGenerator so it can also feed <random>
 * distributions, though the built-in helpers below avoid the
 * implementation-defined behaviour of the standard distributions.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x1234'5678'9abc'def0ull)
    {
        reseed(seed);
    }

    /** Re-seed the generator, restoring a deterministic stream. */
    void
    reseed(std::uint64_t seed)
    {
        // splitmix64 expansion; guarantees a non-zero state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return ~std::uint64_t{0};
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        BLITZ_ASSERT(bound > 0, "Rng::below needs a positive bound");
        // Lemire's nearly-divisionless unbiased method.
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = (~bound + 1) % bound;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        BLITZ_ASSERT(lo <= hi, "Rng::range needs lo <= hi");
        const auto span =
            static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(below(span));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Bernoulli trial with probability p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Standard normal variate (Box-Muller). */
    double normal();

    /** Normal variate with mean and standard deviation. */
    double
    normal(double mean, double sigma)
    {
        return mean + sigma * normal();
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

} // namespace blitz::sim

#endif // BLITZ_SIM_RNG_HPP
