/**
 * @file
 * TokenSmart (TS) baseline: ring-based sequential token passing.
 *
 * Reimplementation of the decentralized scheme of Shah et al. [43] at
 * the same behavioral level as the BlitzCoin engine, for the Fig. 4
 * comparison. A single pool of tokens circulates around a ring that
 * visits every tile; in the default *greedy* mode each visited tile
 * takes what it needs (up to its target) from the pool and returns any
 * surplus. When some tile stays starved for a configurable number of
 * full loops, the global policy switches to a *fair* mode that targets
 * an equal share per active tile; once the fair targets are met the
 * policy may fall back to greedy. The pool traverses the ring one tile
 * per visit, so reallocation inherently costs O(N) — the property the
 * paper contrasts with BlitzCoin's O(sqrt(N)) diffusion — and the
 * greedy/fair oscillation produces the long-tail outliers visible in
 * Fig. 4.
 */

#ifndef BLITZ_BASELINES_TOKENSMART_HPP
#define BLITZ_BASELINES_TOKENSMART_HPP

#include <cstdint>
#include <vector>

#include "coin/engine.hpp"
#include "coin/ledger.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace blitz::baselines {

/** TS policy mode. */
enum class TsMode : std::uint8_t { Greedy, Fair };

/** TokenSmart parameters. */
struct TokenSmartConfig
{
    /** Cycles per ring visit (hop + local bookkeeping). */
    sim::Tick visitCycles = 4;
    /** Full starved loops before the policy switches to fair. */
    unsigned starvationLoops = 2;
    /** Full satisfied loops in fair mode before reverting to greedy. */
    unsigned fairHoldLoops = 2;
};

/**
 * Behavioral TokenSmart simulator over an N-tile ring.
 *
 * The API mirrors coin::MeshSim so the Fig. 4 bench can drive both
 * through the same harness.
 */
class TokenSmartSim
{
  public:
    TokenSmartSim(std::size_t tiles, const TokenSmartConfig &cfg,
                  std::uint64_t seed);

    const coin::Ledger &ledger() const { return ledger_; }
    TsMode mode() const { return mode_; }

    /** Program a tile's target token count. */
    void setMax(std::size_t i, coin::Coins max);

    /** Set a tile's holdings (initialization). */
    void setHas(std::size_t i, coin::Coins has);

    /**
     * Scatter @p poolCoins over the free pool and tiles at random,
     * mirroring MeshSim::randomizeHas.
     */
    void randomizeHas(coin::Coins poolCoins);

    /** Run until Err < threshold or maxTime elapses. */
    coin::RunResult runUntilConverged(double errThreshold,
                                      sim::Tick maxTime);

  private:
    /** Token target of tile i under the current mode. */
    coin::Coins targetOf(std::size_t i) const;

    /** Process the pool's visit to the tile at ring position pos_. */
    coin::Coins visit();

    void updateMode();

    TokenSmartConfig cfg_;
    sim::Rng rng_;
    coin::Ledger ledger_;
    coin::Coins pool_ = 0; ///< free tokens traveling with the carrier
    std::size_t pos_ = 0;
    sim::Tick now_ = 0;
    TsMode mode_ = TsMode::Greedy;
    std::vector<unsigned> starvedLoops_;
    unsigned fairSatisfiedLoops_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t exchanges_ = 0;
};

} // namespace blitz::baselines

#endif // BLITZ_BASELINES_TOKENSMART_HPP
