/**
 * @file
 * Per-tile coin state and the SoC-wide ledger.
 *
 * A coin is the paper's unit of power budget (Section III-A): each tile
 * holds `has` coins and advertises a target `max` proportional to the
 * power it wants at full speed. The ledger owns the authoritative coin
 * state for the behavioral engine and maintains the running totals and
 * the global error incrementally, so convergence can be tested after
 * every exchange at O(1) cost.
 *
 * Coins are signed: the hardware extends the 6-bit coin counter with a
 * sign bit because in-flight exchanges can transiently drive a count
 * negative (Section IV-A). Steady-state counts are always non-negative,
 * which the tests assert.
 */

#ifndef BLITZ_COIN_LEDGER_HPP
#define BLITZ_COIN_LEDGER_HPP

#include <cstdint>
#include <vector>

#include "sim/logging.hpp"

namespace blitz::coin {

/** Coin quantities; signed for transient underflow. */
using Coins = std::int64_t;

/** One tile's coin state. */
struct TileCoins
{
    Coins has = 0; ///< coins currently held
    Coins max = 0; ///< target/maximum coins (0 while inactive)
};

/**
 * Coin ledger for N tiles with incremental error tracking.
 *
 * The paper's metrics (Section III-E):
 *   alpha = sum(has) / sum(max)             global convergence ratio
 *   E_i   = |has_i - alpha * max_i|          per-tile error
 *   Err   = (1/N) sum E_i                    global (mean) error
 */
class Ledger
{
  public:
    /** Create a ledger of @p n tiles, all zeroed. */
    explicit Ledger(std::size_t n);

    std::size_t size() const { return has_.size(); }

    Coins has(std::size_t i) const { return has_[i]; }
    Coins max(std::size_t i) const { return max_[i]; }

    /**
     * Both registers of one tile, as a value. The ledger stores its
     * columns struct-of-arrays (the behavioral engine's inner loop
     * reads long runs of one register at a time — alpha and error
     * sweeps touch has/max as whole columns), so there is no TileCoins
     * object to reference; the pair is assembled on the fly.
     */
    TileCoins
    tile(std::size_t i) const
    {
        return TileCoins{has_[i], max_[i]};
    }

    /** Sum of held coins — invariant across exchanges. */
    Coins totalHas() const { return totalHas_; }

    /** Sum of targets. */
    Coins totalMax() const { return totalMax_; }

    /**
     * Always-on exchange accounting: transfer() invocations and the
     * absolute coins they moved since construction. The
     * metrics plane samples these through gauges; keeping them here
     * means every engine that moves coins is covered for free.
     */
    std::uint64_t transfers() const { return transfers_; }
    std::uint64_t coinsMoved() const { return coinsMoved_; }

    /** Set a tile's target (activity start/end). */
    void setMax(std::size_t i, Coins max);

    /** Set a tile's holdings (initialization only). */
    void setHas(std::size_t i, Coins has);

    /**
     * Move coins between tiles; the only mutation exchanges may use,
     * so conservation is structural.
     * @param from source tile.
     * @param to destination tile.
     * @param amount coins to move (may be negative, reversing roles).
     */
    void transfer(std::size_t from, std::size_t to, Coins amount);

    /** Global convergence ratio alpha; 0 when no tile is active. */
    double alpha() const;

    /** Per-tile error E_i against the current alpha. */
    double tileError(std::size_t i) const;

    /** Global mean error Err. */
    double globalError() const;

    /** Largest per-tile error (the Fig. 7 metric). */
    double maxError() const;

    /** True when the global error is below @p threshold. */
    bool
    converged(double threshold) const
    {
        return globalError() < threshold;
    }

  private:
    /// Struct-of-arrays tile state: one contiguous column per register.
    std::vector<Coins> has_;
    std::vector<Coins> max_;
    Coins totalHas_ = 0;
    Coins totalMax_ = 0;
    std::uint64_t transfers_ = 0;
    std::uint64_t coinsMoved_ = 0;
};

} // namespace blitz::coin

#endif // BLITZ_COIN_LEDGER_HPP
