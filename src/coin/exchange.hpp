/**
 * @file
 * Coin-exchange arithmetic: the paper's Algorithms 1 and 2.
 *
 * Both variants compute, for a group of tiles, the allocation that gives
 * every tile the same has/max ratio while conserving the group total
 * exactly (integer coins, deterministic rounding). The 1-way form is a
 * single pairwise rebalance; the 4-way form rebalances a center tile and
 * its (up to) four neighbors at once.
 *
 * Optional per-tile caps implement the thermal/hotspot extension of
 * Section III-B: a capped tile never accepts coins beyond its cap, and
 * the surplus stays with the partner(s).
 */

#ifndef BLITZ_COIN_EXCHANGE_HPP
#define BLITZ_COIN_EXCHANGE_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "ledger.hpp"

namespace blitz::coin {

/** Sentinel for "no thermal cap". */
inline constexpr Coins uncapped = std::numeric_limits<Coins>::max();

/**
 * Pairwise (1-way) exchange arithmetic.
 *
 * @param i initiator state (has, max).
 * @param j partner state.
 * @param capI thermal cap on tile i's holdings (::uncapped if none).
 * @param capJ thermal cap on tile j's holdings.
 * @return signed number of coins flowing i -> j (negative means j -> i).
 *         0 when neither tile is active or the pair is balanced.
 *
 * Postcondition: applying the delta equalizes has/max between the two
 * tiles within one-coin rounding, subject to the caps, and conserves
 * has_i + has_j exactly.
 */
Coins pairwiseDelta(const TileCoins &i, const TileCoins &j,
                    Coins capI = uncapped, Coins capJ = uncapped);

/** Largest group groupSplit accepts; a tile and its four mesh
 *  neighbors are five. */
inline constexpr std::size_t kMaxGroupSize = 8;

/**
 * Group (4-way) exchange arithmetic over a center tile and neighbors.
 *
 * @param group states of the participating tiles (center first by
 *        convention, though the math is symmetric); at most
 *        ::kMaxGroupSize of them.
 * @param caps per-tile caps, or empty for uncapped.
 * @param out receives the new `has` value per tile, same order and
 *        size as @p group; sums to the group total. The caller owns
 *        it, so a split allocates nothing.
 *
 * Coins are assigned as floor(max_i * total / M) with the remainder
 * distributed by largest fractional part (ties to the lower index), the
 * deterministic analog of the paper's "within rounding error" fairness.
 */
void groupSplit(std::span<const TileCoins> group,
                std::span<const Coins> caps, std::span<Coins> out);

} // namespace blitz::coin

#endif // BLITZ_COIN_EXCHANGE_HPP
