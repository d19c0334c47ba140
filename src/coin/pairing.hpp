/**
 * @file
 * Partner selection: neighbor rotation and randomized pairing.
 *
 * A tile normally rotates round-robin through its mesh neighbors
 * (Algorithm 2). Every `period`-th exchange it instead pairs with a
 * *non*-neighbor (Section III-D optimization c), which is what rescues
 * the checkerboard deadlock of Fig. 5: a tile surrounded by inactive
 * tiles eventually talks past them. The hardware realizes the
 * non-neighbor sequence as a shift register that provably cycles through
 * every non-neighbor within a fixed time; the LFSR mode reproduces that
 * guarantee, while the Uniform mode draws partners from the seeded RNG.
 */

#ifndef BLITZ_COIN_PAIRING_HPP
#define BLITZ_COIN_PAIRING_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "ledger.hpp"
#include "noc/topology.hpp"
#include "sim/rng.hpp"

namespace blitz::coin {

/** How the random-pairing partner is chosen. */
enum class PairingMode : std::uint8_t
{
    Lfsr,    ///< deterministic shift-register walk (hardware behaviour)
    Uniform, ///< uniform random non-neighbor (emulator behaviour)
};

/** Random-pairing policy parameters. */
struct PairingConfig
{
    bool randomPairing = true;
    /** Every Nth exchange is a random pairing; the paper uses 16. */
    unsigned period = 16;
    PairingMode mode = PairingMode::Lfsr;
};

/**
 * Local detector for the Fig. 5 isolation scenario.
 *
 * Every exchange reveals the partner's (has, max) registers, so a tile
 * can notice — entirely locally — that its whole neighborhood is idle
 * and nothing is moving: a streak of zero-coin exchanges with
 * max = 0 partners. An isolated tile must reach past its neighbors at
 * its base cadence, otherwise exponential back-off collapses the
 * effective random-pairing rate and a reallocation across an idle
 * region stalls for tens of microseconds. A zero-move exchange with an
 * *active* partner clears the streak: an active peer that agrees no
 * coins should move is evidence the distribution is fine.
 */
class IsolationDetector
{
  public:
    /** @param threshold streak length declaring isolation; the mesh
     *  degree (4) means one full idle rotation. */
    explicit IsolationDetector(unsigned threshold = 4)
        : threshold_(threshold)
    {}

    /** Record the outcome of one exchange. */
    void
    onExchange(bool movedCoins, Coins partnerMax)
    {
        if (movedCoins || partnerMax > 0) {
            streak_ = 0;
        } else {
            ++streak_;
        }
    }

    /** True after a full rotation of idle, coin-less exchanges. */
    bool isolated() const { return streak_ >= threshold_; }

  private:
    unsigned threshold_;
    unsigned streak_ = 0;
};

/**
 * Per-tile partner selector.
 *
 * next() yields the partner for the tile's next exchange: one of its
 * neighbors in rotation, or — on every period-th call when random
 * pairing is enabled — a non-neighbor from the configured sequence.
 *
 * The non-neighbors are never stored. They are the members of the
 * cluster (every node, or one member list shared by all tiles of a
 * managed subset) minus a short sorted skip list: this tile, its
 * neighbors, and any shunned nodes. The k-th far partner is the k-th
 * member not skipped, so per-tile state stays O(1) like the paper's
 * shift register (Section III-E) while the sequence is exactly that
 * of walking a materialized list of members in ascending order.
 */
class PartnerSelector
{
  public:
    /** Sorted member ids shared by every tile of a managed subset. */
    using Members = std::shared_ptr<const std::vector<noc::NodeId>>;

    /**
     * @param topo mesh shape; every node is a member.
     * @param self this tile's node id.
     * @param cfg pairing policy.
     * @param rng per-tile random stream (used in Uniform mode and to
     *        stagger the LFSR starting offset).
     */
    PartnerSelector(const noc::Topology &topo, noc::NodeId self,
                    const PairingConfig &cfg, sim::Rng &rng);

    /**
     * Construct over a member subset — used when only some tiles
     * participate in power management (Section IV-C: memory, IO and
     * CPU tiles hold fixed coins and never exchange).
     * @param neighbors rotation partners (the logical mesh neighbors).
     * @param members every participating node in ascending order; the
     *        random-pairing partners are the members that are neither
     *        @p self nor in @p neighbors.
     * @param self this tile's node id.
     */
    PartnerSelector(std::vector<noc::NodeId> neighbors, Members members,
                    noc::NodeId self, const PairingConfig &cfg,
                    sim::Rng &rng);

    /**
     * Partner for the next exchange.
     * @param forceFar pick a non-neighbor regardless of the period —
     *        used by the isolation detector (Section III-E: the
     *        shift register guarantees every non-neighbor is paired
     *        within fixed time; an isolated tile invokes it directly).
     */
    noc::NodeId next(bool forceFar = false);

    /** True when the previous next() was a random (far) pairing. */
    bool lastWasRandom() const { return lastWasRandom_; }

    /** Neighbor list used for rotation (N,S,E,W order, deduplicated). */
    const std::vector<noc::NodeId> &neighbors() const { return neighbors_; }

    /**
     * Drop @p node from both partner sets and restart the sequence
     * with fresh rotation and LFSR offsets, as a selector built
     * without @p node would. If no neighbor remains, the far partners
     * are promoted to neighbors so the tile is never left mute. If no
     * partner remains at all, nothing changes and false is returned.
     */
    bool shun(noc::NodeId node);

  private:
    /** Common body; @p members null means 0..memberCount-1. */
    PartnerSelector(std::vector<noc::NodeId> neighbors, Members members,
                    std::size_t memberCount, noc::NodeId self,
                    const PairingConfig &cfg, sim::Rng &rng);

    /** Draw the starting offsets and reset the period counter. */
    void restart();
    static constexpr std::size_t noMember = ~std::size_t{0};
    /** Position of @p node in the member list, or noMember. */
    std::size_t memberIndex(noc::NodeId node) const;
    /** Add @p node's member index to the skip list (if a member). */
    void skip(noc::NodeId node);
    /** True if @p node is one of the current far partners. */
    bool isFar(noc::NodeId node) const;
    /** The k-th member not on the skip list. */
    noc::NodeId farAt(std::size_t k) const;
    noc::NodeId nextFar();

    PairingConfig cfg_;
    sim::Rng *rng_;
    std::vector<noc::NodeId> neighbors_;
    Members members_;            ///< null: members are 0..memberCount_-1
    std::size_t memberCount_ = 0;
    std::vector<std::uint32_t> skip_; ///< sorted member indices
    std::size_t farCount_ = 0;
    std::size_t rotate_ = 0;
    std::size_t farPos_ = 0;
    unsigned exchangeCount_ = 0;
    bool lastWasRandom_ = false;
};

} // namespace blitz::coin

#endif // BLITZ_COIN_PAIRING_HPP
