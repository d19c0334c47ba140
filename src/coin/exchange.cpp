#include "exchange.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

namespace blitz::coin {

namespace {

/** round(num / den) to nearest, half away from zero; den > 0. */
Coins
roundDiv(Coins num, Coins den)
{
    BLITZ_ASSERT(den > 0, "roundDiv needs a positive denominator");
    if (num >= 0)
        return (num + den / 2) / den;
    return -((-num + den / 2) / den);
}

/** Acceptance headroom of a tile under its thermal cap. */
Coins
headroom(const TileCoins &t, Coins cap)
{
    if (cap == uncapped)
        return uncapped;
    return std::max<Coins>(0, cap - t.has);
}

} // namespace

Coins
pairwiseDelta(const TileCoins &i, const TileCoins &j, Coins capI,
              Coins capJ)
{
    const Coins total = i.has + j.has;
    const Coins m = i.max + j.max;
    if (m == 0) {
        // Both tiles inactive: coins stay put; a later exchange with an
        // active tile (possibly via random pairing) will collect them.
        return 0;
    }
    const Coins new_i = roundDiv(i.max * total, m);
    Coins into_i = new_i - i.has; // positive: coins flow j -> i

    // Thermal caps limit what a tile will *accept*, never what it may
    // already hold (Section III-B hotspot rejection).
    if (into_i > 0) {
        into_i = std::min(into_i, headroom(i, capI));
    } else if (into_i < 0) {
        into_i = -std::min(-into_i, headroom(j, capJ));
    }
    return -into_i; // signed flow i -> j
}

void
groupSplit(std::span<const TileCoins> group, std::span<const Coins> caps,
           std::span<Coins> out)
{
    BLITZ_ASSERT(!group.empty(), "empty exchange group");
    BLITZ_ASSERT(group.size() <= kMaxGroupSize, "exchange group of ",
                 group.size(), " tiles exceeds ", kMaxGroupSize);
    BLITZ_ASSERT(caps.empty() || caps.size() == group.size(),
                 "cap list size mismatch");
    BLITZ_ASSERT(out.size() == group.size(), "split buffer size mismatch");

    const std::size_t n = group.size();
    Coins total = 0;
    Coins m = 0;
    for (const auto &t : group) {
        total += t.has;
        m += t.max;
    }
    BLITZ_ASSERT(total >= 0, "group exchange with negative coin total");

    std::fill(out.begin(), out.end(), 0);

    // Acceptance limit of a tile: its cap, but never less than what it
    // already holds (caps bound what a tile accepts, not what it has).
    auto limit_of = [&](std::size_t k) {
        Coins cap = caps.empty() ? uncapped : caps[k];
        return cap == uncapped ? uncapped : std::max(group[k].has, cap);
    };
#ifndef NDEBUG
    auto conserved = [&] {
        return std::accumulate(out.begin(), out.end(), Coins{0}) ==
               total;
    };
#define BLITZ_CHECK_CONSERVED()                                        \
    BLITZ_ASSERT(conserved(), "groupSplit lost or minted coins")
#else
#define BLITZ_CHECK_CONSERVED() ((void)0)
#endif

    if (m == 0) {
        for (std::size_t k = 0; k < n; ++k)
            out[k] = group[k].has;
        BLITZ_CHECK_CONSERVED();
        return;
    }

    // Waterfill: tiles whose fair share exceeds their acceptance limit
    // are frozen at that limit and the remainder is re-split among the
    // rest. Terminates in <= n rounds (each round freezes >= 1 tile).
    // Bit k of `frozen` marks tile k as pinned at its limit.
    std::uint64_t frozen = 0;
    Coins remaining = total;
    Coins mActive = m;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t k = 0; k < n && mActive > 0; ++k) {
            if (frozen >> k & 1)
                continue;
            Coins cap = caps.empty() ? uncapped : caps[k];
            // A tile accepts at most up to its cap but always keeps
            // what it already holds.
            Coins limit = cap == uncapped
                              ? uncapped
                              : std::max(group[k].has, cap);
            if (limit == uncapped)
                continue;
            Coins fair = roundDiv(group[k].max * remaining, mActive);
            if (fair > limit) {
                out[k] = limit;
                frozen |= std::uint64_t{1} << k;
                remaining -= limit;
                mActive -= group[k].max;
                changed = true;
            }
        }
    }

    // Fair split of what remains: floor shares plus largest-remainder
    // distribution, deterministic (ties resolve to the lowest index).
    // The bookkeeping lives on the stack: a split allocates nothing.
    std::array<std::size_t, kMaxGroupSize> activeBuf{};
    std::size_t nActive = 0;
    for (std::size_t k = 0; k < n; ++k) {
        if (!(frozen >> k & 1))
            activeBuf[nActive++] = k;
    }
    const std::span<const std::size_t> active(activeBuf.data(), nActive);
    if (active.empty()) {
        BLITZ_CHECK_CONSERVED();
        return;
    }

    if (mActive == 0) {
        // Only inactive tiles remain unfrozen; park leftover coins on
        // them first-fit in index order, honoring each tile's
        // acceptance limit so a capped-but-idle tile never ends the
        // exchange above its cap. Only if every parking spot is full
        // does conservation win and the residue stay with the first.
        for (std::size_t k : active)
            out[k] = 0;
        Coins residue = remaining;
        for (std::size_t k : active) {
            if (residue <= 0)
                break;
            Coins lim = limit_of(k);
            Coins take = lim == uncapped ? residue
                                         : std::min(residue, lim);
            out[k] = take;
            residue -= take;
        }
        if (residue > 0)
            out[active.front()] += residue;
        BLITZ_CHECK_CONSERVED();
        return;
    }

    Coins assigned = 0;
    std::array<Coins, kMaxGroupSize> remainder{}; // per tile index
    for (std::size_t k : active) {
        Coins num = group[k].max * remaining;
        Coins share = num >= 0 ? num / mActive
                               : -((-num + mActive - 1) / mActive);
        out[k] = share;
        assigned += share;
        remainder[k] = num - share * mActive;
    }
    Coins leftover = remaining - assigned;
    // Order by remainder, largest first; the insertion sort is stable
    // and `active` is ascending, so ties keep the lower index first.
    std::array<std::size_t, kMaxGroupSize> order{};
    for (std::size_t a = 0; a < nActive; ++a) {
        const std::size_t k = active[a];
        std::size_t b = a;
        for (; b > 0 && remainder[order[b - 1]] < remainder[k]; --b)
            order[b] = order[b - 1];
        order[b] = k;
    }
    // Largest-remainder distribution, skipping tiles already at their
    // acceptance limit so the +1 never breaches a cap.
    std::size_t stuck = 0;
    for (std::size_t r = 0; leftover > 0; ++r) {
        std::size_t k = order[r % nActive];
        if (out[k] < limit_of(k)) {
            ++out[k];
            --leftover;
            stuck = 0;
        } else if (++stuck >= nActive) {
            // Every unfrozen tile is at its limit: conservation wins
            // and the residue stays with the first of them.
            out[order[0]] += leftover;
            leftover = 0;
        }
    }

    BLITZ_CHECK_CONSERVED();
}
#undef BLITZ_CHECK_CONSERVED

} // namespace blitz::coin
