#include "audit.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "guardian.hpp"
#include "record/recorder.hpp"
#include "sim/logging.hpp"

namespace blitz::blitzcoin {

ClusterAudit::ClusterAudit(coin::Coins expected)
    : expected_(expected)
{
    BLITZ_ASSERT(expected >= 0, "provisioned coin total cannot be negative");
}

void
ClusterAudit::track(BlitzCoinUnit &unit)
{
    units_.push_back(&unit);
}

AuditReport
ClusterAudit::audit() const
{
    AuditReport r;
    r.expected = expected_;
    for (const BlitzCoinUnit *u : units_) {
        if (u->quarantined())
            ++r.quarantinedUnits;
        else if (u->crashed())
            ++r.crashedUnits;
        else
            r.counted += u->has();
    }
    r.gap = r.expected - r.counted;
    return r;
}

AuditReport
ClusterAudit::reconcile()
{
    AuditReport r = audit();
    if (r.gap == 0)
        return r;

    std::vector<BlitzCoinUnit *> alive;
    for (BlitzCoinUnit *u : units_) {
        if (!u->crashed() && !u->quarantined())
            alive.push_back(u);
    }
    if (alive.empty())
        return r; // whole cluster down; the next sweep will close it

    // Shares proportional to the max target: reminted coins go where
    // the demand is. A fully idle cluster splits evenly.
    std::vector<coin::Coins> weight(alive.size());
    coin::Coins total_weight = 0;
    for (std::size_t i = 0; i < alive.size(); ++i) {
        weight[i] = std::max<coin::Coins>(alive[i]->max(), 0);
        total_weight += weight[i];
    }
    if (total_weight == 0) {
        std::fill(weight.begin(), weight.end(), 1);
        total_weight = static_cast<coin::Coins>(alive.size());
    }

    // Largest-remainder apportionment of |gap| so the correction is
    // exact; ties break on the lower index for determinism.
    const coin::Coins magnitude = std::abs(r.gap);
    const coin::Coins sign = r.gap < 0 ? -1 : 1;
    std::vector<coin::Coins> share(alive.size());
    std::vector<coin::Coins> remainder(alive.size());
    coin::Coins assigned = 0;
    for (std::size_t i = 0; i < alive.size(); ++i) {
        share[i] = magnitude * weight[i] / total_weight;
        remainder[i] = magnitude * weight[i] % total_weight;
        assigned += share[i];
    }
    std::vector<std::size_t> order(alive.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&remainder](std::size_t a, std::size_t b) {
                         return remainder[a] > remainder[b];
                     });
    for (std::size_t k = 0; assigned < magnitude; ++k) {
        ++share[order[k % order.size()]];
        ++assigned;
    }

    const sim::Tick tick = clock_ ? clock_() : 0;
    for (std::size_t i = 0; i < alive.size(); ++i) {
        if (share[i] == 0)
            continue;
        alive[i]->setHas(alive[i]->has() + sign * share[i]);
        const auto tile = alive[i]->self();
        if (guardian_)
            guardian_->noteGrant(tile, sign * share[i]);
        if (!recorder_)
            continue;
        if (sign > 0)
            recorder_->mint(tick, tile, share[i], /*remintFlag=*/true);
        else
            recorder_->burn(tick, tile, share[i]);
    }
    ++gapsClosed_;
    if (sign > 0)
        minted_ += magnitude;
    else
        burned_ += magnitude;
    return r;
}

} // namespace blitz::blitzcoin
