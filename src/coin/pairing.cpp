#include "pairing.hpp"

#include <algorithm>

namespace blitz::coin {

PartnerSelector::PartnerSelector(const noc::Topology &topo,
                                 noc::NodeId self,
                                 const PairingConfig &cfg, sim::Rng &rng)
    : PartnerSelector(topo.neighbors(self), nullptr, topo.size(), self,
                      cfg, rng)
{
}

PartnerSelector::PartnerSelector(std::vector<noc::NodeId> neighbors,
                                 Members members, noc::NodeId self,
                                 const PairingConfig &cfg, sim::Rng &rng)
    : PartnerSelector(std::move(neighbors), members,
                      members ? members->size() : 0, self, cfg, rng)
{
    BLITZ_ASSERT(members_ != nullptr, "member list is null");
    BLITZ_ASSERT(std::is_sorted(members_->begin(), members_->end()),
                 "member list is not sorted");
}

PartnerSelector::PartnerSelector(std::vector<noc::NodeId> neighbors,
                                 Members members,
                                 std::size_t memberCount,
                                 noc::NodeId self,
                                 const PairingConfig &cfg, sim::Rng &rng)
    : cfg_(cfg), rng_(&rng), neighbors_(std::move(neighbors)),
      members_(std::move(members)), memberCount_(memberCount)
{
    BLITZ_ASSERT(!neighbors_.empty(),
                 "tile ", self, " has no neighbors; mesh too small");
    BLITZ_ASSERT(cfg_.period >= 2 || !cfg_.randomPairing,
                 "random pairing period must be >= 2");
    skip_.reserve(neighbors_.size() + 1);
    skip(self);
    for (noc::NodeId n : neighbors_)
        skip(n);
    restart();
}

void
PartnerSelector::restart()
{
    farCount_ = cfg_.randomPairing ? memberCount_ - skip_.size() : 0;
    // Stagger per-tile walks so the whole mesh does not pair with the
    // same far region simultaneously; the hardware gets the same
    // effect from per-tile shift-register seeds.
    farPos_ = farCount_ != 0 ? rng_->below(farCount_) : 0;
    // Start the neighbor rotation at a per-tile offset as well.
    rotate_ = rng_->below(neighbors_.size());
    exchangeCount_ = 0;
    lastWasRandom_ = false;
}

std::size_t
PartnerSelector::memberIndex(noc::NodeId node) const
{
    if (!members_)
        return node < memberCount_ ? node : noMember;
    auto it = std::lower_bound(members_->begin(), members_->end(), node);
    if (it == members_->end() || *it != node)
        return noMember;
    return static_cast<std::size_t>(it - members_->begin());
}

void
PartnerSelector::skip(noc::NodeId node)
{
    const std::size_t idx = memberIndex(node);
    if (idx == noMember)
        return;
    auto at = std::lower_bound(skip_.begin(), skip_.end(), idx);
    if (at == skip_.end() || *at != idx)
        skip_.insert(at, static_cast<std::uint32_t>(idx));
}

bool
PartnerSelector::isFar(noc::NodeId node) const
{
    const std::size_t idx = memberIndex(node);
    return farCount_ != 0 && idx != noMember &&
           !std::binary_search(skip_.begin(), skip_.end(), idx);
}

noc::NodeId
PartnerSelector::farAt(std::size_t k) const
{
    // Each skipped index at or below the candidate pushes it one
    // member further; the list is sorted, so one pass suffices.
    std::size_t idx = k;
    for (std::uint32_t s : skip_) {
        if (s > idx)
            break;
        ++idx;
    }
    return members_ ? (*members_)[idx] : static_cast<noc::NodeId>(idx);
}

noc::NodeId
PartnerSelector::nextFar()
{
    BLITZ_ASSERT(farCount_ != 0, "no non-neighbors available");
    if (cfg_.mode == PairingMode::Uniform)
        return farAt(rng_->below(farCount_));
    noc::NodeId partner = farAt(farPos_);
    farPos_ = (farPos_ + 1) % farCount_;
    return partner;
}

noc::NodeId
PartnerSelector::next(bool forceFar)
{
    ++exchangeCount_;
    if (farCount_ != 0 &&
        (forceFar || (cfg_.randomPairing &&
                      exchangeCount_ % cfg_.period == 0))) {
        lastWasRandom_ = true;
        return nextFar();
    }
    lastWasRandom_ = false;
    noc::NodeId partner = neighbors_[rotate_];
    rotate_ = (rotate_ + 1) % neighbors_.size();
    return partner;
}

bool
PartnerSelector::shun(noc::NodeId node)
{
    std::vector<noc::NodeId> neighbors = neighbors_;
    neighbors.erase(std::remove(neighbors.begin(), neighbors.end(), node),
                    neighbors.end());
    const std::size_t far = farCount_ - (isFar(node) ? 1 : 0);
    if (neighbors.empty() && far == 0)
        return false;
    skip(node);
    if (neighbors.empty()) {
        // The exchange neighborhood re-forms around the hole: every
        // remaining far partner becomes a neighbor, and none is left.
        for (std::size_t k = 0; k < far; ++k)
            neighbors.push_back(farAt(k));
        members_.reset();
        memberCount_ = 0;
        skip_.clear();
    }
    neighbors_ = std::move(neighbors);
    restart();
    return true;
}

} // namespace blitz::coin
