#include "guardian.hpp"

#include <algorithm>
#include <bit>

#include "record/recorder.hpp"
#include "trace/tracer.hpp"

namespace blitz::blitzcoin {

IntegrityGuardian::IntegrityGuardian(const GuardianConfig &cfg)
    : cfg_(cfg)
{
}

void
IntegrityGuardian::track(BlitzCoinUnit &unit)
{
    TileState &st = tiles_[unit.self()];
    BLITZ_ASSERT(st.unit == nullptr, "unit tracked twice");
    st.unit = &unit;
    st.sentry = std::make_unique<GuardSentry>();
    unit.setSentry(st.sentry.get());
}

void
IntegrityGuardian::noteGrant(noc::NodeId tile, coin::Coins amount)
{
    auto it = tiles_.find(tile);
    if (it != tiles_.end())
        it->second.shadow += amount;
}

TileHealth
IntegrityGuardian::health(noc::NodeId tile) const
{
    auto it = tiles_.find(tile);
    return it == tiles_.end() ? TileHealth::Healthy
                              : it->second.health;
}

int
IntegrityGuardian::strikes(noc::NodeId tile) const
{
    auto it = tiles_.find(tile);
    return it == tiles_.end() ? 0 : it->second.strikes;
}

void
IntegrityGuardian::recordEvent(std::uint8_t event, noc::NodeId tile,
                               std::int64_t strikes, std::int64_t mask,
                               std::int64_t evidence)
{
    const sim::Tick now = clock_ ? clock_() : 0;
    if (recorder_)
        recorder_->guardian(now, event, tile, strikes, mask, evidence);
    if (tracer_) {
        static const char *const names[] = {"detect", "warn",
                                            "throttle", "quarantine",
                                            "amnesty"};
        tracer_->instant("guardian", names[event], tile, now,
                         {{"strikes", strikes},
                          {"mask", mask},
                          {"evidence", evidence}});
    }
}

void
IntegrityGuardian::sweep()
{
    ++sweeps_;
    for (auto &[id, st] : tiles_) {
        st.flowAgainst = 0;
        st.spamEvidence = 0;
        st.staleEvidence = 0;
    }

    // Phase A: fold every live sentry window into counterparty
    // evidence. A tile's own sentry never touches its own books —
    // that is the property a liar cannot subvert.
    for (auto &[id, st] : tiles_) {
        if (st.health == TileHealth::Quarantined) {
            st.sentry->clearWindow();
            continue;
        }
        for (const auto &[partner, w] : st.sentry->links()) {
            auto it = tiles_.find(partner);
            if (it == tiles_.end())
                continue;
            it->second.flowAgainst += w.net;
            it->second.spamEvidence += w.served + w.throttled;
            it->second.staleEvidence += w.stale;
        }
        st.sentry->clearWindow();
        st.unit->resetThrottleWindow();
    }

    // Demand-weighted fair share for the hoard detector, over the
    // countable population (matches the audit census).
    coin::Coins counted = 0;
    coin::Coins totalMax = 0;
    for (const auto &[id, st] : tiles_) {
        if (st.health == TileHealth::Quarantined ||
            st.unit->crashed())
            continue;
        counted += st.unit->has();
        totalMax += std::max<coin::Coins>(st.unit->max(), 0);
    }
    const double alpha =
        totalMax > 0
            ? static_cast<double>(counted) /
                  static_cast<double>(totalMax)
            : 0.0;

    // Phase B: shadow update + detectors + escalation, node order.
    // Quarantines are deferred to the end so shun/rebaseline cannot
    // perturb detector evaluation of later tiles in the same sweep.
    std::vector<noc::NodeId> quarantineNow;
    for (auto &[id, st] : tiles_) {
        if (st.health == TileHealth::Quarantined)
            continue;
        if (st.unit->crashed()) {
            // Architectural state is gone; the books restart from the
            // counter the tile revives with.
            st.shadow = 0;
            st.lastDev = 0;
            st.lastExcess = 0;
            st.consConsec = st.hoardConsec = st.spamConsec = 0;
            st.wasCrashed = true;
            continue;
        }
        st.shadow -= st.flowAgainst;
        if (st.wasCrashed) {
            // First sweep back up: resync and sit this window out —
            // exchanges straddling the revival are unattributable.
            st.shadow = st.unit->has();
            st.lastDev = 0;
            st.lastExcess = 0;
            st.consConsec = st.hoardConsec = st.spamConsec = 0;
            st.wasCrashed = false;
            continue;
        }

        std::uint32_t mask = 0;
        const coin::Coins dev = st.unit->has() - st.shadow;
        if (dev > cfg_.conservationSlack && dev > st.lastDev) {
            if (++st.consConsec >= cfg_.conservationPersist)
                mask |= kDetConservation;
        } else {
            st.consConsec = 0;
        }
        st.lastDev = dev;

        const coin::Coins fair = static_cast<coin::Coins>(
            alpha *
            static_cast<double>(
                std::max<coin::Coins>(st.unit->max(), 0)));
        const coin::Coins excess = st.unit->has() - fair;
        if (excess >= cfg_.hoardExcessMin && excess >= st.lastExcess) {
            if (++st.hoardConsec >= cfg_.hoardPersist)
                mask |= kDetHoard;
        } else {
            st.hoardConsec = 0;
        }
        st.lastExcess = excess;

        if (st.spamEvidence >= cfg_.spamServedMax) {
            if (++st.spamConsec >= cfg_.spamPersist)
                mask |= kDetSpam;
        } else {
            st.spamConsec = 0;
        }

        if (st.staleEvidence >= cfg_.staleWindowMax)
            mask |= kDetStale;

        if (mask == 0)
            continue;
        if (mask & kDetConservation) {
            ++detections_;
            recordEvent(kGuardianDetect, id, st.strikes,
                        kDetConservation, dev);
        }
        if (mask & kDetHoard) {
            ++detections_;
            recordEvent(kGuardianDetect, id, st.strikes, kDetHoard,
                        excess);
        }
        if (mask & kDetSpam) {
            ++detections_;
            recordEvent(kGuardianDetect, id, st.strikes, kDetSpam,
                        static_cast<std::int64_t>(st.spamEvidence));
        }
        if (mask & kDetStale) {
            ++detections_;
            recordEvent(kGuardianDetect, id, st.strikes, kDetStale,
                        static_cast<std::int64_t>(st.staleEvidence));
        }
        st.strikes += std::popcount(mask);
        escalate(id, st, quarantineNow);
    }
    // One conviction per sweep: a forger's reports pollute its
    // victims' books fast enough that they can cross the threshold in
    // the same sweep it does. Convict the strongest case only (most
    // strikes, then largest deviation, then lowest id) — the amnesty
    // inside quarantineTile() vacates the rest, and real co-attackers
    // re-earn their conviction from live evidence within a few
    // windows.
    if (!quarantineNow.empty()) {
        noc::NodeId best = quarantineNow.front();
        for (std::size_t i = 1; i < quarantineNow.size(); ++i) {
            const noc::NodeId cand = quarantineNow[i];
            const TileState &b = tiles_.at(best);
            const TileState &c = tiles_.at(cand);
            const coin::Coins bdev = b.unit->has() - b.shadow;
            const coin::Coins cdev = c.unit->has() - c.shadow;
            if (c.strikes > b.strikes ||
                (c.strikes == b.strikes && cdev > bdev))
                best = cand;
        }
        quarantineTile(best);
    }
}

void
IntegrityGuardian::escalate(noc::NodeId id, TileState &st,
                            std::vector<noc::NodeId> &quarantineNow)
{
    if (st.strikes >= cfg_.quarantineStrikes &&
        st.health < TileHealth::Quarantined) {
        quarantineNow.push_back(id);
        return;
    }
    if (st.strikes >= cfg_.throttleStrikes &&
        st.health < TileHealth::Throttled) {
        st.health = TileHealth::Throttled;
        ++throttles_;
        for (auto &[oid, ost] : tiles_) {
            if (oid != id && ost.health != TileHealth::Quarantined)
                ost.unit->setServeThrottle(id,
                                           cfg_.throttleServeBudget);
        }
        recordEvent(kGuardianThrottle, id, st.strikes, 0,
                    cfg_.throttleServeBudget);
        return;
    }
    if (st.strikes >= cfg_.warnStrikes &&
        st.health < TileHealth::Warned) {
        st.health = TileHealth::Warned;
        ++warnings_;
        recordEvent(kGuardianWarn, id, st.strikes, 0, 0);
    }
}

void
IntegrityGuardian::quarantineTile(noc::NodeId id)
{
    TileState &st = tiles_.at(id);
    if (st.health == TileHealth::Quarantined)
        return;
    st.health = TileHealth::Quarantined;
    ++quarantines_;
    const coin::Coins fenced = st.unit->has();
    st.unit->quarantine();
    for (auto &[oid, ost] : tiles_) {
        if (oid != id && ost.health != TileHealth::Quarantined)
            ost.unit->shun(id);
    }
    recordEvent(kGuardianQuarantine, id, st.strikes, 0, fenced);
    // Amnesty: a convicted liar's testimony is stricken. Its forged
    // reports have been polluting its victims' books (a forged reply
    // inflates the victim's deviation as fast as a share of the
    // forger's own), so every verdict that may have ridden on them is
    // vacated — books re-baselined, strikes cleared, warn/throttle
    // state lifted. Honest victims come out clean; real co-attackers
    // keep generating evidence and re-convict themselves.
    for (auto &[oid, ost] : tiles_) {
        if (ost.health == TileHealth::Quarantined)
            continue;
        ost.shadow = ost.unit->crashed() ? 0 : ost.unit->has();
        ost.lastDev = 0;
        ost.lastExcess = 0;
        ost.consConsec = ost.hoardConsec = ost.spamConsec = 0;
        if (ost.strikes > 0 || ost.health != TileHealth::Healthy) {
            recordEvent(kGuardianAmnesty, oid, ost.strikes, 0, 0);
            ost.strikes = 0;
            ost.health = TileHealth::Healthy;
            for (auto &[uid, ust] : tiles_) {
                if (ust.health != TileHealth::Quarantined)
                    ust.unit->clearServeThrottle(oid);
            }
        }
    }
}

} // namespace blitz::blitzcoin
