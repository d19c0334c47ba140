#include "unit.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>

#include "guardian.hpp"
#include "record/recorder.hpp"
#include "trace/tracer.hpp"

namespace blitz::blitzcoin {

using namespace wire;

namespace {

/** Guard interval for 4-way rounds and snapshot locks (cycles). */
constexpr sim::Tick exchangeTimeout = 512;

/** Re-poll delay when the FSM is busy with an in-flight exchange. */
constexpr sim::Tick busyRetry = 4;

/** Unresolved-exchange backlog bound (initiator side). */
constexpr std::size_t maxUnresolved = 32;

/** First entry of a (node, value) vector sorted by node that is not
 *  below @p node. */
template <class Vec>
auto
lowerNode(Vec &v, noc::NodeId node)
{
    return std::lower_bound(
        v.begin(), v.end(), node,
        [](const auto &e, noc::NodeId n) { return e.first < n; });
}

/** @p node's value in a sorted (node, value) vector; inserted as
 *  @p absent when missing. */
template <class Vec, class V>
auto &
valueFor(Vec &v, noc::NodeId node, V absent)
{
    auto at = lowerNode(v, node);
    if (at == v.end() || at->first != node)
        at = v.insert(at, {node, absent});
    return at->second;
}

} // namespace

BlitzCoinUnit::BlitzCoinUnit(sim::EventQueue &eq, noc::Network &net,
                             noc::NodeId self, const UnitConfig &cfg,
                             const coin::Neighborhood &hood,
                             std::uint64_t seed)
    : eq_(eq), net_(net), self_(self), cfg_(cfg), rng_(seed),
      timer_(cfg.backoff),
      selector_(hood.neighbors, hood.members, self, cfg.pairing, rng_),
      refresh_(eq, [this] { initiate(); }),
      updateTimeout_(eq, [this] { onExchangeTimeout(); }),
      roundTimeout_(eq, [this] { completeFourWay(); }),
      snapshotTimeout_(eq, [this] { snapshotHeld_ = false; })
{
}

void
BlitzCoinUnit::setHas(coin::Coins has)
{
    state_.has = has;
    coinsChanged();
}

void
BlitzCoinUnit::setMax(coin::Coins max)
{
    BLITZ_ASSERT(max >= 0, "max coins cannot be negative");
    state_.max = max;
    // Activity start/end is the trigger for requesting or relinquishing
    // coins: snap the refresh cadence back and fire right away.
    timer_.resetOnActivity();
    if (running_)
        scheduleNext(1);
}

void
BlitzCoinUnit::start()
{
    if (running_ || crashed_ || quarantined_)
        return;
    running_ = true;
    scheduleNext(1 + rng_.below(cfg_.backoff.baseInterval));
}

void
BlitzCoinUnit::stop()
{
    running_ = false;
    refresh_.disarm();
}

void
BlitzCoinUnit::traceExchange(const PendingExchange &p,
                             coin::Coins delta, const char *outcome)
{
    tracer_->complete(
        "coin", "exchange", self_, p.startTick, eq_.now(),
        {{"xid", static_cast<std::int64_t>(p.xid)},
         {"partner", static_cast<std::int64_t>(p.partner)},
         {"delta", delta},
         {"outcome", outcome}});
}

void
BlitzCoinUnit::crash()
{
    if (tracer_)
        tracer_->instant("fault", "unit_crash", self_, eq_.now(),
                         {{"coins_lost", state_.has}});
    if (recorder_)
        recorder_->crash(eq_.now(), self_, state_.has);
    stop();
    crashed_ = true;
    // Architectural registers and all protocol tracking are lost. The
    // coins held here vanish from the cluster total; the audit watchdog
    // is the only mechanism that can restore them.
    state_ = coin::TileCoins{};
    awaitingUpdate_ = false;
    pending_.reset();
    updateTimeout_.disarm();
    unresolved_.clear();
    servedKeys_.clear();
    servedRecords_.clear();
    groupSeen_.clear();
    gathered_.clear();
    awaitedStatuses_ = 0;
    roundTimeout_.disarm();
    ++fourWayGen_; // late replies of the dropped round are not gathered
    snapshotHeld_ = false;
    snapshotTimeout_.disarm();
    iso_ = coin::IsolationDetector{};
    coinsChanged();
}

void
BlitzCoinUnit::restart()
{
    if (!crashed_)
        return;
    crashed_ = false;
    if (tracer_)
        tracer_->instant("fault", "unit_restart", self_, eq_.now());
    if (recorder_)
        recorder_->restart(eq_.now(), self_, 0);
    timer_ = coin::BackoffTimer(cfg_.backoff);
    // nextXid_ deliberately keeps counting across the crash: a partner
    // still holding pre-crash entries in its served log must never
    // mistake a fresh exchange for a replay of an old one.
}

void
BlitzCoinUnit::quarantine()
{
    if (quarantined_)
        return;
    if (tracer_)
        tracer_->instant("guardian", "unit_quarantined", self_,
                         eq_.now(), {{"coins_fenced", state_.has}});
    stop();
    quarantined_ = true;
    // Drop all in-flight tracking: a quarantined tile must not keep
    // pumping recovery probes or resolve late updates. Its counter is
    // left fenced (not zeroed) — the audit census excludes it.
    awaitingUpdate_ = false;
    pending_.reset();
    updateTimeout_.disarm();
    unresolved_.clear();
    gathered_.clear();
    awaitedStatuses_ = 0;
    roundTimeout_.disarm();
    ++fourWayGen_; // late replies of the dropped round are not gathered
    snapshotHeld_ = false;
    snapshotTimeout_.disarm();
}

void
BlitzCoinUnit::shun(noc::NodeId node)
{
    auto at = std::lower_bound(shunned_.begin(), shunned_.end(), node);
    if (at != shunned_.end() && *at == node)
        return;
    shunned_.insert(at, node);
    // A fully cut-off tile keeps its old selector: exchanges aimed at
    // the shunned node then time out and abandon.
    selector_.shun(node);
}

void
BlitzCoinUnit::setServeThrottle(noc::NodeId initiator,
                                std::uint32_t budget)
{
    valueFor(throttle_, initiator, ServeThrottle{}) =
        ServeThrottle{budget, 0};
}

void
BlitzCoinUnit::clearServeThrottle(noc::NodeId initiator)
{
    auto at = lowerNode(throttle_, initiator);
    if (at != throttle_.end() && at->first == initiator)
        throttle_.erase(at);
}

void
BlitzCoinUnit::resetThrottleWindow()
{
    for (auto &[node, th] : throttle_)
        th.used = 0;
}

void
BlitzCoinUnit::scheduleNext(sim::Tick delay)
{
    if (adversary_)
        delay = std::max<sim::Tick>(adversary_->adviseInterval(delay),
                                    1);
    refresh_.armIn(delay);
}

void
BlitzCoinUnit::initiate()
{
    if (awaitingUpdate_ || snapshotHeld_) {
        scheduleNext(busyRetry);
        return;
    }
    if (cfg_.mode == coin::ExchangeMode::FourWay) {
        initiateFourWay();
        return;
    }
    noc::NodeId partner = selector_.next(isolated());
    const std::uint64_t xid = nextXid_++;
    // A compromised tile may advertise forged registers (soliciting
    // coins it does not need, or hiding coins it hoards).
    coin::Coins aHas = state_.has;
    coin::Coins aMax = state_.max;
    coin::Coins aCap = cfg_.thermalCap;
    if (adversary_)
        adversary_->adviseStatus(aHas, aMax, aCap);
    noc::Packet pkt;
    pkt.src = self_;
    pkt.dst = partner;
    pkt.plane = noc::Plane::Service;
    pkt.type = noc::MsgType::CoinStatus;
    pkt.payload[0] = aHas;
    pkt.payload[1] = aMax;
    pkt.payload[2] = aCap;
    pkt.payload[3] = packTag(xid, FlagOneWay);
    net_.send(pkt);
    ++initiated_;
    awaitingUpdate_ = true;
    pending_ = PendingExchange{xid, partner, 0, eq_.now()};

    // If the update never lands, free the FSM and hand the exchange to
    // the background reconciliation machinery — initiation must keep
    // flowing even on a fully dead link.
    updateTimeout_.armIn(cfg_.recoverTimeout);
}

void
BlitzCoinUnit::onExchangeTimeout()
{
    const std::uint64_t xid = pending_->xid;
    ++timedOut_;
    if (tracer_)
        tracer_->instant(
            "coin", "exchange_timeout", self_, eq_.now(),
            {{"xid", static_cast<std::int64_t>(xid)},
             {"partner",
              static_cast<std::int64_t>(pending_->partner)}});
    if (recorder_)
        recorder_->exchange(eq_.now(), record::kOutcomeTimeout, self_,
                            pending_->partner,
                            static_cast<std::int64_t>(xid), 0);
    timer_.onExchange(false); // failures back the cadence off too
    if (unresolved_.size() >= maxUnresolved) {
        // Backlog full (the network is effectively down): the oldest
        // loss is handed to the audit watchdog.
        ++abandoned_;
        if (tracer_)
            traceExchange(unresolved_.front(), 0, "abandoned");
        if (recorder_)
            recorder_->exchange(
                eq_.now(), record::kOutcomeAbandoned, self_,
                unresolved_.front().partner,
                static_cast<std::int64_t>(unresolved_.front().xid), 0);
        unresolved_.erase(unresolved_.begin());
    }
    unresolved_.push_back(*pending_);
    pending_.reset();
    awaitingUpdate_ = false;
    pumpRecovery(xid);
    if (running_)
        scheduleNext(timer_.intervalFor(discontent() || isolated()));
}

void
BlitzCoinUnit::pumpRecovery(std::uint64_t xid)
{
    auto it = std::find_if(unresolved_.begin(), unresolved_.end(),
                           [xid](const PendingExchange &p) {
                               return p.xid == xid;
                           });
    if (it == unresolved_.end() || crashed_)
        return; // resolved (or wiped by a crash) in the meantime
    if (it->recoverTries >= cfg_.maxRecoverAttempts) {
        ++abandoned_;
        if (tracer_)
            traceExchange(*it, 0, "abandoned");
        if (recorder_)
            recorder_->exchange(eq_.now(), record::kOutcomeAbandoned,
                                self_, it->partner,
                                static_cast<std::int64_t>(it->xid), 0);
        unresolved_.erase(it);
        return;
    }
    const int tries = ++it->recoverTries;
    if (tracer_)
        tracer_->instant("coin", "recover_probe", self_, eq_.now(),
                         {{"xid", static_cast<std::int64_t>(xid)},
                          {"try", tries}});
    noc::Packet probe;
    probe.src = self_;
    probe.dst = it->partner;
    probe.plane = noc::Plane::Service;
    probe.type = noc::MsgType::CoinRecover;
    probe.payload[0] = static_cast<std::int64_t>(xid);
    net_.send(probe);
    ++recoversSent_;
    // Probe cadence doubles like the refresh back-off: lost probes on a
    // congested mesh must not add to the congestion.
    const sim::Tick wait = cfg_.recoverTimeout
                           << std::min(tries, 4);
    eq_.scheduleIn(wait, [this, xid] { pumpRecovery(xid); });
}

void
BlitzCoinUnit::handlePacket(const noc::Packet &pkt)
{
    if (crashed_ || quarantined_)
        return; // powered off / fenced off: deaf to the service plane
    if (!shunned_.empty() && isShunned(pkt.src)) {
        ++shunnedDrops_; // quarantined neighbor: drop unheard
        return;
    }
    if (pkt.corrupted) {
        // Link CRC flagged the flit as damaged; detected corruption is
        // a loss and rides the same recovery path.
        ++corruptedDropped_;
        if (tracer_)
            tracer_->instant("coin", "corrupt_dropped", self_,
                             eq_.now());
        return;
    }
    switch (pkt.type) {
      case noc::MsgType::CoinStatus:
        // The flag byte distinguishes a 1-way opening from a status
        // sent in *reply* to our CoinRequest (4-way gathering).
        if (tagFlag(pkt.payload[3]) == FlagGroup) {
            collectStatus(pkt);
        } else {
            serveStatus(pkt);
        }
        break;
      case noc::MsgType::CoinRequest:
        serveRequest(pkt);
        break;
      case noc::MsgType::CoinRecover:
        serveRecover(pkt);
        break;
      case noc::MsgType::CoinUpdate:
        applyUpdate(pkt);
        break;
      default:
        break; // other service-plane traffic is not ours
    }
}

void
BlitzCoinUnit::sendOneWayUpdate(noc::NodeId dst, std::uint64_t xid,
                                coin::Coins delta, int flag)
{
    noc::Packet reply;
    reply.src = self_;
    reply.dst = dst;
    reply.plane = noc::Plane::Service;
    reply.type = noc::MsgType::CoinUpdate;
    reply.payload[0] = delta;
    // Echo this tile's registers so the initiator sees its partner's
    // state too (needed by the isolation detector).
    reply.payload[1] = state_.has;
    reply.payload[2] = state_.max;
    reply.payload[3] = packTag(xid, flag);
    net_.send(reply);
}

void
BlitzCoinUnit::serveStatus(const noc::Packet &pkt)
{
    // One FSM cycle to compute the rebalance (Section IV-A).
    eq_.scheduleIn(cfg_.fsmCycles, [this, pkt] {
        if (crashed_ || quarantined_)
            return;
        auto th = lowerNode(throttle_, pkt.src);
        if (th != throttle_.end() && th->first == pkt.src) {
            if (th->second.used >= th->second.budget) {
                // Guardian throttle: this initiator exhausted its
                // serve budget for the window. The attempt is still
                // evidence, so the sentry keeps counting it — and the
                // refusal is answered with a null update rather than
                // silence, so the initiator's exchange resolves at its
                // *own* cadence instead of collapsing into timeouts
                // (a spammer keeps revealing its rate to the books, an
                // honest initiator is merely served nothing).
                ++throttledDrops_;
                if (sentry_)
                    sentry_->noteThrottled(pkt.src);
                sendOneWayUpdate(pkt.src, tagValue(pkt.payload[3]), 0,
                                 FlagOneWay);
                return;
            }
            ++th->second.used;
        }
        const std::uint64_t xid = tagValue(pkt.payload[3]);
        const ServedRun run = servedRun(pkt.src);
        const std::size_t logSize = servedKeys_.size();
        for (std::size_t i = run.first; i != run.last; ++i) {
            const ServedRecord &e = servedRecords_[i];
            if (e.xid == xid) {
                // Duplicated CoinStatus: the rebalance already ran.
                // Replay the recorded update instead of applying the
                // exchange a second time.
                ++duplicatesIgnored_;
                if (tracer_)
                    tracer_->instant(
                        "coin", "dup_status_replayed", self_,
                        eq_.now(),
                        {{"xid", static_cast<std::int64_t>(xid)},
                         {"initiator",
                          static_cast<std::int64_t>(pkt.src)}});
                if (sentry_)
                    sentry_->noteServed(pkt.src);
                sendOneWayUpdate(pkt.src, xid, e.delta, FlagOneWay);
                return;
            }
        }

        coin::TileCoins remote{pkt.payload[0], pkt.payload[1]};
        coin::Coins remote_cap = pkt.payload[2];
        coin::Coins delta = coin::pairwiseDelta(
            remote, state_, remote_cap, cfg_.thermalCap);

        // A compromised partner can split the exchange: apply one
        // delta locally while reporting another. The honest split is
        // (applied = delta, reported = -delta); anything else mints or
        // destroys coins — the guardian's conservation books catch it.
        coin::Coins applied = delta;
        coin::Coins reported = -delta;
        if (adversary_)
            adversary_->adviseServe(pkt.src, xid, delta, applied,
                                    reported);

        if (applied != 0) {
            state_.has += applied;
            coinsChanged();
        }
        // The partner's apply is where coins settle: journal the
        // served half.
        if (recorder_)
            recorder_->exchange(eq_.now(), record::kOutcomeServed,
                                pkt.src, self_,
                                static_cast<std::int64_t>(xid),
                                applied);
        if (sentry_) {
            if (applied != 0)
                sentry_->noteFlow(pkt.src, applied);
            sentry_->noteServed(pkt.src);
        }
        timer_.onExchange(applied != 0);
        iso_.onExchange(applied != 0, remote.max);
        // Receiving coins is evidence of a transition in flight: bring
        // the next self-initiated exchange forward so the wave keeps
        // propagating (a backed-off wakeup may be far in the future).
        if (applied != 0 && running_ && !awaitingUpdate_)
            scheduleNext(timer_.intervalFor(discontent() || isolated()));

        // Remember the outcome so a duplicated status or a CoinRecover
        // probe can replay it without moving coins again. The run found
        // above is still valid: nothing since touched the log (the
        // adversary hook is pure, and the observers and onCoinsChanged
        // do not call back into this unit).
        BLITZ_ASSERT(servedKeys_.size() == logSize,
                     "served log changed during a serve");
        recordServed(run, pkt.src, ServedRecord{xid, reported});
        sendOneWayUpdate(pkt.src, xid, reported, FlagOneWay);
    });
}

void
BlitzCoinUnit::serveRecover(const noc::Packet &pkt)
{
    eq_.scheduleIn(cfg_.fsmCycles, [this, pkt] {
        if (crashed_ || quarantined_)
            return;
        const std::uint64_t xid =
            static_cast<std::uint64_t>(pkt.payload[0]);
        const ServedRun run = servedRun(pkt.src);
        for (std::size_t i = run.first; i != run.last; ++i) {
            const ServedRecord &e = servedRecords_[i];
            if (e.xid == xid) {
                // The exchange ran here; replay its recorded delta.
                sendOneWayUpdate(pkt.src, xid, e.delta, FlagOneWay);
                return;
            }
        }
        if (run.first != run.last &&
            xid < servedRecords_[run.last - 1].xid) {
            // Older than the log's horizon: the outcome was served and
            // since evicted. Only the audit can close this.
            sendOneWayUpdate(pkt.src, xid, 0, FlagUnknown);
            return;
        }
        // Never served: the CoinStatus itself was lost in transit, so
        // no coins moved on either side — a clean null resolution.
        sendOneWayUpdate(pkt.src, xid, 0, FlagOneWay);
    });
}

BlitzCoinUnit::ServedRun
BlitzCoinUnit::servedRun(noc::NodeId initiator) const
{
    // Count the keys below the initiator: one branch-free pass over the
    // 4-byte keys whose loads do not depend on each other, where a
    // binary search would chain each load on the last. The count is as
    // wide as a key, so the pass vectorizes without widening.
    std::uint32_t below = 0;
    for (const noc::NodeId k : servedKeys_)
        below += k < initiator;
    ServedRun run{below, below};
    while (run.last != servedKeys_.size() &&
           servedKeys_[run.last] == initiator)
        ++run.last;
    return run;
}

void
BlitzCoinUnit::recordServed(ServedRun run, noc::NodeId initiator,
                            const ServedRecord &rec)
{
    const std::size_t depth = cfg_.servedLogDepth;
    if (depth == 0)
        return;
    if (run.last - run.first == depth) {
        // Full run: the oldest record goes, the rest shift up one; the
        // run's keys are all the same and stay put.
        ServedRecord *r = servedRecords_.data();
        std::move(r + run.first + 1, r + run.last, r + run.first);
        r[run.last - 1] = rec;
        return;
    }
    // Grow by one full run, not by doubling: the log fills one
    // initiator at a time, and doubling would leave up to half of it
    // empty.
    if (servedKeys_.size() == servedKeys_.capacity()) {
        BLITZ_ASSERT(servedKeys_.size() + depth <=
                         std::numeric_limits<std::uint32_t>::max(),
                     "served log outgrew servedRun's 32-bit count");
        servedKeys_.reserve(servedKeys_.size() + depth);
    }
    if (servedRecords_.size() == servedRecords_.capacity())
        servedRecords_.reserve(servedRecords_.size() + depth);
    const auto at = static_cast<std::ptrdiff_t>(run.last);
    servedKeys_.insert(servedKeys_.begin() + at, initiator);
    servedRecords_.insert(servedRecords_.begin() + at, rec);
}

void
BlitzCoinUnit::applyResolvedDelta(coin::Coins delta,
                                  coin::Coins partnerMax,
                                  noc::NodeId partner)
{
    if (delta != 0) {
        state_.has += delta;
        ++moved_;
        coinsChanged();
        if (sentry_)
            sentry_->noteFlow(partner, delta);
    }
    timer_.onExchange(delta != 0);
    iso_.onExchange(delta != 0, partnerMax);
}

void
BlitzCoinUnit::applyUpdate(const noc::Packet &pkt)
{
    if (tagFlag(pkt.payload[3]) == FlagGroup) {
        applyGroupUpdate(pkt);
        return;
    }
    const std::uint64_t xid = tagValue(pkt.payload[3]);
    if (pending_ && pending_->xid == xid) {
        // The normal path: the update resolves the in-flight exchange.
        if (tracer_)
            traceExchange(*pending_, pkt.payload[0], "ok");
        if (recorder_)
            recorder_->exchange(eq_.now(), record::kOutcomeOk, self_,
                                pending_->partner,
                                static_cast<std::int64_t>(xid),
                                pkt.payload[0]);
        pending_.reset();
        updateTimeout_.disarm();
        awaitingUpdate_ = false;
        applyResolvedDelta(pkt.payload[0], pkt.payload[2], pkt.src);
        if (running_)
            scheduleNext(timer_.intervalFor(discontent() || isolated()));
        return;
    }
    auto it = std::find_if(unresolved_.begin(), unresolved_.end(),
                           [xid](const PendingExchange &p) {
                               return p.xid == xid;
                           });
    if (it == unresolved_.end()) {
        // No exchange waits on this stamp: a duplicated delivery, a
        // replayed recover answer for an already-resolved exchange, or
        // a stamp retired by a crash. Applying it would double-count.
        ++duplicatesIgnored_;
        if (sentry_)
            sentry_->noteStale(pkt.src);
        if (tracer_)
            tracer_->instant(
                "coin", "stale_update_dropped", self_, eq_.now(),
                {{"xid", static_cast<std::int64_t>(xid)}});
        return;
    }
    const PendingExchange resolved = *it;
    unresolved_.erase(it);
    if (tagFlag(pkt.payload[3]) == FlagUnknown) {
        // The partner evicted the outcome; its half (if any) stands
        // unmatched until the audit watchdog reconciles.
        ++abandoned_;
        if (tracer_)
            traceExchange(resolved, 0, "unknown");
        if (recorder_)
            recorder_->exchange(eq_.now(), record::kOutcomeUnknown,
                                self_, resolved.partner,
                                static_cast<std::int64_t>(xid), 0);
        return;
    }
    // A late or recovered update: the exchange concludes off the
    // critical path, conserving the pair's coins.
    ++recovered_;
    if (tracer_)
        traceExchange(resolved, pkt.payload[0], "recovered");
    if (recorder_)
        recorder_->exchange(eq_.now(), record::kOutcomeRecovered, self_,
                            resolved.partner,
                            static_cast<std::int64_t>(xid),
                            pkt.payload[0]);
    applyResolvedDelta(pkt.payload[0], pkt.payload[2], pkt.src);
    if (running_ && !awaitingUpdate_)
        scheduleNext(timer_.intervalFor(discontent() || isolated()));
}

void
BlitzCoinUnit::applyGroupUpdate(const noc::Packet &pkt)
{
    // Group (4-way) update from a center tile: apply-only. It must not
    // clear this tile's own in-flight exchange state, but it does
    // release the snapshot lock it corresponds to.
    const std::uint64_t tag = tagValue(pkt.payload[3]);
    std::uint64_t &last = valueFor(groupSeen_, pkt.src, std::uint64_t{0});
    if (tag <= last) {
        ++duplicatesIgnored_; // duplicated delivery of this round
        if (sentry_)
            sentry_->noteStale(pkt.src);
        return;
    }
    last = tag;
    if (snapshotHeld_ && pkt.src == snapshotHolder_) {
        snapshotHeld_ = false;
        snapshotTimeout_.disarm();
    }
    coin::Coins delta = pkt.payload[0];
    if (delta != 0) {
        state_.has += delta;
        ++moved_;
        coinsChanged();
        if (sentry_)
            sentry_->noteFlow(pkt.src, delta);
    }
    if (recorder_)
        recorder_->exchange(eq_.now(), record::kOutcomeServed, pkt.src,
                            self_, static_cast<std::int64_t>(tag),
                            delta);
    timer_.onExchange(delta != 0);
    iso_.onExchange(delta != 0, pkt.payload[2]);
    if (delta != 0 && running_ && !awaitingUpdate_)
        scheduleNext(timer_.intervalFor(discontent() || isolated()));
}

void
BlitzCoinUnit::initiateFourWay()
{
    // Algorithm 1: request status from every logical neighbor, then
    // compute the 5-tile fair split and push updates.
    gathered_.clear();
    awaitedStatuses_ = selector_.neighbors().size();
    awaitingUpdate_ = true; // FSM busy until the round completes
    const std::uint64_t gen = ++fourWayGen_;
    ++initiated_;
    for (noc::NodeId n : selector_.neighbors()) {
        noc::Packet pkt;
        pkt.src = self_;
        pkt.dst = n;
        pkt.plane = noc::Plane::Service;
        pkt.type = noc::MsgType::CoinRequest;
        // Round tag: replies echo it so a late reply from a timed-out
        // round can never be gathered into a newer one (which would
        // double-count that neighbor and destabilize the split).
        pkt.payload[0] = static_cast<std::int64_t>(gen);
        net_.send(pkt);
    }
    // Complete with whatever arrived if a reply is lost.
    roundTimeout_.armIn(exchangeTimeout);
}

void
BlitzCoinUnit::serveRequest(const noc::Packet &pkt)
{
    eq_.scheduleIn(cfg_.fsmCycles, [this, pkt] {
        if (crashed_)
            return;
        // The conflict the paper describes (tile C requests B while
        // A-B is in flight): a busy tile does NOT reply. The center
        // completes with the members it could lock; the requester's
        // retry comes on its next refresh.
        if (awaitingUpdate_ || snapshotHeld_)
            return;
        // Freeze the coin count until the center's update lands, so
        // the snapshot it computes with stays valid.
        // If the center dies, the timeout releases the lock.
        snapshotHeld_ = true;
        snapshotHolder_ = pkt.src;
        snapshotTimeout_.armIn(exchangeTimeout);

        noc::Packet reply;
        reply.src = self_;
        reply.dst = pkt.src;
        reply.plane = noc::Plane::Service;
        reply.type = noc::MsgType::CoinStatus;
        reply.payload[0] = state_.has;
        reply.payload[1] = state_.max;
        reply.payload[2] = cfg_.thermalCap;
        // Echo the round tag, marked as a 4-way reply.
        reply.payload[3] = packTag(
            static_cast<std::uint64_t>(pkt.payload[0]), FlagGroup);
        net_.send(reply);
    });
}

void
BlitzCoinUnit::collectStatus(const noc::Packet &pkt)
{
    if (!awaitingUpdate_ || cfg_.mode != coin::ExchangeMode::FourWay)
        return; // stale reply from a timed-out round
    if (tagValue(pkt.payload[3]) != fourWayGen_)
        return; // reply belongs to an earlier, abandoned round
    for (const auto &[node, tc] : gathered_) {
        if (node == pkt.src)
            return; // duplicate delivery
    }
    gathered_.emplace_back(pkt.src,
                           coin::TileCoins{pkt.payload[0],
                                           pkt.payload[1]});
    if (gathered_.size() >= awaitedStatuses_)
        completeFourWay();
}

void
BlitzCoinUnit::completeFourWay()
{
    const std::uint64_t roundTag = fourWayGen_;
    ++fourWayGen_; // late replies of this round are not gathered
    roundTimeout_.disarm();
    awaitingUpdate_ = false;
    // Concurrent rounds can leave the gathered snapshots inconsistent
    // (a neighbor's coins moved between its status and now); a
    // negative apparent total is the tell. Abort and retry later —
    // part of the synchronization hazard that makes the 4-way
    // datapath more complex than the pairwise one (Section III-B).
    coin::Coins snapshot_total = state_.has;
    for (const auto &[node, tc] : gathered_)
        snapshot_total += tc.has;
    if (!gathered_.empty() && snapshot_total >= 0) {
        // A round gathers at most one status per mesh neighbor.
        const std::size_t n = gathered_.size() + 1;
        BLITZ_ASSERT(n <= coin::kMaxGroupSize, "4-way round of ", n,
                     " tiles");
        std::array<coin::TileCoins, coin::kMaxGroupSize> group{};
        std::array<coin::Coins, coin::kMaxGroupSize> split{};
        group[0] = state_;
        for (std::size_t k = 1; k < n; ++k)
            group[k] = gathered_[k - 1].second;
        coin::groupSplit(std::span(group).first(n), {},
                         std::span(split).first(n));

        coin::Coins out_total = 0;
        bool moved = false;
        for (std::size_t k = 0; k < gathered_.size(); ++k) {
            coin::Coins delta = split[k + 1] - gathered_[k].second.has;
            out_total += delta;
            if (delta != 0)
                moved = true;
            noc::Packet upd;
            upd.src = self_;
            upd.dst = gathered_[k].first;
            upd.plane = noc::Plane::Service;
            upd.type = noc::MsgType::CoinUpdate;
            upd.payload[0] = delta;
            upd.payload[1] = state_.has;
            upd.payload[2] = state_.max;
            // Group update (apply-only), stamped with the round so a
            // duplicated delivery cannot apply twice.
            upd.payload[3] = packTag(roundTag, FlagGroup);
            net_.send(upd);
        }
        // Conservation: the center absorbs the negated sum, applied
        // against its *current* count (stale snapshots show up as the
        // transient negatives the sign bit exists for).
        if (out_total != 0) {
            state_.has -= out_total;
            ++moved_;
            coinsChanged();
        }
        timer_.onExchange(moved);
        for (const auto &[node, tc] : gathered_)
            iso_.onExchange(moved, tc.max);
        gathered_.clear();
    } else {
        gathered_.clear();
        timer_.onExchange(false);
    }
    if (running_)
        scheduleNext(timer_.intervalFor(discontent() || isolated()));
}

void
BlitzCoinUnit::coinsChanged()
{
    if (onCoinsChanged)
        onCoinsChanged(state_.has);
}

} // namespace blitz::blitzcoin
