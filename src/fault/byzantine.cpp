#include "byzantine.hpp"

#include <algorithm>

#include "record/recorder.hpp"
#include "sim/logging.hpp"
#include "trace/tracer.hpp"

namespace blitz::fault {

/**
 * The per-tile compromise: the passive half of one spec. Installed as
 * the unit's AdversaryHook, so every method runs inside the unit's own
 * events — the counters are single-writer and the lies are a pure
 * function of protocol state, never of RNG or wall ordering.
 */
struct ByzantinePlan::Agent final : blitzcoin::AdversaryHook
{
    Agent(ByzantinePlan &p, const ByzantineSpec &s)
        : plan(&p), spec(s)
    {
    }

    /** In the activation window? Before arm() the window is open iff
     *  it starts at 0 (unit tests drive hooks without a queue). */
    bool
    active() const
    {
        if (plan->eq_ == nullptr)
            return spec.from == 0;
        const sim::Tick now = plan->eq_->now();
        return now >= spec.from && now < spec.until;
    }

    void
    adviseStatus(coin::Coins &has, coin::Coins &max,
                 coin::Coins & /*cap*/) override
    {
        if (!active())
            return;
        switch (spec.behavior) {
        case ByzantineBehavior::Spammer:
        case ByzantineBehavior::StuckGreedy:
            // Fabricated desperation: no coins, huge target — every
            // partner the lie reaches rebalances coins this way.
            has = 0;
            max = spec.claimMax;
            ++stats.lyingStatuses;
            break;
        case ByzantineBehavior::Inflator:
        case ByzantineBehavior::ReplyForger:
        case ByzantineBehavior::StaleReplayer:
            break; // these lie elsewhere; the status stays honest
        }
    }

    void
    adviseServe(noc::NodeId initiator, std::uint64_t xid,
                coin::Coins honest, coin::Coins &applied,
                coin::Coins &reported) override
    {
        if (!active())
            return;
        switch (spec.behavior) {
        case ByzantineBehavior::ReplyForger:
            // Apply more than reported: the initiator balances its
            // half against -honest while this tile pockets a skim —
            // coins minted from nothing, split across the wire.
            applied = honest + spec.amount;
            stats.counterfeited += spec.amount;
            ++stats.forgedReplies;
            plan->record(*this, spec.amount,
                         static_cast<std::int64_t>(xid), "forge_reply");
            break;
        case ByzantineBehavior::StuckGreedy:
            if (honest < 0) {
                // The rebalance says pay out; keep the coins and tell
                // the initiator nothing moved. Conserving (no coins
                // created), but the hoard starves the neighborhood.
                applied = 0;
                reported = 0;
                ++stats.refusedPayouts;
                plan->record(*this, -honest,
                             static_cast<std::int64_t>(xid),
                             "refuse_payout");
            }
            break;
        case ByzantineBehavior::StaleReplayer:
            // Serve honestly, but remember the reply; the armed driver
            // resends it verbatim with the old stamp.
            capInitiator = initiator;
            capXid = xid;
            capReported = reported;
            haveCapture = true;
            break;
        case ByzantineBehavior::Inflator:
        case ByzantineBehavior::Spammer:
            break;
        }
    }

    sim::Tick
    adviseInterval(sim::Tick honest) override
    {
        if (!active() || spec.behavior != ByzantineBehavior::Spammer)
            return honest;
        // Ignore the backoff law entirely: a near-continuous request
        // stream. The 2/3/4 rotation is a fixed cycle, not RNG.
        spamPhase = (spamPhase + 1) % 3;
        return static_cast<sim::Tick>(2 + spamPhase);
    }

    ByzantinePlan *plan;
    ByzantineSpec spec;
    blitzcoin::BlitzCoinUnit *unit = nullptr;
    ByzantineStats stats{};
    std::uint32_t spamPhase = 0;
    /** StaleReplayer capture of the last served reply. */
    noc::NodeId capInitiator = 0;
    std::uint64_t capXid = 0;
    coin::Coins capReported = 0;
    bool haveCapture = false;
};

ByzantinePlan::ByzantinePlan(ByzantineConfig cfg)
    : cfg_(std::move(cfg))
{
    for (const ByzantineSpec &s : cfg_.specs) {
        BLITZ_ASSERT(!compromised(s.node),
                     "one behavior per compromised node (node ",
                     s.node, " named twice)");
        agents_.push_back(std::make_unique<Agent>(*this, s));
    }
}

ByzantinePlan::~ByzantinePlan() = default;

bool
ByzantinePlan::compromised(noc::NodeId node) const
{
    return std::any_of(agents_.begin(), agents_.end(),
                       [node](const std::unique_ptr<Agent> &a) {
                           return a->spec.node == node;
                       });
}

void
ByzantinePlan::corrupt(blitzcoin::BlitzCoinUnit &unit)
{
    for (auto &a : agents_) {
        if (a->spec.node != unit.self())
            continue;
        BLITZ_ASSERT(a->unit == nullptr,
                     "unit ", unit.self(), " corrupted twice");
        a->unit = &unit;
        unit.setAdversary(a.get());
        return;
    }
}

void
ByzantinePlan::record(const Agent &a, std::int64_t amount,
                      std::int64_t extra, const char *what)
{
    const sim::Tick now = eq_ ? eq_->now() : 0;
    if (recorder_)
        recorder_->byzantine(
            now, static_cast<std::uint8_t>(a.spec.behavior),
            a.spec.node, amount, extra);
    if (tracer_)
        tracer_->instant("byzantine", what, a.spec.node, now);
}

void
ByzantinePlan::pulse(Agent &a)
{
    blitzcoin::BlitzCoinUnit *u = a.unit;
    if (u == nullptr || u->quarantined())
        return; // the guardian won; never reschedule
    const sim::Tick now = eq_->now();
    if (now >= a.spec.from && now < a.spec.until && !u->crashed()) {
        // A rogue tile writing its own coin CSR: counterfeit coins
        // appear with no mint and no counterparty.
        u->setHas(u->has() + a.spec.amount);
        a.stats.counterfeited += a.spec.amount;
        ++a.stats.pulses;
        record(a, a.spec.amount, u->has(), "counterfeit_pulse");
    }
    if (now + a.spec.period < a.spec.until) {
        eq_->schedule(now + a.spec.period, [this, ap = &a] { pulse(*ap); });
    }
}

void
ByzantinePlan::replay(Agent &a)
{
    blitzcoin::BlitzCoinUnit *u = a.unit;
    if (u == nullptr || u->quarantined())
        return;
    const sim::Tick now = eq_->now();
    if (now >= a.spec.from && now < a.spec.until && !u->crashed() &&
        a.haveCapture) {
        // Resend the captured CoinUpdate verbatim: same initiator,
        // same stamp, same delta. The initiator's sequence tracking
        // must discard it — every acceptance would double-apply.
        noc::Packet p;
        p.src = a.spec.node;
        p.dst = a.capInitiator;
        p.plane = noc::Plane::Service;
        p.type = noc::MsgType::CoinUpdate;
        p.payload[0] = a.capReported;
        p.payload[1] = u->has();
        p.payload[2] = u->max();
        p.payload[3] = blitzcoin::wire::packTag(
            a.capXid, blitzcoin::wire::FlagOneWay);
        net_->send(p);
        ++a.stats.staleReplays;
        record(a, a.capReported,
               static_cast<std::int64_t>(a.capXid), "stale_replay");
    }
    if (now + a.spec.period < a.spec.until) {
        eq_->schedule(now + a.spec.period, [this, ap = &a] { replay(*ap); });
    }
}

void
ByzantinePlan::arm(sim::EventQueue &eq, noc::Network &net)
{
    BLITZ_ASSERT(eq_ == nullptr, "ByzantinePlan armed twice");
    eq_ = &eq;
    net_ = &net;
    for (auto &a : agents_) {
        BLITZ_ASSERT(a->unit != nullptr,
                     "arm() before corrupt() of node ", a->spec.node);
        switch (a->spec.behavior) {
        case ByzantineBehavior::Inflator:
            eq.schedule(a->spec.from + a->spec.period,
                        [this, ap = a.get()] { pulse(*ap); });
            break;
        case ByzantineBehavior::StaleReplayer:
            eq.schedule(a->spec.from + a->spec.period,
                        [this, ap = a.get()] { replay(*ap); });
            break;
        case ByzantineBehavior::ReplyForger:
        case ByzantineBehavior::Spammer:
        case ByzantineBehavior::StuckGreedy:
            break; // passive: the hook alone carries the attack
        }
    }
}

ByzantineStats
ByzantinePlan::stats() const
{
    ByzantineStats out;
    for (const auto &a : agents_) {
        out.counterfeited += a->stats.counterfeited;
        out.pulses += a->stats.pulses;
        out.forgedReplies += a->stats.forgedReplies;
        out.refusedPayouts += a->stats.refusedPayouts;
        out.staleReplays += a->stats.staleReplays;
        out.lyingStatuses += a->stats.lyingStatuses;
    }
    return out;
}

} // namespace blitz::fault
