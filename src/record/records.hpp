/**
 * @file
 * Flight-recorder record types.
 *
 * Every observable state transition the simulator considers
 * semantically meaningful — a coin exchange resolving, a NoC packet
 * reaching its endpoint, the fault plane destroying or mutating a
 * flit, a power-management actuation — is journaled as one fixed-size
 * POD record. Records are plain integers on purpose: blitz_record
 * sits directly above blitz_sim in the link order, so every layer
 * (noc, coin, blitzcoin, fault, soc) can emit records without
 * creating a dependency cycle.
 *
 * The layout is padding-free and trivially copyable, so a record
 * stream can be memcmp-compared, FNV-digested, and written to disk
 * verbatim — the properties the replay engine's lockstep check and
 * the divergence bisector rely on.
 */

#ifndef BLITZ_RECORD_RECORDS_HPP
#define BLITZ_RECORD_RECORDS_HPP

#include <cstdint>
#include <type_traits>

#include "sim/types.hpp"

namespace blitz::record {

/** What a record describes. Values are part of the on-disk format. */
enum class RecordKind : std::uint8_t
{
    /** Coins created from nothing (provisioning, restart restore). */
    Mint = 0,
    // 1 was Transfer, which nothing emits any more. Old .blzr logs may
    // still hold it, so the value is retired: never reuse it.
    /** Coins destroyed (audit negative correction). */
    Burn = 2,
    /** Audit watchdog re-created coins lost to a crash. */
    Remint = 3,
    /** A coin exchange resolved at the initiator. */
    Exchange = 4,
    /** A NoC packet reached its endpoint demux. */
    NocDeliver = 5,
    /** Fault plane destroyed a packet. */
    FaultDrop = 6,
    /** Fault plane delayed a packet. */
    FaultDelay = 7,
    /** Fault plane duplicated a packet. */
    FaultDuplicate = 8,
    /** Fault plane flipped payload bits in a packet. */
    FaultCorrupt = 9,
    /** A tile lost power; its coins are destroyed. */
    Crash = 10,
    /** A crashed tile came back. */
    Restart = 11,
    /** PM layer actuated a tile's frequency target. */
    PmActuation = 12,
    /** Per-tile holdings at a snapshot epoch boundary. */
    Snapshot = 13,
    /** Epoch marker closing a snapshot: carries the state digest. */
    SnapshotMark = 14,
    /** Byzantine plan action (counterfeit pulse, stale replay...). */
    Byzantine = 15,
    /** Integrity guardian detection or escalation decision. */
    Guardian = 16,
    /** Physics-plane throttle decision (thermal/rail/board TDP). */
    Throttle = 17,
};

const char *recordKindName(RecordKind k);

/** Exchange outcome codes carried in Record::flag. */
enum : std::uint8_t
{
    kOutcomeServed = 0,    ///< partner applied the delta
    kOutcomeOk = 1,        ///< initiator saw the reply in time
    kOutcomeRecovered = 2, ///< delta replayed via CoinRecover
    kOutcomeUnknown = 3,   ///< partner lost its log; delta untraceable
    kOutcomeTimeout = 4,   ///< reply missed the window; probing started
    kOutcomeAbandoned = 5, ///< recovery gave up; left to the audit
};

/** Fault-decision site codes carried in Record::flag. */
enum : std::uint8_t
{
    kSiteInject = 0,    ///< rate-driven injection (FaultRates)
    kSiteOutage = 1,    ///< node down / frozen window
    kSitePartition = 2, ///< severed mesh link
};

/** Throttle event codes carried in Record::flag. */
enum : std::uint8_t
{
    kThrottleEngage = 0,  ///< a limit source asserted a cap
    kThrottleRelease = 1, ///< a limit source cleared its cap
};

/**
 * One journaled state transition. 48 bytes, no padding: the first
 * 16 bytes are the (tick, lane, kind) envelope, the remaining 32 the
 * kind-specific payload. Field conventions per kind:
 *
 *   Mint/Remint    p0=tile p1=amount p2=p3=-1 (no coin lineage)
 *   Burn           p0=tile p1=amount
 *   Exchange       p0=initiator p1=partner p2=xid p3=delta
 *                  flag=outcome code
 *   NocDeliver     p0=dst p1=(plane<<8)|msgType p2=seq p3=injectTick
 *   Fault*         p0=src p1=dst p2=seq p3=extra (delay ticks /
 *                  corrupted word) flag=site code aux=msgType
 *   Crash/Restart  p0=tile p1=coins lost/restored
 *   PmActuation    p0=tile p1=freq target in milli-MHz
 *   Snapshot       p0=tile p1=has p2=epoch
 *   SnapshotMark   p0=epoch p1=tiles p3=state digest
 *   Byzantine      p0=node p1=amount p2=extra flag=behavior code
 *   Guardian       p0=tile p1=strikes p2=detector mask p3=evidence
 *                  flag=event (0 detect, 1 warn, 2 throttle,
 *                  3 quarantine)
 *   Throttle       p0=tile p1=source cap milli-MHz (0 on release)
 *                  p2=effective cap milli-MHz (0 = uncapped)
 *                  p3=active source mask flag=event (0 engage,
 *                  1 release) aux=source (0 thermal, 1 rail,
 *                  2 board TDP)
 */
struct Record
{
    sim::Tick tick = 0;
    std::uint32_t lane = 0; ///< sweep replication lane
    RecordKind kind = RecordKind::Mint;
    std::uint8_t flag = 0;
    std::uint16_t aux = 0;
    std::int64_t p0 = 0;
    std::int64_t p1 = 0;
    std::int64_t p2 = 0;
    std::int64_t p3 = 0;
};

static_assert(sizeof(Record) == 48, "record layout is part of the "
                                    "on-disk format");
static_assert(std::is_trivially_copyable_v<Record>,
              "records are written to disk verbatim");

inline bool
operator==(const Record &a, const Record &b)
{
    return a.tick == b.tick && a.lane == b.lane && a.kind == b.kind &&
           a.flag == b.flag && a.aux == b.aux && a.p0 == b.p0 &&
           a.p1 == b.p1 && a.p2 == b.p2 && a.p3 == b.p3;
}

inline bool
operator!=(const Record &a, const Record &b)
{
    return !(a == b);
}

} // namespace blitz::record

#endif // BLITZ_RECORD_RECORDS_HPP
