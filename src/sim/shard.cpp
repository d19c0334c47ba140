#include "shard.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "env.hpp"
#include "logging.hpp"

namespace blitz::sim {

namespace {

/** Monotonic wall-clock in ns — profiler accounting only. */
inline std::uint64_t
probeNow()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
ShardProbe::init(std::uint32_t shardCount)
{
    shards.assign(shardCount, Shard{});
    drain = Phase{};
    serial = Phase{};
    mailbox.assign(static_cast<std::size_t>(shardCount) * shardCount,
                   0);
    supersteps = fastPath = barriers = 0;
}

double
ShardProbe::imbalance() const
{
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    for (const Shard &s : shards) {
        lo = std::min(lo, s.execute.ns);
        hi = std::max(hi, s.execute.ns);
    }
    if (shards.empty() || hi == 0)
        return 1.0;
    // An idle shard would make the ratio infinite; clamp the floor to
    // one nanosecond so the number stays finite and screams anyway.
    return static_cast<double>(hi) /
           static_cast<double>(std::max<std::uint64_t>(lo, 1));
}

std::uint32_t
defaultShards()
{
    return envCount("BLITZ_SHARDS").value_or(1);
}

std::vector<std::uint32_t>
columnBands(std::uint32_t width, std::uint32_t height,
            std::uint32_t shards)
{
    BLITZ_ASSERT(width > 0 && height > 0 && shards > 0,
                 "columnBands needs a non-empty mesh and >= 1 shard");
    const std::uint32_t bands = std::min(shards, width);
    std::vector<std::uint32_t> map(static_cast<std::size_t>(width) *
                                   height);
    for (std::uint32_t y = 0; y < height; ++y)
        for (std::uint32_t x = 0; x < width; ++x)
            map[static_cast<std::size_t>(y) * width + x] =
                x * bands / width;
    return map;
}

ShardGroup::ShardGroup(EventQueue &anchor, std::uint32_t shards,
                       std::vector<std::uint32_t> shardOfNode)
    : anchor_(anchor), shards_(shards),
      nodeCount_(static_cast<std::uint32_t>(shardOfNode.size())),
      shardOfNode_(std::move(shardOfNode))
{
    BLITZ_ASSERT(shards_ >= 1, "a shard group needs >= 1 shard");
    BLITZ_ASSERT(nodeCount_ > 0, "a shard group needs a mesh");
    // Index-width contract: the serial lane's locus is nodeCount_, one
    // past the mesh, and both must fit the 20-bit ord key field.
    BLITZ_ASSERT(nodeCount_ <= kMaxMeshNodes,
                 "mesh exceeds the sharded ordering key's ",
                 kMaxMeshNodes, "-node ceiling");
    // Every shard must own a node, checked before anything is sized
    // by the shard count: an empty shard is a worker with no locus,
    // and an over-wide count (up to 2^32 - 1) would wrap shards_ + 1.
    BLITZ_ASSERT(shards_ <= nodeCount_, "a shard group of ", shards_,
                 " shards over ", nodeCount_,
                 " nodes leaves some shard without a node");
    std::vector<bool> owned(shards_, false);
    for (std::uint32_t s : shardOfNode_) {
        BLITZ_ASSERT(s < shards_, "node mapped to nonexistent shard");
        owned[s] = true;
    }
    for (std::uint32_t s = 0; s < shards_; ++s)
        BLITZ_ASSERT(owned[s], "shard ", s, " owns no node");

    locusCounters_.assign(nodeCount_ + 1, 0);
    arenas_.reserve(shards_ + 1);
    leaves_.reserve(shards_ + 1);
    leafPtrs_.reserve(shards_ + 1);
    // Up-front arena sizing (growth policy): each shard's slab, bucket
    // pool, and packet pool live in its arena, and their combined
    // high-water mark creeps slightly past any warmup's peak. A
    // per-node budget plus a generous floor keeps that whole footprint
    // inside the first chunk, so steady state never grows a chunk —
    // the allocation-free property the zero-alloc tests pin. Oversized
    // meshes fall back to the arena's geometric chunk growth.
    const std::size_t perShardReserve =
        256 * 1024 +
        2048 * (static_cast<std::size_t>(nodeCount_) / shards_ + 1);
    for (std::uint32_t s = 0; s <= shards_; ++s) {
        arenas_.push_back(std::make_unique<Arena>());
        arenas_.back()->reserve(perShardReserve);
        leaves_.push_back(
            std::make_unique<EventQueue>(arenas_.back().get()));
        leafPtrs_.push_back(leaves_.back().get());
        // Leaves inherit the anchor's clock so a group created
        // mid-simulation starts from the right "now".
        leaves_.back()->now_ = anchor_.now_;
    }
    mail_.resize(static_cast<std::size_t>(shards_) * shards_);
    shardActive_.assign(shards_, 0);
    workerSeq_.assign(shards_, 0);
    phaseExecuted_.assign(shards_, 0);
    phaseNs_.assign(shards_, 0);

    ShardBinding b;
    b.group = this;
    b.leaves = leafPtrs_.data();
    b.shardCount = shards_;
    b.shardOfNode = shardOfNode_.data();
    b.nodeCount = nodeCount_;
    b.locusCounters = locusCounters_.data();
    b.crossPush = &crossPushHook;
    b.runUntil = &runUntilHook;
    anchor_.bindShardGroup(b);

    // Shard 0's phase always runs on the calling thread, so only
    // shards 1..N-1 get workers (and a 1-shard group spawns none —
    // the whole superstep loop stays single-threaded).
    for (std::uint32_t s = 1; s < shards_; ++s)
        workers_.emplace_back([this, s] { workerMain(s); });
}

ShardGroup::~ShardGroup()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    anchor_.bindShardGroup(ShardBinding{});
}

void
ShardGroup::crossPushHook(ShardGroup *g, std::uint32_t srcShard,
                          std::uint32_t dstShard, Tick when,
                          std::uint64_t ord, std::uint32_t locus,
                          void (*invoke)(void *), const void *payload,
                          std::size_t bytes)
{
    // The conservative-lookahead contract: nothing may cross a shard
    // boundary inside the current superstep's tick. The NoC's 1-tick
    // hop latency satisfies this by construction; anything else that
    // trips it is a determinism bug, not a tuning knob.
    BLITZ_ASSERT(when > g->epochTick_,
                 "cross-shard event inside the lookahead horizon (",
                 when, " <= ", g->epochTick_, ")");
    BLITZ_ASSERT(bytes <= EventQueue::kInlineCallback,
                 "cross-shard payload exceeds the inline buffer");
    auto &box = g->mail_[static_cast<std::size_t>(srcShard) *
                             g->shards_ +
                         dstShard]
                    .entries;
    box.emplace_back();
    CrossEvent &e = box.back();
    e.when = when;
    e.ord = ord;
    e.locus = locus;
    e.bytes = static_cast<std::uint32_t>(bytes);
    e.invoke = invoke;
    std::memcpy(e.buf, payload, bytes);
}

std::uint64_t
ShardGroup::runUntilHook(ShardGroup *g, Tick limit)
{
    return g->runUntilImpl(limit);
}

void
ShardGroup::attachProbe(ShardProbe *probe)
{
    if (probe && probe->shards.size() != shards_)
        probe->init(shards_);
    // Publish under the barrier mutex: workers only read probe_ after
    // an acquire of mu_ that the next phase hand-off forces, so no
    // worker can observe a torn or stale pointer mid-phase.
    std::lock_guard<std::mutex> lk(mu_);
    probe_ = probe;
    std::fill(phaseNs_.begin(), phaseNs_.end(), 0);
}

/** Fold one barrier superstep's per-shard timings into the probe. */
void
ShardGroup::probeBarrier(std::uint64_t spanNs)
{
    ShardProbe &p = *probe_;
    for (std::uint32_t s = 0; s < shards_; ++s) {
        if (!shardActive_[s] && phaseNs_[s] == 0)
            continue;
        const std::uint64_t exec = phaseNs_[s];
        ShardProbe::Shard &slot = p.shards[s];
        slot.execute.ns += exec;
        ++slot.execute.count;
        slot.barrier.ns += spanNs > exec ? spanNs - exec : 0;
        ++slot.barrier.count;
        slot.executed += phaseExecuted_[s];
        phaseNs_[s] = 0;
        phaseExecuted_[s] = 0;
    }
    ++p.barriers;
}

std::uint64_t
ShardGroup::runShardPhase(std::uint32_t shard, Tick t)
{
    ShardContext ctx;
    ctx.queue = leafPtrs_[shard];
    ctx.shard = shard;
    ctx.locus = nodeCount_;
    ctx.serial = false;
    ShardContext *&tls = tlsShardContext();
    ShardContext *saved = tls;
    tls = &ctx;
    leafPtrs_[shard]->setContext(&ctx);
    const std::uint64_t n = leafPtrs_[shard]->runUntil(t);
    leafPtrs_[shard]->setContext(nullptr);
    tls = saved;
    return n;
}

void
ShardGroup::drainMail()
{
    const std::uint64_t t0 = probe_ ? probeNow() : 0;
    // Fixed (src, dst) drain order — though the order is cosmetic:
    // every entry carries its full partition-independent sort key, so
    // the leaf heap produces the same execution order no matter how
    // the mailboxes interleaved.
    for (std::uint32_t src = 0; src < shards_; ++src) {
        for (std::uint32_t dst = 0; dst < shards_; ++dst) {
            auto &box =
                mail_[static_cast<std::size_t>(src) * shards_ + dst]
                    .entries;
            for (const CrossEvent &e : box)
                leafPtrs_[dst]->scheduleRaw(e.when, e.ord, e.locus,
                                            e.invoke, e.buf, e.bytes);
            crossEvents_ += box.size();
            if (probe_)
                probe_->mailbox[static_cast<std::size_t>(src) *
                                    shards_ +
                                dst] += box.size();
            box.clear(); // keeps capacity: steady state allocates nothing
        }
    }
    if (probe_) {
        probe_->drain.ns += probeNow() - t0;
        ++probe_->drain.count;
    }
}

void
ShardGroup::workerMain(std::uint32_t shard)
{
    std::uint64_t seenSeq = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        // Wait on this worker's *own* assignment slot, not a shared
        // active[] array: a parked worker that is slow to wake must
        // not consult per-superstep state the main thread has already
        // moved past (the fast path rewrites it without the lock).
        // workerSeq_[shard] changes only under mu_, and only while
        // the barrier holds the main thread until this phase is done.
        workCv_.wait(lk, [&] {
            return shutdown_ || workerSeq_[shard] != seenSeq;
        });
        if (shutdown_)
            return;
        seenSeq = workerSeq_[shard];
        const Tick t = epochTick_;
        const ShardProbe *probe = probe_; // read under mu_
        lk.unlock();
        const std::uint64_t t0 = probe ? probeNow() : 0;
        const std::uint64_t n = runShardPhase(shard, t);
        // Clamp to >= 1 ns so probeBarrier can tell "ran and measured
        // zero" from "did not run" without another flag array.
        const std::uint64_t ns =
            probe ? std::max<std::uint64_t>(probeNow() - t0, 1) : 0;
        lk.lock();
        phaseExecuted_[shard] = n;
        phaseNs_[shard] = ns;
        if (--pendingWorkers_ == 0)
            doneCv_.notify_one();
    }
}

std::uint64_t
ShardGroup::runUntilImpl(Tick limit)
{
    std::uint64_t executed = 0;
    EventQueue *serial = leafPtrs_[shards_];
    if (shards_ == 1) {
        // Single-shard groups keep the sharded sort keys (so digests
        // stay bit-identical with s2/s4) but need none of the
        // superstep machinery: with one shard the target of every
        // scheduleAtNode equals the executing shard, so crossPush can
        // never fire and the mailboxes stay empty by construction.
        // The only ordering constraint left is that leaf events at
        // tick T run before serial-lane events at T, and no serial
        // event can be *created* while the leaf runs (every
        // in-context schedule targets the leaf). So run the leaf in
        // segments up to the next serial event instead of
        // tick-at-a-time: one context install per segment, no
        // active-shard scan, no barrier bookkeeping.
        EventQueue *leaf = leafPtrs_[0];
        ShardContext ctx;
        ctx.queue = leaf;
        ctx.shard = 0;
        ctx.locus = nodeCount_;
        ctx.serial = false;
        ShardContext *&tls = tlsShardContext();
        ShardContext *saved = tls;
        for (;;) {
            const Tick ts = serial->nextTick();
            const Tick t = std::min(ts, leaf->nextTick());
            if (t == maxTick || t > limit)
                break;
            ++epochs_;
            const Tick stop = std::min(ts, limit);
            epochTick_ = stop;
            std::uint64_t t0 = probe_ ? probeNow() : 0;
            tls = &ctx;
            leaf->setContext(&ctx);
            const std::uint64_t n = leaf->runUntil(stop);
            executed += n;
            leaf->setContext(nullptr);
            tls = saved;
            if (probe_) {
                ShardProbe::Shard &slot = probe_->shards[0];
                slot.execute.ns += probeNow() - t0;
                ++slot.execute.count;
                slot.executed += n;
                ++probe_->supersteps;
                ++probe_->fastPath;
            }
            if (ts > limit)
                break;
            // Serial events at ts may schedule leaf events back at
            // ts (audit repair via LocusScope); the outer loop then
            // runs the leaf again at the same tick, exactly like the
            // general superstep loop's same-tick repeat.
            ShardContext sctx;
            sctx.queue = serial;
            sctx.shard = shards_;
            sctx.locus = nodeCount_;
            sctx.serial = true;
            t0 = probe_ ? probeNow() : 0;
            tls = &sctx;
            serial->setContext(&sctx);
            executed += serial->runUntil(ts);
            serial->setContext(nullptr);
            tls = saved;
            if (probe_) {
                probe_->serial.ns += probeNow() - t0;
                ++probe_->serial.count;
            }
        }
        leaf->advanceTo(limit);
        serial->advanceTo(limit);
        return executed;
    }
    for (;;) {
        // Next superstep tick: the globally earliest pending event.
        // Mailboxes are empty here (drained before the previous
        // superstep ended), so the leaves see everything.
        Tick t = serial->nextTick();
        for (std::uint32_t s = 0; s < shards_; ++s)
            t = std::min(t, leafPtrs_[s]->nextTick());
        if (t == maxTick || t > limit)
            break;
        ++epochs_;
        epochTick_ = t;

        std::uint32_t active = 0;
        std::uint32_t first = shards_;
        for (std::uint32_t s = 0; s < shards_; ++s) {
            const bool a = leafPtrs_[s]->nextTick() <= t;
            shardActive_[s] = a ? 1 : 0;
            if (a) {
                ++active;
                if (first == shards_)
                    first = s;
            }
        }
        if (active == 1) {
            // Fast path: one shard has work at this tick — run it
            // inline, no barrier, no worker wakeups. Sparse-traffic
            // phases (most of a chaos run) live here.
            const std::uint64_t t0 = probe_ ? probeNow() : 0;
            const std::uint64_t n = runShardPhase(first, t);
            executed += n;
            if (probe_) {
                ShardProbe::Shard &slot = probe_->shards[first];
                slot.execute.ns += probeNow() - t0;
                ++slot.execute.count;
                slot.executed += n;
                ++probe_->fastPath;
            }
            drainMail();
        } else if (active > 1) {
            shardActive_[first] = 0; // driven inline below
            {
                std::lock_guard<std::mutex> lk(mu_);
                pendingWorkers_ = active - 1;
                ++phaseSeq_;
                for (std::uint32_t s = 1; s < shards_; ++s)
                    if (shardActive_[s])
                        workerSeq_[s] = phaseSeq_;
            }
            workCv_.notify_all();
            const std::uint64_t t0 = probe_ ? probeNow() : 0;
            const std::uint64_t firstN = runShardPhase(first, t);
            const std::uint64_t firstNs =
                probe_ ? std::max<std::uint64_t>(probeNow() - t0, 1)
                       : 0;
            executed += firstN;
            {
                std::unique_lock<std::mutex> lk(mu_);
                doneCv_.wait(lk,
                             [&] { return pendingWorkers_ == 0; });
                for (std::uint32_t s = 0; s < shards_; ++s)
                    if (shardActive_[s])
                        executed += phaseExecuted_[s];
                if (probe_) {
                    // The barrier span is dispatch-to-drain as the
                    // main thread saw it; per-shard barrier wait is
                    // span minus own execute time.
                    phaseNs_[first] = firstNs;
                    phaseExecuted_[first] = firstN;
                    probeBarrier(probeNow() - t0);
                }
            }
            drainMail();
        }

        // Serial lane: mesh-global observers (audits, samplers) run
        // between supersteps, after every shard has settled tick t.
        if (serial->nextTick() <= t) {
            ShardContext ctx;
            ctx.queue = serial;
            ctx.shard = shards_;
            ctx.locus = nodeCount_;
            ctx.serial = true;
            ShardContext *&tls = tlsShardContext();
            ShardContext *saved = tls;
            const std::uint64_t t0 = probe_ ? probeNow() : 0;
            tls = &ctx;
            serial->setContext(&ctx);
            executed += serial->runUntil(t);
            serial->setContext(nullptr);
            tls = saved;
            if (probe_) {
                probe_->serial.ns += probeNow() - t0;
                ++probe_->serial.count;
            }
        }
        if (probe_)
            ++probe_->supersteps;
        // A serial event may have scheduled *at* tick t again (audit
        // repair via LocusScope): the loop re-derives t and repeats
        // the superstep at the same tick until it is truly drained.
    }
    for (std::uint32_t s = 0; s <= shards_; ++s)
        leafPtrs_[s]->advanceTo(limit);
    return executed;
}

} // namespace blitz::sim
