#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <exception>
#include <optional>

namespace bench {

namespace {

using adapt::Coins;
using adapt::Tick;

/** Per-tile demand (max coins) of the bench-standard 4-type mix. */
Coins
demand(std::size_t tile)
{
    static constexpr Coins levels[4] = {16, 32, 8, 63};
    return levels[tile % 4];
}

// ---- SoC runs -------------------------------------------------------------

/** Check one SoC run and fold its outputs into @p r. */
void
foldSocRun(OpResult &r, adapt::Soc &soc, const adapt::SocOutcome &out)
{
    const adapt::Counters c = adapt::readCounters(soc);
    if (!out.completed)
        r.fail("SoC run missed completion by the horizon");
    if (out.clusterCoins != out.poolCoins)
        r.fail("SoC coin total differs from the provisioned pool");
    r.modelUs += adapt::ticksToUs(out.execTicks);
    r.advancedUs += adapt::ticksToUs(out.endTick);
    r.responses += out.responses;
    r.responseUsSum += out.responseUsSum;
    r.counters += c;
    r.digest.add(out.execTicks);
    r.digest.add(c[adapt::Count::Events]);
    r.digest.add(c[adapt::Count::PacketsSent]);
    r.digest.add(c[adapt::Count::ExchangesInitiated]);
    r.digest.add(out.clusterCoins);
}

/**
 * soc_fig19: one op is a Fig. 19 sweep column — four fresh runs of the
 * 6x6 silicon SoC under BlitzCoin at 150 mW, with 7/5/4/3 accelerators
 * active. Physics and observers stay detached.
 */
class SocFig19 final : public Workload
{
  public:
    explicit SocFig19(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Scope &span) override
    {
        {
            auto s = span.child("build");
            cfg_ = adapt::siliconSoc();
            pm_ = adapt::blitzCoinPm(adapt::siliconBudgetMw);
        }
        auto s = span.child("inputs");
        dags_.clear();
        for (int accels : {7, 5, 4, 3})
            dags_.push_back(adapt::siliconWorkload(cfg_, accels));
    }

    OpResult
    op(std::uint64_t index, Scope &span) override
    {
        OpResult r;
        for (std::size_t j = 0; j < dags_.size(); ++j) {
            const std::uint64_t seed =
                adapt::streamSeed(seed_, index * dags_.size() + j);
            std::unique_ptr<adapt::Soc> soc;
            {
                auto s = span.child("build");
                soc = adapt::buildSoc(cfg_, pm_, seed);
            }
            adapt::SocOutcome out;
            {
                auto s = span.child("run");
                out = adapt::runSoc(*soc, dags_[j]);
            }
            auto s = span.child("check");
            foldSocRun(r, *soc, out);
        }
        return r;
    }

  private:
    std::uint64_t seed_;
    adapt::SocConfig cfg_;
    adapt::PmConfig pm_;
    std::vector<adapt::Dag> dags_;
};

/**
 * soc_thermal_observed: one op is four runs of the 3x3 AV SoC's
 * dependent workload at 120 mW with an enforcing physics plane — trip
 * at 48 C, trip at 52 C, rail at 120 mA, rail at 80 mA — a ring-mode
 * flight recorder attached, and the health report filled after every
 * run.
 */
class SocThermal final : public Workload
{
  public:
    explicit SocThermal(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Scope &span) override
    {
        {
            auto s = span.child("build");
            cfg_ = adapt::avSoc();
            pm_ = adapt::blitzCoinPm(adapt::avBudgetMw);
            recorder_.reset();
            recorder_ = adapt::buildRingRecorder(8);
        }
        auto s = span.child("inputs");
        dag_ = adapt::avDependent(cfg_, 3);
        limits_ = {adapt::thermalTrip(48.0), adapt::thermalTrip(52.0),
                   adapt::railLimit(120.0), adapt::railLimit(80.0)};
        accels_ = adapt::acceleratorCount(cfg_);
    }

    OpResult
    op(std::uint64_t index, Scope &span) override
    {
        OpResult r;
        const std::uint64_t recorded0 = adapt::recordedTotal(*recorder_);
        for (std::size_t j = 0; j < limits_.size(); ++j) {
            const std::uint64_t seed =
                adapt::streamSeed(seed_, index * limits_.size() + j);
            // The plane must outlive the Soc: declared first, dies last.
            std::unique_ptr<adapt::PhysicsPlane> plane;
            std::unique_ptr<adapt::Soc> soc;
            {
                auto s = span.child("build");
                plane = adapt::buildPhysics(limits_[j]);
                soc = adapt::buildSoc(cfg_, pm_, seed);
            }
            {
                auto s = span.child("attach");
                adapt::attachPhysics(*soc, *plane);
                adapt::attachRecorder(*soc, *recorder_);
            }
            adapt::SocOutcome out;
            {
                auto s = span.child("run");
                out = adapt::runSoc(*soc, dag_);
            }
            adapt::Observation obs;
            {
                auto s = span.child("observe");
                obs = adapt::observe(*soc, *recorder_);
            }
            auto s = span.child("check");
            foldSocRun(r, *soc, out);
            adapt::addPhysics(r.counters, *plane, accels_);
            r.digest.add(obs.ringDigest);
            for (double v : obs.health)
                r.digest.add(std::bit_cast<std::uint64_t>(v));
        }
        r.counters[adapt::Count::Recorded] =
            adapt::recordedTotal(*recorder_) - recorded0;
        return r;
    }

  private:
    std::uint64_t seed_;
    adapt::SocConfig cfg_;
    adapt::PmConfig pm_;
    adapt::Dag dag_;
    std::vector<adapt::PhysicsConfig> limits_;
    std::unique_ptr<adapt::Recorder> recorder_;
    std::size_t accels_ = 0;
};

// ---- packet-accurate clusters ---------------------------------------------

/**
 * Program the demand mix and park half the demand as coins on the first
 * quarter of the tiles, so convergence needs long-range transport.
 * Returns the pool.
 */
Coins
provision(adapt::Cluster &c)
{
    const std::size_t n = adapt::tiles(c);
    Coins total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        adapt::setMax(c, i, demand(i));
        total += demand(i);
    }
    const Coins pool = total / 2;
    const auto quarter = static_cast<Coins>(std::max<std::size_t>(n / 4, 1));
    for (Coins i = 0; i < quarter; ++i)
        adapt::setHas(c, static_cast<std::size_t>(i),
                      pool / quarter + (i < pool % quarter ? 1 : 0));
    adapt::sealAndStart(c);
    return pool;
}

/**
 * chaos_6x6: one op is one seed across four 6x6 trials — lossy links,
 * crash + restart under the audit, a timed column partition, and three
 * Byzantine attackers under the guardian — run on the sweep harness
 * with one thread, as bench_chaos does.
 */
class Chaos6x6 final : public Workload
{
  public:
    explicit Chaos6x6(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Scope &span) override
    {
        auto s = span.child("build");
        configs_.clear();
        for (adapt::ChaosMix mix : kMixes)
            configs_.push_back(adapt::chaosConfig(mix, kSide));
    }

    OpResult
    op(std::uint64_t index, Scope &span) override
    {
        return adapt::sweepSerial<OpResult>(
            kMixes.size(), adapt::streamSeed(seed_, index),
            [&](std::size_t j, std::uint64_t seed) {
                return trial(kMixes[j], adapt::seededTrial(configs_[j], seed),
                             span);
            },
            [](OpResult &acc, const OpResult &r, std::size_t) {
                acc.merge(r);
            },
            OpResult{});
    }

  private:
    static constexpr std::array<adapt::ChaosMix, 4> kMixes = {
        adapt::ChaosMix::Lossy, adapt::ChaosMix::Crash,
        adapt::ChaosMix::Partition, adapt::ChaosMix::Byzantine};
    static constexpr int kSide = 6;
    static constexpr double kTolerance = 2.5;
    static constexpr Tick kDeadline = 400'000;

    static OpResult
    trial(adapt::ChaosMix mix, const adapt::ChaosConfig &cc, Scope &span)
    {
        OpResult r;
        try {
            std::unique_ptr<adapt::Cluster> c;
            Coins pool = 0;
            {
                auto s = span.child("build");
                c = adapt::buildCluster(cc);
                pool = provision(*c);
            }
            // Mixes with timed fault windows measure re-convergence after
            // the last window clears.
            const bool timed = mix == adapt::ChaosMix::Crash ||
                               mix == adapt::ChaosMix::Partition;
            const Tick quiet = timed ? adapt::kFaultQuietTick : 0;
            std::optional<Tick> t;
            {
                auto s = span.child("run");
                if (timed)
                    adapt::runUntil(*c, quiet);
                t = adapt::converge(*c, kTolerance, 64, kDeadline);
            }
            Coins gap = 0;
            Coins overdraw = 0;
            const bool byzantine = mix == adapt::ChaosMix::Byzantine;
            {
                auto s = span.child("settle");
                if (byzantine) {
                    adapt::stopAll(*c);
                    adapt::runUntil(*c, adapt::now(*c) + 20'000);
                    gap = adapt::reconcile(*c);
                    overdraw = adapt::totalCoins(*c) - pool;
                } else {
                    gap = adapt::quiesce(*c, 65'536);
                }
            }
            auto s = span.child("check");
            if (!t)
                r.fail("chaos trial did not converge by the deadline");
            if (adapt::totalCoins(*c) != adapt::provisioned(*c))
                r.fail("settled cluster differs from the provisioned pool");
            if (overdraw != 0)
                r.fail("guarded Byzantine trial left an overdraw");
            r.counters = adapt::readCounters(*c);
            r.modelUs = t ? adapt::ticksToUs(*t - quiet) : 0.0;
            r.advancedUs = adapt::ticksToUs(adapt::now(*c));
            r.digest.add(t.value_or(0));
            r.digest.add(gap);
            r.digest.add(r.counters[adapt::Count::Events]);
            r.digest.add(r.counters[adapt::Count::PacketsSent]);
            r.digest.add(r.counters[adapt::Count::ExchangesInitiated]);
            r.digest.add(adapt::totalCoins(*c));
        } catch (const std::exception &e) {
            r.fail(e.what());
        }
        return r;
    }

    std::uint64_t seed_;
    std::vector<adapt::ChaosConfig> configs_;
};

// ---- long-lived meshes ----------------------------------------------------

/**
 * The activity schedule of the long-lived meshes: a square block of a
 * sixteenth of the tiles (side/4 x side/4) goes idle each op while the
 * previous op's block resumes. Blocks sit on a 4x4 grid; the idle block
 * steps through it by a stride coprime to 16, from a start drawn from
 * the seed, so every op moves a block's worth of demand.
 */
class BlockWalk
{
  public:
    static constexpr int kPerRow = 4;
    static constexpr std::uint64_t kStride = 7;

    BlockWalk() = default;

    BlockWalk(int side, std::uint64_t seed)
        : side_(side), block_(side / kPerRow),
          start_(seed % (kPerRow * kPerRow))
    {}

    /** Tiles of the block op @p index idles. */
    std::vector<std::size_t>
    tilesAt(std::uint64_t index) const
    {
        const auto b =
            static_cast<int>((start_ + index * kStride) % (kPerRow * kPerRow));
        const int x0 = (b % kPerRow) * block_;
        const int y0 = (b / kPerRow) * block_;
        std::vector<std::size_t> out;
        out.reserve(static_cast<std::size_t>(block_ * block_));
        for (int y = y0; y < y0 + block_; ++y)
            for (int x = x0; x < x0 + block_; ++x)
                out.push_back(static_cast<std::size_t>(y * side_ + x));
        return out;
    }

  private:
    int side_ = 0;
    int block_ = 0;
    std::uint64_t start_ = 0;
};

/** Apply op @p index's activity change to a mesh. */
template <typename Mesh>
void
walkActivity(Mesh &m, const BlockWalk &walk, std::uint64_t index)
{
    if (index > 0)
        for (std::size_t i : walk.tilesAt(index - 1))
            adapt::setMax(m, i, demand(i));
    for (std::size_t i : walk.tilesAt(index))
        adapt::setMax(m, i, 0);
}

/**
 * mesh_64x64: one long-lived packet-accurate 64x64 cluster (4096
 * BlitzCoin units, no faults, default engine), converged in set-up.
 * One op is an activity change run until the mean error is <= 1 coin.
 * The run ends with stop + quiesce, whose pre-sweep gap must be 0.
 */
class Mesh64 final : public Workload
{
  public:
    explicit Mesh64(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Scope &span) override
    {
        {
            auto s = span.child("build");
            cluster_.reset();
            cluster_ = adapt::buildCluster(
                adapt::quietClusterConfig(kSide, adapt::streamSeed(seed_, 0)));
            pool_ = provision(*cluster_);
        }
        {
            auto s = span.child("inputs");
            walk_ = BlockWalk(kSide, adapt::streamSeed(seed_, 1));
        }
        auto s = span.child("run");
        setupConverged_ =
            adapt::converge(*cluster_, kTolerance, kCheckEvery,
                            adapt::now(*cluster_) + kOpDeadline)
                .has_value();
    }

    OpResult
    op(std::uint64_t index, Scope &span) override
    {
        OpResult r;
        const adapt::Counters before = adapt::readCounters(*cluster_);
        const Tick t0 = adapt::now(*cluster_);
        {
            auto s = span.child("build");
            walkActivity(*cluster_, walk_, index);
        }
        std::optional<Tick> t;
        {
            auto s = span.child("run");
            t = adapt::converge(*cluster_, kTolerance, kCheckEvery,
                                t0 + kOpDeadline);
        }
        auto s = span.child("check");
        if (!setupConverged_)
            r.fail("64x64 cluster did not converge in set-up");
        if (!t)
            r.fail("64x64 activity change did not converge by the deadline");
        r.counters = adapt::readCounters(*cluster_).since(before);
        r.modelUs = t ? adapt::ticksToUs(*t - t0) : 0.0;
        r.advancedUs = adapt::ticksToUs(adapt::now(*cluster_) - t0);
        r.digest.add(t.value_or(0) - t0);
        r.digest.add(r.counters[adapt::Count::Events]);
        r.digest.add(r.counters[adapt::Count::PacketsSent]);
        r.digest.add(r.counters[adapt::Count::ExchangesInitiated]);
        r.digest.add(adapt::totalCoins(*cluster_));
        return r;
    }

    std::string
    finish(Scope &span) override
    {
        Coins gap = 0;
        try {
            auto s = span.child("settle");
            adapt::stopAll(*cluster_);
            gap = adapt::quiesce(*cluster_, 65'536);
        } catch (const std::exception &e) {
            return e.what();
        }
        auto s = span.child("check");
        if (gap != 0)
            return "fault-free 64x64 cluster had a pre-sweep coin gap";
        if (adapt::totalCoins(*cluster_) != pool_)
            return "64x64 cluster does not hold its provisioned pool";
        return {};
    }

  private:
    static constexpr int kSide = 64;
    static constexpr double kTolerance = 1.0;
    static constexpr Tick kCheckEvery = 16;
    static constexpr Tick kOpDeadline = 400'000;

    std::uint64_t seed_;
    std::unique_ptr<adapt::Cluster> cluster_;
    Coins pool_ = 0;
    BlockWalk walk_;
    bool setupConverged_ = false;
};

/**
 * diffusion_100x100: one long-lived behavioral 100x100 mesh with the
 * paper's default engine (the Eq. 5.1 sqrt(N) experiment), converged in
 * set-up from a uniform scatter. One op is the same activity change as
 * mesh_64x64, run until Err < 1 coin. The run ends with an exact
 * tile-by-tile conservation check.
 */
class Diffusion100 final : public Workload
{
  public:
    explicit Diffusion100(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Scope &span) override
    {
        {
            auto s = span.child("build");
            mesh_.reset();
            mesh_ = adapt::buildMeshSim(kSide, adapt::streamSeed(seed_, 0));
            Coins total = 0;
            for (std::size_t i = 0; i < adapt::tiles(*mesh_); ++i) {
                adapt::setMax(*mesh_, i, demand(i));
                total += demand(i);
            }
            pool_ = total / 2;
            adapt::scatter(*mesh_, pool_);
        }
        {
            auto s = span.child("inputs");
            walk_ = BlockWalk(kSide, adapt::streamSeed(seed_, 1));
        }
        auto s = span.child("run");
        setupConverged_ =
            adapt::converge(*mesh_, kTolerance,
                            adapt::now(*mesh_) + kOpDeadline)
                .converged;
    }

    OpResult
    op(std::uint64_t index, Scope &span) override
    {
        OpResult r;
        const adapt::Counters before = adapt::readCounters(*mesh_);
        const Tick t0 = adapt::now(*mesh_);
        {
            auto s = span.child("build");
            walkActivity(*mesh_, walk_, index);
        }
        adapt::MeshRun run;
        {
            auto s = span.child("run");
            run = adapt::converge(*mesh_, kTolerance, t0 + kOpDeadline);
        }
        auto s = span.child("check");
        if (!setupConverged_)
            r.fail("100x100 mesh did not converge in set-up");
        if (!run.converged)
            r.fail("100x100 activity change did not converge by the deadline");
        r.counters = adapt::readCounters(*mesh_).since(before);
        r.modelUs = adapt::ticksToUs(run.time - t0);
        r.advancedUs = adapt::ticksToUs(adapt::now(*mesh_) - t0);
        r.digest.add(run.time - t0);
        r.digest.add(r.counters[adapt::Count::MeshExchanges]);
        r.digest.add(r.counters[adapt::Count::MeshPackets]);
        r.digest.add(adapt::ledgerTotal(*mesh_));
        return r;
    }

    std::string
    finish(Scope &span) override
    {
        auto s = span.child("check");
        if (adapt::heldCoins(*mesh_) != pool_ ||
            adapt::ledgerTotal(*mesh_) != pool_)
            return "100x100 mesh does not hold its provisioned pool";
        return {};
    }

  private:
    static constexpr int kSide = 100;
    static constexpr double kTolerance = 1.0;
    static constexpr Tick kOpDeadline = 4'000'000;

    std::uint64_t seed_;
    std::unique_ptr<adapt::MeshSim> mesh_;
    Coins pool_ = 0;
    BlockWalk walk_;
    bool setupConverged_ = false;
};

} // namespace

const std::vector<const char *> &
workloads()
{
    static const std::vector<const char *> names = {
        "soc_fig19", "soc_thermal_observed", "chaos_6x6", "mesh_64x64",
        "diffusion_100x100"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "soc_fig19")
        return std::make_unique<SocFig19>(seed);
    if (name == "soc_thermal_observed")
        return std::make_unique<SocThermal>(seed);
    if (name == "chaos_6x6")
        return std::make_unique<Chaos6x6>(seed);
    if (name == "mesh_64x64")
        return std::make_unique<Mesh64>(seed);
    if (name == "diffusion_100x100")
        return std::make_unique<Diffusion100>(seed);
    return nullptr;
}

} // namespace bench
