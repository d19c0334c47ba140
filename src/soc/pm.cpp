#include "pm.hpp"

#include "pm_impl.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace blitz::soc {

const char *
pmKindName(PmKind k)
{
    switch (k) {
      case PmKind::BlitzCoin:         return "BC";
      case PmKind::BlitzCoinCentral:  return "BC-C";
      case PmKind::CentralRoundRobin: return "C-RR";
      case PmKind::StaticAlloc:       return "Static";
    }
    return "?";
}

PowerManager::PowerManager(const PmContext &ctx, const PmConfig &cfg)
    : ctx_(ctx), cfg_(cfg), active_(ctx.soc.size(), false),
      probe_(ctx.eq, [this] { probeTick(); }, sim::Priority::Stats)
{
    if (cfg_.budgetMw <= 0.0)
        sim::fatal("power manager needs a positive budget");

    // The coin scale covers the managed accelerators: one coin is the
    // budget divided into units sized so the largest tile's Fmax maps
    // to full counter scale. Idle floors cannot be reallocated — every
    // tile pays its own even when fully drained — so only the budget
    // above the sum of floors is distributable as coins (the paper's
    // "fixed number of coins allocated to non-accelerator tiles and
    // the NoC" plays the same bookkeeping role, Section IV-C).
    std::vector<double> managed_pmax;
    double idle_floor = 0.0;
    for (noc::NodeId id : ctx_.soc.managedAccelerators()) {
        managed_pmax.push_back(ctx_.soc.tile(id).curve->pMax());
        idle_floor += ctx_.soc.tile(id).curve->pIdle();
    }
    const double distributable = cfg_.budgetMw - idle_floor;
    if (distributable <= 0.0) {
        sim::fatal("budget ", cfg_.budgetMw,
                   " mW does not even cover the ", idle_floor,
                   " mW of idle floors");
    }
    scale_ = coin::makeScale(distributable, managed_pmax, cfg_.coinBits);

    // Per-node targets: policy applied as if every managed tile were
    // active; activity gates the value 0 <-> max at runtime.
    std::vector<double> pmax_by_node = ctx_.soc.pMaxByNode();
    std::vector<bool> all_active(ctx_.soc.size(), false);
    for (noc::NodeId id : ctx_.soc.managedAccelerators())
        all_active[id] = true;
    // Unmanaged accelerators must not receive coin targets.
    for (noc::NodeId i = 0; i < ctx_.soc.size(); ++i) {
        if (!all_active[i])
            pmax_by_node[i] = 0.0;
    }
    maxCoins_ = coin::computeMaxCoins(cfg_.alloc, pmax_by_node,
                                      all_active, scale_, cfg_.coinBits);
}

void
PowerManager::noteActivityChange()
{
    // Overlapping changes measure from the most recent one, matching
    // how the paper isolates transitions (Fig. 20 captures a single
    // task-end event).
    pendingChange_ = ctx_.eq.now();
}

void
PowerManager::noteSettled()
{
    if (!pendingChange_)
        return;
    response_.add(static_cast<double>(ctx_.eq.now() - *pendingChange_));
    if (tracer_) {
        tracer_->complete(
            "pm", "settle", 0, *pendingChange_, ctx_.eq.now(),
            {{"response_ticks", static_cast<std::int64_t>(
                                    ctx_.eq.now() - *pendingChange_)}});
    }
    pendingChange_.reset();
}

void
PowerManager::registerMetrics(trace::Registry &reg)
{
    reg.sampled("pm.responses", [this] {
        return static_cast<double>(response_.count());
    });
    reg.sampled("pm.response_mean_ticks",
                [this] { return response_.mean(); });
    reg.sampled("pm.response_max_ticks",
                [this] { return response_.max(); });
}

bool
PowerManager::tilesSettled() const
{
    for (noc::NodeId id : ctx_.soc.managedAccelerators()) {
        const AcceleratorTile *tile = ctx_.tiles[id];
        if (tile && !tile->uvfr().settled())
            return false;
    }
    return true;
}

namespace {
constexpr sim::Tick kProbePeriod = 16;
} // namespace

void
PowerManager::probeTick()
{
    if (!awaitingSettle())
        return;
    if (settleCondition() && tilesSettled())
        noteSettled();
    else
        probe_.armIn(kProbePeriod);
}

void
PowerManager::armSettleProbe()
{
    if (!probe_.armed())
        probe_.armIn(kProbePeriod);
}

std::unique_ptr<PowerManager>
makePowerManager(const PmContext &ctx, const PmConfig &cfg)
{
    switch (cfg.kind) {
      case PmKind::BlitzCoin:
        return std::make_unique<BlitzCoinPm>(ctx, cfg);
      case PmKind::BlitzCoinCentral:
        return std::make_unique<CentralPm>(ctx, cfg, /*roundRobin=*/false);
      case PmKind::CentralRoundRobin:
        return std::make_unique<CentralPm>(ctx, cfg, /*roundRobin=*/true);
      case PmKind::StaticAlloc:
        return std::make_unique<StaticPm>(ctx, cfg);
    }
    sim::panic("unknown power-manager kind");
}

} // namespace blitz::soc
