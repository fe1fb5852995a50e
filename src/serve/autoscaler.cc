#include "serve/autoscaler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pcnn {

AutoscalerPolicy::AutoscalerPolicy(AutoscalerConfig config,
                                   std::size_t max_replicas)
    : cfg(config), maxReplicas(max_replicas)
{
    pcnn_assert(cfg.minReplicas >= 1, "minReplicas must be >= 1");
    pcnn_assert(maxReplicas >= cfg.minReplicas,
                "maxReplicas must be >= minReplicas");
    pcnn_assert(cfg.shrinkBacklogS <= cfg.growBacklogS,
                "shrink threshold must not exceed grow threshold");
    pcnn_assert(cfg.growHold >= 1 && cfg.shrinkHold >= 1,
                "hold counts must be >= 1");
}

AutoscalerPolicy::Action
AutoscalerPolicy::tick(double backlog_per_replica_s,
                       std::size_t replicas)
{
    if (cooldown > 0) {
        // Streaks restart after the cooldown: evidence gathered
        // while the last action was still settling is stale.
        --cooldown;
        growStreak = 0;
        shrinkStreak = 0;
        return Action::Hold;
    }
    if (backlog_per_replica_s > cfg.growBacklogS) {
        shrinkStreak = 0;
        if (++growStreak >= cfg.growHold && replicas < maxReplicas) {
            growStreak = 0;
            cooldown = cfg.cooldownTicks;
            return Action::Grow;
        }
        return Action::Hold;
    }
    if (backlog_per_replica_s < cfg.shrinkBacklogS) {
        growStreak = 0;
        if (++shrinkStreak >= cfg.shrinkHold &&
            replicas > cfg.minReplicas) {
            shrinkStreak = 0;
            cooldown = cfg.cooldownTicks;
            return Action::Shrink;
        }
        return Action::Hold;
    }
    // Deadband: the pool is sized about right; both streaks restart
    // so brief excursions on either side cannot accumulate into an
    // action (the no-flapping guarantee on a steady load step).
    growStreak = 0;
    shrinkStreak = 0;
    return Action::Hold;
}

double
backlogPerReplicaS(std::size_t queued, std::size_t replicas,
                   std::size_t max_batch, double batch_service_est_s)
{
    if (queued == 0 || batch_service_est_s <= 0.0)
        return 0.0;
    const std::size_t r = std::max<std::size_t>(1, replicas);
    const std::size_t mb = std::max<std::size_t>(1, max_batch);
    const auto batches = static_cast<double>((queued + mb - 1) / mb);
    return batches * batch_service_est_s / static_cast<double>(r);
}

} // namespace pcnn
