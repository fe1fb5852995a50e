/**
 * @file
 * Per-model replica autoscaling policy (DESIGN.md §5k).
 *
 * The signal is *backlog seconds per replica*: the EWMA-estimated
 * time one replica would need to drain the model's current queue.
 * Replica counts translate arena budget into service capacity, so
 * the policy is deliberately sluggish — a deadband between the grow
 * and shrink thresholds, consecutive-tick holds on both sides, and a
 * post-action cooldown — because each grow costs an arena allocation
 * and warm-up forward, and flapping would re-pay that cost on every
 * load ripple.
 *
 * The policy itself is pure (no clock, no threads, no engine types):
 * tick() maps one observation to Hold/Grow/Shrink, which makes the
 * hysteresis behavior exhaustively unit-testable. The engine's
 * scaler thread owns the clock and the replica plumbing.
 */

#ifndef PCNN_SERVE_AUTOSCALER_HH
#define PCNN_SERVE_AUTOSCALER_HH

#include <cstddef>

namespace pcnn {

/**
 * Autoscaling thresholds and hysteresis, shared by every model. The
 * growth ceiling is per model (ModelConfig::maxReplicas) and is
 * handed to each AutoscalerPolicy on its own.
 */
struct AutoscalerConfig
{
    std::size_t minReplicas = 1; ///< never shrink below
    /// grow when backlog-per-replica exceeds this for growHold ticks
    double growBacklogS = 0.050;
    /// shrink when backlog-per-replica is under this for shrinkHold
    /// ticks; must sit well below growBacklogS (the deadband between
    /// them is what prevents flapping)
    double shrinkBacklogS = 0.005;
    std::size_t growHold = 2;      ///< consecutive ticks to grow
    std::size_t shrinkHold = 6;    ///< consecutive ticks to shrink
    /// ticks after any action during which the policy holds and
    /// restarts its streaks (lets the replica change take effect
    /// before it is judged)
    std::size_t cooldownTicks = 3;
};

/** One model's scaling state machine. */
class AutoscalerPolicy
{
  public:
    /** What the engine should do to the replica pool this tick. */
    enum class Action
    {
        Hold,
        Grow,   ///< add one replica
        Shrink, ///< retire one idle replica
    };

    /** @param max_replicas never grow past (the model's ceiling) */
    AutoscalerPolicy(AutoscalerConfig config, std::size_t max_replicas);

    /**
     * Feed one observation; returns the action to take now.
     * @param backlog_per_replica_s estimated seconds one replica's
     *        share of the queue needs to drain
     * @param replicas current pool size
     */
    Action tick(double backlog_per_replica_s, std::size_t replicas);

    /** The configuration this policy runs under. */
    const AutoscalerConfig &config() const { return cfg; }

  private:
    AutoscalerConfig cfg;
    std::size_t maxReplicas;
    std::size_t growStreak = 0;
    std::size_t shrinkStreak = 0;
    std::size_t cooldown = 0;
};

/**
 * The backlog signal: estimated seconds one replica's share of the
 * queue needs to drain, assuming full maxBatch batches at the
 * estimated per-batch service time. 0 when the queue is empty or no
 * service time has been observed yet.
 */
double backlogPerReplicaS(std::size_t queued, std::size_t replicas,
                          std::size_t max_batch,
                          double batch_service_est_s);

} // namespace pcnn

#endif // PCNN_SERVE_AUTOSCALER_HH
