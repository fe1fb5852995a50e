/**
 * @file
 * Multi-model, multi-tenant serving engine (DESIGN.md §5k).
 *
 * The one serving engine: one shared worker pool serves every model
 * in a ModelRegistry through the QueueFabric's priority rules (a
 * single-model deployment is a registry of one). Each model owns a
 * replica pool (clones sharing the frozen prototype's weights and
 * panels, each with its own adopted graph arena); a scaler thread
 * grows and shrinks the pools with the hysteresis policy in
 * autoscaler.hh, cloning replicas without a single weight repack or
 * graph recompile.
 *
 * Request flow: submit(model, class, image) -> fabric lanes ->
 * worker takes a grant, pops an idle replica of the granted model,
 * stages the batch, forwards, fulfills the promises, returns the
 * replica. Workers hold no model affinity: any worker serves any
 * model, so capacity moves to wherever the fabric points it.
 */

#ifndef PCNN_SERVE_MULTI_ENGINE_HH
#define PCNN_SERVE_MULTI_ENGINE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "serve/autoscaler.hh"
#include "serve/model_registry.hh"
#include "serve/scheduler.hh"

namespace pcnn {

/** Engine sizing and policy. */
struct MultiEngineConfig
{
    std::size_t workers = 1;         ///< shared worker threads
    std::size_t initialReplicas = 1; ///< starting pool size per model
    /// intra-op lanes per worker; 0 = partition threadCount() evenly
    std::size_t lanesPerWorker = 0;
    FabricConfig fabric;             ///< queue + admission policy
    AutoscalerConfig autoscaler;     ///< pool hysteresis policy
    /// scaler thread tick period; 0 disables the thread entirely
    /// (pools then move only through the scaleTo() test hook)
    double autoscaleTickS = 0.0;
};

/** Serves every model of a registry through one queue fabric. */
class MultiTenantEngine
{
  public:
    /**
     * @param registry registered models; must outlive the engine.
     *        Registration must be finished: the engine snapshots the
     *        model count and the registry is immutable from here on.
     * @param config sizing and policy
     */
    MultiTenantEngine(ModelRegistry &registry,
                      MultiEngineConfig config);

    /** Stops and joins (see stop()). */
    ~MultiTenantEngine();

    MultiTenantEngine(const MultiTenantEngine &) = delete;
    MultiTenantEngine &operator=(const MultiTenantEngine &) = delete;

    /** submit() outcome: a status and, when accepted, a future. */
    struct Submission
    {
        SubmitStatus status = SubmitStatus::Stopped;
        std::future<TenantResult> result; ///< valid iff Accepted
    };

    /**
     * Submit one image [1, c, h, w] for `model` under a task class.
     * Never blocks. The class sets the requirement and lane
     * (classRequirement): interactive/real-time ride the EDF urgent
     * lane, background the slack-funded lane. A shed background
     * request's future resolves with TenantResult::shed == true.
     */
    Submission submit(std::size_t model, TaskClass cls, Tensor input);

    /**
     * Stop accepting requests, serve everything already queued
     * exactly once (background budget waived during the drain), and
     * join all threads. Idempotent; also run by the destructor.
     */
    void stop();

    /** Shared worker thread count. */
    std::size_t workerCount() const { return cfg.workers; }

    /** Intra-op lanes each worker runs with. */
    std::size_t lanesPerWorker() const { return lanes; }

    /** Registered model count the engine serves. */
    std::size_t modelCount() const { return models; }

    /** Current replica pool size of one model. */
    std::size_t replicaCount(std::size_t model) const;

    /**
     * Grow or shrink one model's pool to `target` replicas (clamped
     * to [1, the model's maxReplicas]); the deterministic test hook
     * behind the same plumbing the scaler thread uses. Shrinking
     * stops early when no more replicas are idle; returns the pool
     * size actually reached.
     */
    std::size_t scaleTo(std::size_t model, std::size_t target);

    /** The queue fabric (exposed for tests and benches). */
    QueueFabric &queueFabric() { return fabric; }

    /** Metrics snapshot (thread-safe at any time). */
    TenantMetricsSnapshot metrics() const { return meter.snapshot(); }

    /**
     * Sum over pools of replicas x the model's adopted arena bytes —
     * the engine's live activation-arena footprint.
     */
    std::size_t liveArenaBytes() const;

  private:
    /** One model's replica pool. */
    struct Pool
    {
        Mutex mu;
        /// idle replicas; workers pop from the back, the scaler
        /// retires from the back
        std::vector<Network> idle PCNN_GUARDED_BY(mu);
    };

    /** One worker's persistent serving buffers, indexed by model. */
    struct WorkerScratch
    {
        std::vector<Tensor> stage;  ///< batch input staging
        std::vector<Tensor> logits; ///< batch forward output
        /// largest batch served so far: batches no larger than it
        /// are steady state and get the zero-alloc probe
        std::vector<std::size_t> maxSeen;
    };

    /** Worker loop: take a grant, run it, fulfill the promises. */
    void serveLoop(std::size_t worker);

    /** Scaler loop: tick every autoscaleTickS until stop. */
    void scalerLoop();

    /** Add one replica to a pool. */
    void growOne(std::size_t model) PCNN_REQUIRES(scaleMu);

    /** Retire one idle replica; false when none is idle. */
    bool shrinkOne(std::size_t model) PCNN_REQUIRES(scaleMu);

    /** Refresh the metrics arena gauge from the pool totals. */
    void publishArenaGauge() PCNN_REQUIRES(scaleMu);

    MultiEngineConfig cfg;
    std::size_t lanes = 1;
    std::size_t models = 0;
    ModelRegistry &reg;
    mutable TenantMetrics meter;
    QueueFabric fabric;
    std::vector<std::unique_ptr<Pool>> pools;
    /// one per worker; grown before the workers start, so the serve
    /// loop reuses capacity and never constructs a container
    std::vector<WorkerScratch> scratch;

    mutable Mutex scaleMu;
    CondVar scaleCv;
    /// pool sizes (idle + in service) per model
    std::vector<std::size_t> totals PCNN_GUARDED_BY(scaleMu);
    /// per-model hysteresis state, driven by the scaler thread
    std::vector<AutoscalerPolicy> policies PCNN_GUARDED_BY(scaleMu);
    bool scaleStop PCNN_GUARDED_BY(scaleMu) = false;

    std::vector<std::thread> threads;
    std::thread scaler;
    std::atomic<std::uint64_t> nextId{0};
    std::atomic<bool> stopFlag{false};
};

} // namespace pcnn

#endif // PCNN_SERVE_MULTI_ENGINE_HH
