/**
 * @file
 * Multi-model registry for the serving engine (DESIGN.md §5k).
 *
 * A Model is the frozen unit of serving: one prototype network
 * (optionally perforated to a cheaper operating point), the compiled
 * graph schedule every replica adopts, the learned per-batch-size
 * service model, and the arena cost one replica will pay. The
 * ModelRegistry owns several Models, enforces a registry-wide
 * activation-arena budget at registration time, and hands the
 * multi-tenant engine everything it needs to clone replicas without
 * ever recompiling or repacking.
 *
 * The schedule is built (or adopted from a serialized plan-v4
 * section) exactly once per model at registration; replicas then
 * adopt the same pure-data schedule, so N replicas cost N arena
 * allocations and zero graph recompiles.
 */

#ifndef PCNN_SERVE_MODEL_REGISTRY_HH
#define PCNN_SERVE_MODEL_REGISTRY_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "nn/graph/graph_ir.hh"
#include "nn/network.hh"

namespace pcnn {

/**
 * Thread-safe per-batch-size EWMA service-time model. Workers feed
 * measured batch execution times back after every batch; the
 * scheduler's background slack admission and the autoscaler read
 * smoothed estimates.
 */
class ServiceEstimator
{
  public:
    /** @param max_batch largest batch size tracked (>= 1) */
    explicit ServiceEstimator(std::size_t max_batch);

    /** Largest batch size tracked. */
    std::size_t maxBatch() const { return cap; }

    /** Feed back one measured batch execution time. */
    void record(std::size_t batch, double service_s);

    /**
     * Estimated service time of a batch: the EWMA for that size, the
     * largest observed size at or under it as a fallback, 0 before
     * any observation (optimistic: never act earlier than measured
     * evidence demands).
     */
    double estS(std::size_t batch) const;

  private:
    std::size_t cap;
    mutable Mutex mu;
    /// [batch] -> smoothed seconds, 0 unset
    std::vector<double> ewma PCNN_GUARDED_BY(mu);
};

/** Per-model registration parameters. */
struct ModelConfig
{
    std::string name;            ///< registry key, must be unique
    std::size_t maxBatch = 1;    ///< batch ceiling per replica
    /// autoscaler replica ceiling; the registry reserves arena
    /// budget for this many replicas up front
    std::size_t maxReplicas = 4;
    /// fraction of each conv layer's output positions computed
    /// (1 = full grid); applied to the prototype before the schedule
    /// is built, so perforation levels register as distinct models
    double perforationKeep = 1.0;
    /// serialized plan-v4 schedule to adopt instead of compiling at
    /// registration (satellite: offline compile once, register
    /// everywhere); nullptr falls back to compile-on-register
    const GraphSchedule *schedule = nullptr;
};

/** Outcome of ModelRegistry::registerModel. */
enum class RegisterStatus
{
    Registered,            ///< model added
    DuplicateName,         ///< a model with this name already exists
    BudgetExceeded,        ///< arena reservation would pass the budget
    ScheduleBatchTooSmall, ///< supplied schedule compiled under maxBatch
};

/** Human-readable RegisterStatus (logs and tests). */
std::string registerStatusName(RegisterStatus status);

/**
 * One registered model: frozen prototype, shared schedule, service
 * model, arena accounting. Replica cloning (makeReplica) must be
 * serialized by the caller — the engine constructor and the single
 * scaler thread are the only cloners — but the produced replicas and
 * the estimator are safe for concurrent use.
 */
class Model
{
  public:
    /** Built by ModelRegistry::registerModel. */
    Model(Network prototype, ModelConfig config, GraphSchedule sched);

    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;

    /** Registry key. */
    const std::string &name() const { return cfg.name; }

    /** Batch ceiling each replica compiles and warms at. */
    std::size_t maxBatch() const { return cfg.maxBatch; }

    /** Autoscaler replica ceiling. */
    std::size_t maxReplicas() const { return cfg.maxReplicas; }

    /** Registration parameters. */
    const ModelConfig &config() const { return cfg; }

    /** Per-item input shape replicas expect. */
    const Shape &inputShape() const { return proto.inputShape(); }

    /** The frozen prototype (perforation state visible to tests). */
    Network &prototype() { return proto; }

    /** The shared schedule every replica adopts. */
    const GraphSchedule &schedule() const { return sched; }

    /** Activation-arena bytes ONE replica allocates on adoption. */
    std::size_t replicaArenaBytes() const
    {
        return sched.arenaFloats * sizeof(float);
    }

    /** Arena bytes reserved for this model at its replica ceiling. */
    std::size_t reservedArenaBytes() const
    {
        return replicaArenaBytes() * cfg.maxReplicas;
    }

    /**
     * Learned per-batch-size service model. Warm-up forwards seed
     * it; workers feed measured batch times back through it; the
     * scheduler and autoscaler read it.
     */
    ServiceEstimator &estimator() { return est; }
    const ServiceEstimator &estimator() const { return est; }

    /**
     * Clone a serving replica: shares the prototype's weights and
     * panels (zero repacks), adopts the shared schedule (exactly one
     * arena allocation, zero recompiles), then runs one warm-up
     * forward at maxBatch under `lanes` intra-op lanes so every
     * grow-only buffer reaches its steady-state envelope before the
     * replica serves traffic. The measured warm-up time seeds the
     * estimator. Not thread-safe against itself (see class comment).
     */
    Network makeReplica(std::size_t lanes);

  private:
    ModelConfig cfg;
    Network proto;
    GraphSchedule sched;
    ServiceEstimator est;
};

/** Registry-wide limits. */
struct RegistryConfig
{
    /// cap on the summed per-model arena reservations
    /// (replicaArenaBytes x maxReplicas); 0 = unlimited
    std::size_t arenaBudgetBytes = 0;
};

/**
 * Owns the registered models. Registration is a setup-phase API
 * (single-threaded, before any engine is constructed over the
 * registry); afterwards the registry is immutable and all reads are
 * safe from any thread.
 */
class ModelRegistry
{
  public:
    explicit ModelRegistry(RegistryConfig config = {});

    /**
     * Register a model. On success the registry owns the prototype;
     * on any failure the prototype is untouched by the registry
     * (though perforation may already be applied) and the registry
     * is unchanged. Fails cleanly with BudgetExceeded when the
     * model's reservation would push the registry total past the
     * configured budget.
     */
    RegisterStatus registerModel(Network prototype, ModelConfig config);

    /** Registered model count. */
    std::size_t size() const { return entries.size(); }

    /** Model by registration index. */
    Model &model(std::size_t i) { return *entries.at(i); }
    const Model &model(std::size_t i) const { return *entries.at(i); }

    /** Model by name, or nullptr. */
    Model *find(const std::string &name);

    /** Registration index of a name, or size() when absent. */
    std::size_t indexOf(const std::string &name) const;

    /** Sum of every model's reservedArenaBytes(). */
    std::size_t totalReservedArenaBytes() const { return reserved; }

    /** Configured budget (0 = unlimited). */
    std::size_t budgetBytes() const { return cfg.arenaBudgetBytes; }

  private:
    RegistryConfig cfg;
    std::vector<std::unique_ptr<Model>> entries;
    std::size_t reserved = 0;
};

/**
 * Register the trainable mini zoo at two perforation levels each:
 * "<net>/full" (perforationKeep 1.0) and "<net>/p50" (0.5) for
 * MiniAlexNet, MiniVgg and MiniInception — six models over one
 * weight initialization stream. Returns the number registered
 * (PCNN_CHECK-fails if any registration is rejected, so callers that
 * want budget rejections must register manually).
 */
std::size_t registerMiniZoo(ModelRegistry &registry, Rng &rng,
                            std::size_t max_batch,
                            std::size_t max_replicas);

} // namespace pcnn

#endif // PCNN_SERVE_MODEL_REGISTRY_HH
