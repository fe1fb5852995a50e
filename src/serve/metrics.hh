/**
 * @file
 * Thread-safe multi-tenant serving metrics: per-class latency tails
 * and SLO attainment, throughput, shed/evict counts, queue
 * high-water, the replica trajectory and arena gauges.
 *
 * Uses the same LatencySummary helper as the analytical
 * ServingSimulator so engine measurements and simulator predictions
 * are directly comparable.
 */

#ifndef PCNN_SERVE_METRICS_HH
#define PCNN_SERVE_METRICS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.hh"
#include "pcnn/runtime/histogram.hh"
#include "pcnn/task.hh"

namespace pcnn {

/** Task classes, for indexing per-class metric arrays. */
constexpr std::size_t kTaskClassCount = 3;

/** Per-task-class serving statistics (DESIGN.md §5k). */
struct TenantClassStats
{
    LatencySummary latency;      ///< submit -> completion
    LatencySummary queueWait;    ///< submit -> service start
    std::uint64_t completed = 0; ///< requests served
    std::uint64_t shed = 0;      ///< rejected or evicted
    std::uint64_t sloMet = 0;    ///< completed inside the deadline
    std::uint64_t sloMissed = 0; ///< completed past the deadline
};

/** One point of a model's replica-count trajectory. */
struct ReplicaEvent
{
    double tS = 0.0;           ///< seconds since metrics start()
    std::size_t model = 0;     ///< registry index
    std::size_t replicas = 0;  ///< pool size after the change
};

/** Point-in-time view of a multi-tenant engine's metrics. */
struct TenantMetricsSnapshot
{
    /// indexed by static_cast<std::size_t>(TaskClass)
    TenantClassStats byClass[kTaskClassCount];
    /// replica pool-size changes, in record order (autoscaler trace)
    std::vector<ReplicaEvent> replicaTrajectory;
    std::uint64_t completed = 0; ///< all classes
    std::uint64_t shed = 0;      ///< all classes
    /// background requests evicted to admit an urgent arrival
    /// (subset of the background class's shed count)
    std::uint64_t backgroundEvicted = 0;
    std::size_t queueHighWater = 0; ///< max per-model queue depth
    double elapsedS = 0.0;
    double throughputRps = 0.0;
    /// live replica arena bytes across all pools (gauge)
    std::size_t liveArenaBytes = 0;
    /// registry-wide reserved arena bytes (gauge)
    std::size_t reservedArenaBytes = 0;
    /// steady-state allocation probe results (DESIGN.md §5h): must
    /// stay 0 / the probe coverage count
    std::uint64_t steadyAllocs = 0;
    std::uint64_t steadyProbedBatches = 0;
};

/**
 * Concurrent recorder shared by the multi-tenant engine's producers,
 * workers, fabric and scaler thread.
 */
class TenantMetrics
{
  public:
    TenantMetrics();

    /** Reset counters and restart the clock. */
    void start();

    /**
     * Count one completed request of a class. `slo_met` is whether
     * it finished inside its deadline (always true for background).
     */
    void recordRequest(TaskClass cls, double latency_s,
                       double queue_s, bool slo_met);

    /** Count one shed request; `evicted` marks admission evictions. */
    void recordShed(TaskClass cls, bool evicted);

    /** Track the per-model queue depth high-water mark. */
    void recordQueueDepth(std::size_t depth);

    /** Record a replica pool-size change (autoscaler trajectory). */
    void recordReplicas(std::size_t model, std::size_t replicas);

    /** Update the arena gauges (engine scale events). */
    void setArenaBytes(std::size_t live_bytes,
                       std::size_t reserved_bytes);

    /**
     * Record one steady-state allocation probe: a worker forward over
     * a batch size it had already served, measured by
     * ScopedAllocCount. `allocs` must be 0 for the zero-alloc
     * invariant (DESIGN.md §5h) to hold; the snapshot exposes the sum
     * so tests and benches can assert it.
     */
    void recordSteadyProbe(std::uint64_t allocs);

    /** Consistent snapshot of everything recorded since start(). */
    TenantMetricsSnapshot snapshot() const;

  private:
    /** Mutable per-class accumulators. */
    struct ClassAccum
    {
        std::vector<double> latencies;
        std::vector<double> queueWaits;
        std::uint64_t shed = 0;
        std::uint64_t sloMet = 0;
        std::uint64_t sloMissed = 0;
    };

    mutable Mutex mu;
    std::chrono::steady_clock::time_point started
        PCNN_GUARDED_BY(mu);
    ClassAccum byClass[kTaskClassCount] PCNN_GUARDED_BY(mu);
    std::vector<ReplicaEvent> trajectory PCNN_GUARDED_BY(mu);
    std::uint64_t evicted PCNN_GUARDED_BY(mu) = 0;
    std::size_t highWater PCNN_GUARDED_BY(mu) = 0;
    std::size_t liveArena PCNN_GUARDED_BY(mu) = 0;
    std::size_t reservedArena PCNN_GUARDED_BY(mu) = 0;
    std::uint64_t steadyAllocs PCNN_GUARDED_BY(mu) = 0;
    std::uint64_t steadyProbed PCNN_GUARDED_BY(mu) = 0;
};

} // namespace pcnn

#endif // PCNN_SERVE_METRICS_HH
