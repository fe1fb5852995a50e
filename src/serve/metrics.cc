#include "serve/metrics.hh"

#include <algorithm>

namespace pcnn {

TenantMetrics::TenantMetrics()
{
    started = std::chrono::steady_clock::now();
}

void
TenantMetrics::start()
{
    MutexLock lk(mu);
    started = std::chrono::steady_clock::now();
    for (ClassAccum &c : byClass)
        c = ClassAccum();
    trajectory.clear();
    evicted = 0;
    highWater = 0;
    liveArena = 0;
    reservedArena = 0;
    steadyAllocs = 0;
    steadyProbed = 0;
}

void
TenantMetrics::recordRequest(TaskClass cls, double latency_s,
                             double queue_s, bool slo_met)
{
    MutexLock lk(mu);
    ClassAccum &c = byClass[static_cast<std::size_t>(cls)];
    c.latencies.push_back(latency_s);
    c.queueWaits.push_back(queue_s);
    if (slo_met)
        ++c.sloMet;
    else
        ++c.sloMissed;
}

void
TenantMetrics::recordShed(TaskClass cls, bool evicted_request)
{
    MutexLock lk(mu);
    ++byClass[static_cast<std::size_t>(cls)].shed;
    if (evicted_request)
        ++evicted;
}

void
TenantMetrics::recordQueueDepth(std::size_t depth)
{
    MutexLock lk(mu);
    highWater = std::max(highWater, depth);
}

void
TenantMetrics::recordReplicas(std::size_t model, std::size_t replicas)
{
    MutexLock lk(mu);
    ReplicaEvent ev;
    ev.tS = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();
    ev.model = model;
    ev.replicas = replicas;
    trajectory.push_back(ev);
}

void
TenantMetrics::setArenaBytes(std::size_t live_bytes,
                             std::size_t reserved_bytes)
{
    MutexLock lk(mu);
    liveArena = live_bytes;
    reservedArena = reserved_bytes;
}

void
TenantMetrics::recordSteadyProbe(std::uint64_t allocs)
{
    MutexLock lk(mu);
    steadyAllocs += allocs;
    ++steadyProbed;
}

TenantMetricsSnapshot
TenantMetrics::snapshot() const
{
    TenantMetricsSnapshot s;
    std::vector<double> lat[kTaskClassCount];
    std::vector<double> waits[kTaskClassCount];
    {
        MutexLock lk(mu);
        for (std::size_t i = 0; i < kTaskClassCount; ++i) {
            lat[i] = byClass[i].latencies;
            waits[i] = byClass[i].queueWaits;
            s.byClass[i].shed = byClass[i].shed;
            s.byClass[i].sloMet = byClass[i].sloMet;
            s.byClass[i].sloMissed = byClass[i].sloMissed;
        }
        s.replicaTrajectory = trajectory;
        s.backgroundEvicted = evicted;
        s.queueHighWater = highWater;
        s.liveArenaBytes = liveArena;
        s.reservedArenaBytes = reservedArena;
        s.steadyAllocs = steadyAllocs;
        s.steadyProbedBatches = steadyProbed;
        s.elapsedS = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    }
    for (std::size_t i = 0; i < kTaskClassCount; ++i) {
        TenantClassStats &c = s.byClass[i];
        c.completed = lat[i].size();
        c.latency = summarizeLatencies(std::move(lat[i]));
        c.queueWait = summarizeLatencies(std::move(waits[i]));
        s.completed += c.completed;
        s.shed += c.shed;
    }
    s.throughputRps =
        s.elapsedS > 0.0 ? double(s.completed) / s.elapsedS : 0.0;
    return s;
}

} // namespace pcnn
