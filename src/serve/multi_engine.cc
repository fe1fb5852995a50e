#include "serve/multi_engine.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/alloc_count.hh"
#include "common/check.hh"
#include "common/parallel.hh"
#include "common/tags.hh"
#include "pcnn/offline/host_tuner.hh"

namespace pcnn {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0,
             std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

MultiTenantEngine::MultiTenantEngine(ModelRegistry &registry,
                                     MultiEngineConfig config)
    : cfg(config), models(registry.size()), reg(registry),
      fabric(registry, cfg.fabric, meter)
{
    PCNN_CHECK(cfg.workers >= 1, "engine needs at least one worker");
    PCNN_CHECK(models >= 1, "engine needs a registered model");
    PCNN_CHECK(cfg.initialReplicas >= 1,
               "engine needs at least one replica per model");

    // Pin the per-host tuned kernel tier/blocking (when a valid tune
    // cache exists) before the first warm-up forward and before any
    // worker thread exists: the dispatch setters are not safe against
    // concurrent GEMMs, and every worker must inherit the same
    // configuration the warm-ups measured. If the embedding process
    // already ran a forward (a prototype whose logits the engine must
    // reproduce bitwise), the hook declines and the engine keeps the
    // configuration those results were computed under.
    (void)applyHostTuneCacheOnce();

    lanes = cfg.lanesPerWorker != 0
                ? cfg.lanesPerWorker
                : std::max<std::size_t>(1, threadCount() / cfg.workers);

    pools.reserve(models);
    for (std::size_t m = 0; m < models; ++m)
        pools.push_back(std::make_unique<Pool>());
    scratch.assign(cfg.workers,
                   WorkerScratch{std::vector<Tensor>(models),
                                 std::vector<Tensor>(models),
                                 std::vector<std::size_t>(models, 0)});

    meter.start();
    {
        MutexLock lk(scaleMu);
        totals.assign(models, 0);
        policies.reserve(models);
        for (std::size_t m = 0; m < models; ++m)
            policies.emplace_back(cfg.autoscaler);
        // Initial pools, built before any worker exists: the first
        // replica of each model materializes the shared weight
        // panels during its warm-up; panels then reach the workers
        // through the thread-creation happens-before edge.
        for (std::size_t m = 0; m < models; ++m) {
            const std::size_t want = std::min(
                cfg.initialReplicas, reg.model(m).maxReplicas());
            for (std::size_t i = 0; i < want; ++i)
                growOne(m);
        }
    }

    threads.reserve(cfg.workers);
    for (std::size_t i = 0; i < cfg.workers; ++i)
        threads.emplace_back([this, i] { serveLoop(i); });
    if (cfg.autoscaleTickS > 0.0)
        scaler = std::thread([this] { scalerLoop(); });
}

MultiTenantEngine::~MultiTenantEngine()
{
    stop();
}

MultiTenantEngine::Submission
MultiTenantEngine::submit(std::size_t model, TaskClass cls,
                          Tensor input)
{
    PCNN_CHECK(model < models, "submit: model index ", model,
               " out of range (", models, " models)");
    const Shape &in = reg.model(model).inputShape();
    PCNN_CHECK(input.shape().n == 1 && input.shape().c == in.c &&
                   input.shape().h == in.h && input.shape().w == in.w,
               "submit: input ", input.shape().str(),
               " mismatches expected [1,", in.c, ",", in.h, ",", in.w,
               "]");

    TenantRequest req;
    req.id = nextId.fetch_add(1, std::memory_order_relaxed);
    req.model = model;
    req.cls = cls;
    req.req = classRequirement(cls);
    req.input = std::move(input);
    req.enqueued = std::chrono::steady_clock::now();
    // Background requests never enter the EDF lane; give them their
    // enqueue time as a harmless placeholder instead of casting an
    // infinite requirement into the clock's duration type.
    req.deadline =
        req.urgent()
            ? req.enqueued +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          req.req.imperceptibleS))
            : req.enqueued;
    std::future<TenantResult> fut = req.done.get_future();

    Submission sub;
    sub.status = fabric.push(std::move(req));
    if (sub.status == SubmitStatus::Accepted)
        sub.result = std::move(fut);
    return sub;
}

void
MultiTenantEngine::stop()
{
    if (stopFlag.exchange(true))
        return;
    {
        MutexLock lk(scaleMu);
        scaleStop = true;
    }
    scaleCv.notifyAll();
    if (scaler.joinable())
        scaler.join();
    fabric.close();
    for (std::thread &t : threads)
        t.join();
    threads.clear();
}

std::size_t
MultiTenantEngine::replicaCount(std::size_t model) const
{
    MutexLock lk(scaleMu);
    return totals.at(model);
}

std::size_t
MultiTenantEngine::liveArenaBytes() const
{
    MutexLock lk(scaleMu);
    std::size_t sum = 0;
    for (std::size_t m = 0; m < models; ++m)
        sum += totals[m] * reg.model(m).replicaArenaBytes();
    return sum;
}

std::size_t
MultiTenantEngine::scaleTo(std::size_t model, std::size_t target)
{
    PCNN_CHECK(model < models, "scaleTo: model out of range");
    const std::size_t cap = reg.model(model).maxReplicas();
    const std::size_t want =
        std::min(cap, std::max<std::size_t>(1, target));
    MutexLock lk(scaleMu);
    while (totals[model] < want)
        growOne(model);
    while (totals[model] > want && shrinkOne(model)) {
    }
    return totals[model];
}

void
MultiTenantEngine::growOne(std::size_t model)
{
    // Replica creation is slow (clone + adopt + maxBatch warm-up)
    // and runs under scaleMu: the scaler thread and scaleTo are the
    // only cloners, satisfying Model::makeReplica's serialization
    // contract without touching the worker-facing pool lock.
    Network replica = reg.model(model).makeReplica(lanes);
    Pool &pool = *pools[model];
    {
        MutexLock lk(pool.mu);
        pool.idle.push_back(std::move(replica));
    }
    // Pool before fabric: once the idle count is visible a grant may
    // pop immediately.
    fabric.addIdle(model);
    ++totals[model];
    meter.recordReplicas(model, totals[model]);
    publishArenaGauge();
}

bool
MultiTenantEngine::shrinkOne(std::size_t model)
{
    // Fabric first: a successful removeIdle reserves one idle
    // replica that no grant can claim anymore, so the pool pop below
    // cannot race a worker.
    if (!fabric.removeIdle(model))
        return false;
    Pool &pool = *pools[model];
    {
        MutexLock lk(pool.mu);
        PCNN_CHECK(!pool.idle.empty(),
                   "pool/fabric idle accounting diverged");
        pool.idle.pop_back();
    }
    --totals[model];
    meter.recordReplicas(model, totals[model]);
    publishArenaGauge();
    return true;
}

void
MultiTenantEngine::publishArenaGauge()
{
    std::size_t live = 0;
    for (std::size_t m = 0; m < models; ++m)
        live += totals[m] * reg.model(m).replicaArenaBytes();
    meter.setArenaBytes(live, reg.totalReservedArenaBytes());
}

void
MultiTenantEngine::scalerLoop()
{
    const auto tick = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(cfg.autoscaleTickS));
    UniqueLock lk(scaleMu);
    for (;;) {
        if (scaleStop)
            return;
        scaleCv.waitFor(lk, scaleMu, tick);
        if (scaleStop)
            return;
        for (std::size_t m = 0; m < models; ++m) {
            Model &model = reg.model(m);
            const double estBatch =
                model.estimator().estS(model.maxBatch());
            const double backlog = backlogPerReplicaS(
                fabric.queued(m), totals[m], model.maxBatch(),
                estBatch);
            switch (policies[m].tick(backlog, totals[m])) {
              case AutoscalerPolicy::Action::Grow:
                if (totals[m] < model.maxReplicas())
                    growOne(m);
                break;
              case AutoscalerPolicy::Action::Shrink:
                if (totals[m] > cfg.autoscaler.minReplicas)
                    (void)shrinkOne(m);
                break;
              case AutoscalerPolicy::Action::Hold:
                break;
            }
        }
    }
}

PCNN_HOT_PATH
void
MultiTenantEngine::serveLoop(std::size_t worker)
{
    // Thread-local lane cap for the life of the worker: every
    // forward below runs on this worker's share of the lane budget.
    ScopedLaneLimit limit(lanes);
    WorkerScratch &ws = scratch[worker];

    for (;;) {
        // pcnn-analyze: allow(hot-path-alloc): request handoff — the
        // granted requests move out of the fabric, outside the
        // steady-state probe window below.
        BatchGrant grant = fabric.take();
        if (grant.batch.empty())
            return; // closed and drained

        const std::size_t m = grant.model;
        const std::size_t b = grant.batch.size();
        const Shape &in = reg.model(m).inputShape();
        const std::size_t item = in.itemSize();

        // The grant reserved one idle replica of this model; claim
        // it. LIFO keeps the hottest replica's caches in play.
        Network replica = [&] {
            Pool &pool = *pools[m];
            MutexLock lk(pool.mu);
            PCNN_CHECK(!pool.idle.empty(),
                       "granted model has no idle replica");
            Network r = std::move(pool.idle.back());
            pool.idle.pop_back();
            return r;
        }();

        Tensor &x = ws.stage[m];
        Tensor &logits = ws.logits[m];
        const bool steady =
            allocCountingEnabled() && b <= ws.maxSeen[m];
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t probedAllocs = 0;
        {
            // The probe covers exactly the steady-state work: batch
            // staging plus the forward. Request plumbing (promises,
            // per-request logits copies, metrics) allocates by
            // design and stays outside the envelope.
            ScopedAllocCount probe;
            // pcnn-analyze: allow(hot-path-alloc): grow-only staging
            // buffer; capacity is reused once the batch size has been
            // seen — the probe proves it.
            x.resize(Shape{b, in.c, in.h, in.w});
            for (std::size_t i = 0; i < b; ++i)
                std::memcpy(x.data() + i * item,
                            grant.batch[i].input.data(),
                            item * sizeof(float));
            replica.forwardInto(x, false, logits);
            probedAllocs = probe.allocs();
        }
        ws.maxSeen[m] = std::max(ws.maxSeen[m], b);
        const auto end = std::chrono::steady_clock::now();
        if (steady)
            meter.recordSteadyProbe(probedAllocs);

        // Return the replica before fulfilling promises: capacity
        // comes back to the fabric as early as possible.
        {
            Pool &pool = *pools[m];
            MutexLock lk(pool.mu);
            // pcnn-analyze: allow(hot-path-alloc): refills the slot
            // the claim above vacated; the vector only grows to the
            // pool's peak size (at most maxReplicas).
            pool.idle.push_back(std::move(replica));
        }
        fabric.addIdle(m);

        reg.model(m).estimator().record(b, secondsSince(start, end));
        for (std::size_t i = 0; i < b; ++i) {
            TenantRequest &q = grant.batch[i];
            TenantResult r;
            // pcnn-analyze: allow(hot-path-alloc): per-request
            // response copy whose ownership passes to the caller;
            // outside the probe window by design.
            r.logits = logits.item(i);
            r.batchSize = b;
            r.queueS = secondsSince(q.enqueued, start);
            r.latencyS = secondsSince(q.enqueued, end);
            const bool sloMet = q.req.timeInsensitive ||
                                r.latencyS <= q.req.imperceptibleS;
            // pcnn-analyze: allow(hot-path-alloc): per-request sample
            // log, outside the probe window by design.
            meter.recordRequest(q.cls, r.latencyS, r.queueS, sloMet);
            q.done.set_value(std::move(r));
        }
    }
}

} // namespace pcnn
