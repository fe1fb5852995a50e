/**
 * @file
 * Single-model serving tests (DESIGN.md §5f): the request queue
 * (QueueFabric) on its own, then a MultiTenantEngine over a registry
 * of one model. Covers multi-producer exactly-once delivery,
 * bounded-queue backpressure, batch and tail metrics, drain-on-stop,
 * lane partitioning, bitwise-identical logits across worker counts
 * over shared weight panels, steady-state zero-repack, and the
 * shared-weight mutation contracts.
 *
 * Tests that need requests to pile up take the model's only replica
 * out of the fabric's schedulable pool (QueueFabric::removeIdle) and
 * hand it back afterwards: the engine serves whatever is queued the
 * moment a replica is free, so this is what makes queue contents
 * deterministic.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "nn/model_zoo.hh"
#include "nn/serialize.hh"
#include "serve/multi_engine.hh"
#include "tensor/tensor_ops.hh"
#include "tensor/winograd.hh"
#include "train/sgd.hh"

namespace pcnn {
namespace {

// The engine spawns worker threads; the default "fast" (plain fork)
// death-test style is unsafe once threads exist.
class ThreadsafeDeathStyle : public ::testing::Environment
{
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

const auto *const g_death_style =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathStyle);

Tensor
randomInput(Rng &rng, const Shape &in)
{
    Tensor t(Shape{1, in.c, in.h, in.w});
    t.fillUniform(rng, -1.0f, 1.0f);
    return t;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

/** A registry holding one MiniAlexNet built from `seed`. */
void
registerAlex(ModelRegistry &reg, unsigned seed,
             std::size_t max_batch = 1, std::size_t max_replicas = 4)
{
    Rng rng(seed);
    ModelConfig mc;
    mc.name = "alex";
    mc.maxBatch = max_batch;
    mc.maxReplicas = max_replicas;
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng), std::move(mc)),
              RegisterStatus::Registered);
}

MultiEngineConfig
quickConfig(std::size_t workers, std::size_t queue_capacity = 64)
{
    MultiEngineConfig cfg;
    cfg.workers = workers;
    cfg.initialReplicas = workers;
    cfg.fabric.queueCapacity = queue_capacity;
    return cfg;
}

// --------------------------------------------------------- batcher

// Batch formation sizes batches by the registered model's learned
// per-batch service time (Model::estimator); workers record into it
// after every batch.

TEST(Batcher, EstServiceFallsBackToSmallerBatch)
{
    ModelRegistry reg;
    registerAlex(reg, 1, 8);
    ServiceEstimator &est = reg.model(0).estimator();
    EXPECT_EQ(est.maxBatch(), 8u);
    EXPECT_EQ(est.estS(8), 0.0);
    est.record(2, 0.010);
    EXPECT_DOUBLE_EQ(est.estS(8), 0.010); // nearest under 8
    est.record(8, 0.030);
    EXPECT_DOUBLE_EQ(est.estS(8), 0.030); // exact beats fallback
    EXPECT_DOUBLE_EQ(est.estS(2), 0.010);
}

TEST(Batcher, RecordServiceSmoothes)
{
    ModelRegistry reg;
    registerAlex(reg, 1, 1);
    ServiceEstimator &est = reg.model(0).estimator();
    est.record(1, 0.100);
    est.record(1, 0.200);
    EXPECT_GT(est.estS(1), 0.100);
    EXPECT_LT(est.estS(1), 0.200);
}

// ---------------------------------------------------- request queue

/** An interactive request for model 0 with a unit-shaped input. */
TenantRequest
makeReq(std::uint64_t id)
{
    TenantRequest r;
    r.id = id;
    r.cls = TaskClass::Interactive;
    r.req = classRequirement(r.cls);
    r.input = Tensor(Shape{1, 1, 1, 1});
    r.enqueued = std::chrono::steady_clock::now();
    r.deadline = r.enqueued;
    return r;
}

/** A one-model registry plus the engine's queue fabric over it. */
struct FabricFixture
{
    ModelRegistry reg;
    TenantMetrics meter;
    std::unique_ptr<QueueFabric> fabric;

    FabricFixture(std::size_t capacity, std::size_t max_batch)
    {
        registerAlex(reg, 5, max_batch);
        FabricConfig fc;
        fc.queueCapacity = capacity;
        fabric = std::make_unique<QueueFabric>(reg, fc, meter);
    }
};

TEST(RequestQueue, RejectsWhenFullInsteadOfBlocking)
{
    FabricFixture fx(2, 1);
    QueueFabric &q = *fx.fabric;
    EXPECT_EQ(q.push(makeReq(0)), SubmitStatus::Accepted);
    EXPECT_EQ(q.push(makeReq(1)), SubmitStatus::Accepted);
    EXPECT_EQ(q.push(makeReq(2)), SubmitStatus::QueueFull);
    EXPECT_EQ(q.queued(0), 2u);
    EXPECT_EQ(fx.meter.snapshot().queueHighWater, 2u);
    EXPECT_EQ(fx.meter.snapshot().shed, 1u);
}

TEST(RequestQueue, StoppedAfterClose)
{
    FabricFixture fx(4, 1);
    QueueFabric &q = *fx.fabric;
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.push(makeReq(0)), SubmitStatus::Stopped);
    q.close(); // idempotent
}

TEST(RequestQueue, DrainsRemainingAfterClose)
{
    FabricFixture fx(8, 2);
    QueueFabric &q = *fx.fabric;
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_EQ(q.push(makeReq(i)), SubmitStatus::Accepted);
    q.close();
    q.addIdle(0);

    std::vector<std::uint64_t> ids;
    for (;;) {
        BatchGrant g = q.take();
        if (g.batch.empty())
            break;
        EXPECT_LE(g.batch.size(), 2u);
        for (const TenantRequest &r : g.batch)
            ids.push_back(r.id);
        q.addIdle(0); // the worker hands its replica back
    }
    // Every queued request handed out exactly once, in order (equal
    // deadlines keep arrival order in the EDF lane).
    ASSERT_EQ(ids.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(ids[i], i);
    EXPECT_EQ(q.queued(0), 0u);
}

// ---------------------------------------------------- batch purity

TEST(Serve, BatchedForwardIsBitwiseRowInvariant)
{
    // The engine serves one request inside varying batch sizes; this
    // only preserves bitwise reproducibility because a batched
    // forward computes each item exactly as a batch-1 forward would.
    Rng rng(7);
    Network net = makeMiniAlexNet(rng);
    Tensor batch(Shape{3, net.inputShape().c, net.inputShape().h,
                       net.inputShape().w});
    batch.fillUniform(rng, -1.0f, 1.0f);

    const Tensor together = net.forward(batch, false);
    for (std::size_t i = 0; i < 3; ++i) {
        const Tensor alone = net.forward(batch.item(i), false);
        ASSERT_EQ(alone.size(), together.shape().itemSize());
        EXPECT_EQ(std::memcmp(alone.data(),
                              together.data() +
                                  i * together.shape().itemSize(),
                              alone.size() * sizeof(float)),
                  0)
            << "batch row " << i << " differs from batch-1 forward";
    }
}

// --------------------------------------------------------- engine

TEST(Serve, EngineMatchesPrototypeBitwise)
{
    ModelRegistry reg;
    registerAlex(reg, 11);
    Network &proto = reg.model(0).prototype();
    Rng inputs(5);
    std::vector<Tensor> xs;
    for (int i = 0; i < 6; ++i)
        xs.push_back(randomInput(inputs, proto.inputShape()));

    // Reference logits from the frozen prototype, before serving.
    std::vector<Tensor> want;
    for (const Tensor &x : xs)
        want.push_back(proto.forward(x, false));

    MultiTenantEngine engine(reg, quickConfig(2));
    std::vector<std::future<TenantResult>> futs;
    for (const Tensor &x : xs) {
        auto sub = engine.submit(0, TaskClass::Interactive, x);
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futs.push_back(std::move(sub.result));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
        const TenantResult r = futs[i].get();
        EXPECT_TRUE(bitwiseEqual(r.logits, want[i]))
            << "request " << i << " logits differ from prototype";
        EXPECT_GE(r.latencyS, 0.0);
        EXPECT_EQ(r.batchSize, 1u);
    }
}

TEST(Serve, WorkerCountsProduceBitwiseIdenticalLogits)
{
    // Identical weight init per run (same seed); the only difference
    // between the runs is the worker/replica/lane partition.
    Rng inputs(13);
    std::vector<Tensor> xs;
    {
        Rng rng(42);
        const Shape in = makeMiniAlexNet(rng).inputShape();
        for (int i = 0; i < 8; ++i)
            xs.push_back(randomInput(inputs, in));
    }

    auto run = [&](std::size_t workers) {
        ModelRegistry reg;
        registerAlex(reg, 42);
        MultiTenantEngine engine(reg, quickConfig(workers));
        std::vector<std::future<TenantResult>> futs;
        for (const Tensor &x : xs) {
            auto sub = engine.submit(0, TaskClass::Interactive, x);
            EXPECT_EQ(sub.status, SubmitStatus::Accepted);
            futs.push_back(std::move(sub.result));
        }
        std::vector<Tensor> out;
        for (auto &f : futs)
            out.push_back(f.get().logits);
        return out;
    };

    const auto one = run(1);
    for (std::size_t workers : {2u, 4u}) {
        const auto many = run(workers);
        ASSERT_EQ(one.size(), many.size());
        for (std::size_t i = 0; i < one.size(); ++i)
            EXPECT_TRUE(bitwiseEqual(one[i], many[i]))
                << "request " << i << " differs between 1 and "
                << workers << " workers";
    }
}

TEST(RequestQueue, MpmcStressDeliversEachRequestOnce)
{
    ModelRegistry reg;
    registerAlex(reg, 17, /*max_batch=*/4);
    Network &proto = reg.model(0).prototype();
    constexpr std::size_t kProducers = 4, kPerProducer = 32;
    constexpr std::size_t kDistinct = 8;

    Rng inputs(19);
    std::vector<Tensor> xs, want;
    for (std::size_t i = 0; i < kDistinct; ++i) {
        xs.push_back(randomInput(inputs, proto.inputShape()));
        want.push_back(proto.forward(xs.back(), false));
    }

    MultiTenantEngine engine(
        reg, quickConfig(3, kProducers * kPerProducer));
    std::vector<std::vector<std::future<TenantResult>>> futs(
        kProducers);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (std::size_t i = 0; i < kPerProducer; ++i) {
                const TaskClass cls = i % 2 == 0
                                          ? TaskClass::Interactive
                                          : TaskClass::Background;
                auto sub = engine.submit(0, cls,
                                         xs[(p + i) % kDistinct]);
                ASSERT_EQ(sub.status, SubmitStatus::Accepted);
                futs[p].push_back(std::move(sub.result));
            }
        });
    for (auto &t : producers)
        t.join();

    // Each future is fulfilled exactly once (a second set_value
    // would throw in the worker, a dropped one would hang here) and
    // carries the logits of its own input.
    for (std::size_t p = 0; p < kProducers; ++p) {
        ASSERT_EQ(futs[p].size(), kPerProducer);
        for (std::size_t i = 0; i < kPerProducer; ++i) {
            const TenantResult r = futs[p][i].get();
            ASSERT_FALSE(r.shed);
            EXPECT_TRUE(bitwiseEqual(r.logits,
                                     want[(p + i) % kDistinct]))
                << "producer " << p << " request " << i;
        }
    }
    EXPECT_EQ(engine.metrics().completed, kProducers * kPerProducer);
}

TEST(Serve, SteadyStatePacksNoNewPanels)
{
    ModelRegistry reg;
    registerAlex(reg, 3);
    const Shape in = reg.model(0).inputShape();
    MultiTenantEngine engine(reg, quickConfig(3));

    // Drive a first wave through every worker, then snapshot the
    // global pack counters: the replica warm-ups must have
    // materialized everything the serving route reads.
    Rng inputs(17);
    auto wave = [&](int n) {
        std::vector<std::future<TenantResult>> futs;
        for (int i = 0; i < n; ++i) {
            auto sub = engine.submit(0, TaskClass::Interactive,
                                     randomInput(inputs, in));
            ASSERT_EQ(sub.status, SubmitStatus::Accepted);
            futs.push_back(std::move(sub.result));
        }
        for (auto &f : futs)
            f.get();
    };
    wave(6);
    const std::uint64_t packs = weightPackCount();
    const std::uint64_t wino = winogradPackCount();
    wave(24);
    EXPECT_EQ(weightPackCount(), packs)
        << "steady-state serving repacked SGEMM panels";
    EXPECT_EQ(winogradPackCount(), wino)
        << "steady-state serving re-transformed winograd weights";
}

TEST(Serve, BackpressureShedsWhenQueueFull)
{
    ModelRegistry reg;
    registerAlex(reg, 23, /*max_batch=*/8);
    const Shape in = reg.model(0).inputShape();
    MultiTenantEngine engine(reg, quickConfig(1, /*queue=*/2));

    // With the only replica held back nothing is served, so the
    // third and later submissions find the queue full.
    ASSERT_TRUE(engine.queueFabric().removeIdle(0));
    Rng inputs(29);
    std::vector<std::future<TenantResult>> futs;
    std::size_t shed = 0;
    for (int i = 0; i < 6; ++i) {
        auto sub = engine.submit(0, TaskClass::Interactive,
                                 randomInput(inputs, in));
        if (sub.status == SubmitStatus::Accepted)
            futs.push_back(std::move(sub.result));
        else if (sub.status == SubmitStatus::QueueFull)
            ++shed;
    }
    EXPECT_EQ(futs.size(), 2u);
    EXPECT_EQ(shed, 4u);

    engine.queueFabric().addIdle(0);
    engine.stop(); // drains the accepted requests
    for (auto &f : futs)
        EXPECT_EQ(f.get().logits.shape().h, 1u);
    const TenantMetricsSnapshot m = engine.metrics();
    EXPECT_EQ(m.shed, shed);
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.queueHighWater, 2u);
}

TEST(Serve, StopDrainsEveryAcceptedRequestExactlyOnce)
{
    ModelRegistry reg;
    registerAlex(reg, 31, /*max_batch=*/4);
    const Shape in = reg.model(0).inputShape();
    MultiTenantEngine engine(reg, quickConfig(2));

    Rng inputs(37);
    std::vector<std::future<TenantResult>> futs;
    for (int i = 0; i < 10; ++i) {
        auto sub = engine.submit(0, TaskClass::Background,
                                 randomInput(inputs, in));
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futs.push_back(std::move(sub.result));
    }
    engine.stop();
    engine.stop(); // idempotent

    for (auto &f : futs) {
        ASSERT_TRUE(f.valid());
        EXPECT_FALSE(f.get().shed); // fulfilled exactly once
    }
    EXPECT_EQ(engine.metrics().completed, 10u);

    // Submissions after stop are refused, not queued.
    auto late = engine.submit(0, TaskClass::Interactive,
                              randomInput(inputs, in));
    EXPECT_EQ(late.status, SubmitStatus::Stopped);
}

TEST(Serve, MetricsCountBatchesAndTails)
{
    ModelRegistry reg;
    registerAlex(reg, 41, /*max_batch=*/4);
    const Shape in = reg.model(0).inputShape();
    MultiTenantEngine engine(reg, quickConfig(1));

    // Queue all 12 before the replica comes back: the worker then
    // forms exactly three full batches of 4.
    ASSERT_TRUE(engine.queueFabric().removeIdle(0));
    Rng inputs(43);
    std::vector<std::future<TenantResult>> futs;
    for (int i = 0; i < 12; ++i) {
        auto sub = engine.submit(0, TaskClass::Interactive,
                                 randomInput(inputs, in));
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futs.push_back(std::move(sub.result));
    }
    engine.queueFabric().addIdle(0);
    for (auto &f : futs) {
        const TenantResult r = f.get();
        EXPECT_EQ(r.batchSize, 4u);
        EXPECT_GE(r.latencyS, r.queueS);
    }

    const TenantMetricsSnapshot m = engine.metrics();
    const TenantClassStats &c =
        m.byClass[static_cast<std::size_t>(TaskClass::Interactive)];
    EXPECT_EQ(m.completed, 12u);
    EXPECT_EQ(c.completed, 12u);
    EXPECT_EQ(m.shed, 0u);
    EXPECT_EQ(c.latency.count, 12u);
    EXPECT_GT(c.latency.p50S, 0.0);
    EXPECT_LE(c.latency.p50S, c.latency.p99S);
    EXPECT_LE(c.latency.p99S, c.latency.p999S);
    EXPECT_LE(c.latency.p999S, c.latency.maxS);
    EXPECT_LE(c.queueWait.p50S, c.latency.p50S);
    EXPECT_EQ(c.sloMet + c.sloMissed, 12u);
    EXPECT_GT(m.throughputRps, 0.0);
    EXPECT_EQ(m.queueHighWater, 12u);
}

TEST(Serve, LanePartitionComposesWithoutOversubscription)
{
    ModelRegistry reg;
    registerAlex(reg, 47);
    const Shape in = reg.model(0).inputShape();
    MultiEngineConfig cfg = quickConfig(2);
    cfg.lanesPerWorker = 1;
    MultiTenantEngine engine(reg, cfg);
    EXPECT_EQ(engine.lanesPerWorker(), 1u);

    Rng inputs(53);
    auto sub = engine.submit(0, TaskClass::Interactive,
                             randomInput(inputs, in));
    ASSERT_EQ(sub.status, SubmitStatus::Accepted);
    EXPECT_FALSE(sub.result.get().shed);
}

// ------------------------------------- shared-weight write contracts

using ServeDeathTest = ::testing::Test;

TEST(ServeDeathTest, SgdStepOnSharedWeightsFails)
{
    Rng rng(59);
    Network net = makeMiniAlexNet(rng);
    Network replica = net.cloneSharingWeights();
    SgdOptimizer opt(SgdConfig{});
    EXPECT_DEATH(opt.step(net.params()), "shared across serving");
}

TEST(ServeDeathTest, WeightLoadIntoSharedWeightsFails)
{
    Rng rng(61);
    Network net = makeMiniAlexNet(rng);
    const auto bytes = serializeWeights(net);
    Network replica = net.cloneSharingWeights();
    EXPECT_DEATH((void)deserializeWeights(net, bytes),
                 "shared across");
}

TEST(ServeDeathTest, MarkUpdatedOnSharedParamFails)
{
    Rng rng(67);
    Network net = makeMiniAlexNet(rng);
    Network replica = net.cloneSharingWeights();
    Param *p = net.params().front();
    ASSERT_TRUE(p->isShared());
    EXPECT_DEATH(p->markUpdated(), "read-only");
}

TEST(Serve, CloneSharesStorageAndFreezesBothSides)
{
    Rng rng(71);
    Network net = makeMiniAlexNet(rng);
    Network replica = net.cloneSharingWeights();

    const auto orig = net.params();
    const auto copy = replica.params();
    ASSERT_EQ(orig.size(), copy.size());
    for (std::size_t i = 0; i < orig.size(); ++i) {
        // Same Param object: storage is shared, not duplicated.
        EXPECT_EQ(orig[i], copy[i]);
        EXPECT_TRUE(orig[i]->isShared());
    }
}

} // namespace
} // namespace pcnn
