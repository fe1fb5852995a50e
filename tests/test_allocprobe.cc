/**
 * @file
 * Runtime allocation-zero probe (DESIGN.md §5h).
 *
 * tools/pcnn_analyze proves statically that PCNN_HOT_PATH functions
 * never reach an allocating primitive; these tests are the runtime
 * cross-check. With the PCNN_COUNT_ALLOCS build (the default dev
 * preset) the global operator new/delete family counts per-thread
 * allocator traffic, and a warmed-up forward — every scratch buffer
 * and weight panel already grown — must report exactly zero
 * allocations on the dispatching thread, at every pool width.
 *
 * Under the sanitizer presets counting is compiled out (ASan/TSan
 * own operator new); the probes skip themselves there.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <vector>

#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "serve/multi_engine.hh"

namespace pcnn {
namespace {

/** Restores the ambient pool width when a test resizes it. */
class ThreadCountGuard
{
  public:
    ThreadCountGuard() : saved(threadCount()) {}
    ~ThreadCountGuard() { setThreadCount(saved); }

  private:
    std::size_t saved;
};

TEST(AllocProbe, CountersObserveAllocatorTraffic)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "PCNN_COUNT_ALLOCS disabled in this build";
    ScopedAllocCount probe;
    {
        std::vector<int> v(1024, 7);
        ASSERT_EQ(v[0], 7);
    }
    EXPECT_GE(probe.allocs(), 1u);
    EXPECT_GE(probe.frees(), 1u);
}

/**
 * Warmed forward over a fixed batch: zero allocations on the calling
 * thread, for each of the three model-zoo nets, at pool widths
 * 1/2/4. The lane workers' own thread-local scratch grows during
 * warm-up and is invisible afterwards either way.
 */
TEST(AllocProbe, WarmForwardIsAllocFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "PCNN_COUNT_ALLOCS disabled in this build";

    ThreadCountGuard guard;
    for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                std::size_t(4)}) {
        setThreadCount(threads);
        for (int zoo = 0; zoo < 3; ++zoo) {
            Rng rng(42);
            Network net = zoo == 0   ? makeMiniAlexNet(rng)
                          : zoo == 1 ? makeMiniVgg(rng)
                                     : makeMiniInception(rng);
            const Shape &in = net.inputShape();
            Tensor x(Shape{4, in.c, in.h, in.w});
            x.fillGaussian(rng, 0, 1);

            // Warm-up: grows activations, scratch, weight panels,
            // and (on the first parallel call at this width) the
            // pool's worker threads.
            Tensor y;
            net.forwardInto(x, false, y);
            net.forwardInto(x, false, y);

            ScopedAllocCount probe;
            net.forwardInto(x, false, y);
            EXPECT_EQ(probe.allocs(), 0u)
                << "zoo " << zoo << " threads " << threads;
            EXPECT_EQ(probe.frees(), 0u)
                << "zoo " << zoo << " threads " << threads;
        }
    }
}

/**
 * A batch smaller than the warmed envelope must also be alloc-free:
 * every buffer on the path is grow-only, so shrinking the logical
 * shape reuses capacity.
 */
TEST(AllocProbe, SmallerBatchReusesCapacity)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "PCNN_COUNT_ALLOCS disabled in this build";

    Rng rng(7);
    Network net = makeMiniAlexNet(rng);
    const Shape &in = net.inputShape();
    Tensor big(Shape{8, in.c, in.h, in.w});
    big.fillGaussian(rng, 0, 1);
    Tensor small(Shape{2, in.c, in.h, in.w});
    small.fillGaussian(rng, 0, 1);

    Tensor y;
    net.forwardInto(big, false, y);

    ScopedAllocCount probe;
    net.forwardInto(small, false, y);
    EXPECT_EQ(probe.allocs(), 0u);
}

/**
 * End-to-end: the serving engine's own steady-state probe (worker
 * batches whose size was already served) must report zero
 * allocations in the metrics snapshot.
 */
TEST(AllocProbe, ServingEngineSteadyStateIsAllocFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "PCNN_COUNT_ALLOCS disabled in this build";

    Rng rng(42);
    ModelRegistry reg;
    ModelConfig mc;
    mc.name = "alex";
    mc.maxBatch = 1;
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng), std::move(mc)),
              RegisterStatus::Registered);
    MultiEngineConfig cfg;
    cfg.workers = 1;
    MultiTenantEngine engine(reg, cfg);

    const Shape &in = reg.model(0).inputShape();
    Rng inputs(9);
    std::vector<std::future<TenantResult>> futs;
    for (int i = 0; i < 24; ++i) {
        Tensor t(Shape{1, in.c, in.h, in.w});
        t.fillUniform(inputs, -1.0f, 1.0f);
        auto sub =
            engine.submit(0, TaskClass::Interactive, std::move(t));
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futs.push_back(std::move(sub.result));
    }
    for (auto &f : futs)
        f.get();

    const TenantMetricsSnapshot m = engine.metrics();
    engine.stop();
    // 24 batch-1 requests on one worker: at most the first batch is
    // outside the steady envelope.
    EXPECT_GE(m.steadyProbedBatches, 20u);
    EXPECT_EQ(m.steadyAllocs, 0u);
}

} // namespace
} // namespace pcnn
