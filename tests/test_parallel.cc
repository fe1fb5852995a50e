/**
 * @file
 * Tests for the deterministic CPU thread pool and the guarantees the
 * substrate builds on it: the static parallelFor partition, the
 * packed SGEMM against a reference triple loop in all four transpose
 * cases, and bitwise-identical network forward/backward/training
 * results across thread counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/random.hh"
#include "data/synthetic.hh"
#include "gpu/gpu_spec.hh"
#include "nn/model_zoo.hh"
#include "pcnn/offline/kernel_tuner.hh"
#include "tensor/tensor_ops.hh"
#include "train/trainer.hh"

namespace pcnn {
namespace {

/** Restore the PCNN_THREADS / hardware default on scope exit. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(std::size_t n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    ThreadCountGuard guard(4);
    const std::size_t n = 101;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    parallelFor(n, [&](std::size_t b, std::size_t e, std::size_t tid) {
        EXPECT_LT(tid, threadCount());
        for (std::size_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, PartitionIsTheStaticFormula)
{
    ThreadCountGuard guard(3);
    const std::size_t n = 10;
    std::vector<std::size_t> begins(threadCount(), n + 1);
    std::vector<std::size_t> ends(threadCount(), n + 1);
    parallelFor(n, [&](std::size_t b, std::size_t e, std::size_t tid) {
        begins[tid] = b;
        ends[tid] = e;
    });
    const std::size_t T = threadCount();
    for (std::size_t t = 0; t < T; ++t) {
        EXPECT_EQ(begins[t], n * t / T);
        EXPECT_EQ(ends[t], n * (t + 1) / T);
    }
}

TEST(ParallelFor, NestedCallsRunInline)
{
    ThreadCountGuard guard(4);
    EXPECT_FALSE(inParallelRegion());
    std::atomic<int> innerChunks{0};
    parallelFor(4, [&](std::size_t b, std::size_t e, std::size_t tid) {
        EXPECT_TRUE(inParallelRegion());
        EXPECT_EQ(currentLane(), tid);
        for (std::size_t i = b; i < e; ++i) {
            // A nested region must execute serially on this lane as
            // one [0, n) chunk with the caller's lane id.
            parallelFor(7, [&](std::size_t ib, std::size_t ie,
                               std::size_t itid) {
                EXPECT_EQ(ib, 0u);
                EXPECT_EQ(ie, 7u);
                EXPECT_EQ(itid, tid);
                innerChunks.fetch_add(1);
            });
        }
    });
    EXPECT_FALSE(inParallelRegion());
    EXPECT_EQ(innerChunks.load(), 4);
}

TEST(ParallelFor, TrivialSizes)
{
    ThreadCountGuard guard(4);
    int calls = 0;
    parallelFor(0, [&](std::size_t, std::size_t, std::size_t) {
        ++calls;
    });
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&](std::size_t b, std::size_t e, std::size_t tid) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 1u);
        EXPECT_EQ(tid, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ExceptionsPropagateToCaller)
{
    ThreadCountGuard guard(4);
    EXPECT_THROW(
        parallelFor(64,
                    [&](std::size_t b, std::size_t, std::size_t) {
                        if (b == 0)
                            throw std::runtime_error("chunk failure");
                    }),
        std::runtime_error);
    // The pool must stay usable after a throwing region.
    std::atomic<int> sum{0};
    parallelFor(8, [&](std::size_t b, std::size_t e, std::size_t) {
        sum.fetch_add(int(e - b));
    });
    EXPECT_EQ(sum.load(), 8);
}

TEST(ParallelFor, SetThreadCountOverridesAndRestores)
{
    setThreadCount(3);
    EXPECT_EQ(threadCount(), 3u);
    setThreadCount(0);
    EXPECT_GE(threadCount(), 1u);
}

/**
 * Set PCNN_THREADS for one scope; restores the previous value (or
 * its absence) and re-reads it through setThreadCount(0) on exit.
 */
class ThreadsEnvGuard
{
  public:
    explicit ThreadsEnvGuard(const char *value)
    {
        if (const char *old = std::getenv("PCNN_THREADS")) {
            hadOld = true;
            oldValue = old;
        }
        setenv("PCNN_THREADS", value, 1);
    }

    ~ThreadsEnvGuard()
    {
        if (hadOld)
            setenv("PCNN_THREADS", oldValue.c_str(), 1);
        else
            unsetenv("PCNN_THREADS");
        setThreadCount(0);
    }

    ThreadsEnvGuard(const ThreadsEnvGuard &) = delete;
    ThreadsEnvGuard &operator=(const ThreadsEnvGuard &) = delete;

  private:
    bool hadOld = false;
    std::string oldValue;
};

// Only reads the lane count: no parallelFor runs while a bad value
// is in force, so a wrapped count could never start its threads.
TEST(ParallelFor, EnvThreadsRejectsSignedAndMalformedValues)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t fallback = hw > 0 ? hw : 1;
    for (const char *bad : {"-1", "-4", "+3", " 3", "", "abc", "0",
                            "3x"}) {
        ThreadsEnvGuard env(bad);
        setThreadCount(0);
        EXPECT_EQ(threadCount(), fallback) << "PCNN_THREADS='" << bad
                                           << "'";
    }
    {
        ThreadsEnvGuard env("3");
        setThreadCount(0);
        EXPECT_EQ(threadCount(), 3u);
    }
    {
        ThreadsEnvGuard env("100000");
        setThreadCount(0);
        EXPECT_EQ(threadCount(), 256u);
    }
}

/** Reference SGEMM: straight triple loop over op(A), op(B). */
void
refGemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
        std::size_t k, const float *a, const float *b, float *c,
        float beta)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                const float av = trans_a ? a[p * m + i] : a[i * k + p];
                const float bv = trans_b ? b[j * k + p] : b[p * n + j];
                acc += double(av) * double(bv);
            }
            c[i * n + j] = float(acc) + beta * c[i * n + j];
        }
    }
}

TEST(Sgemm, AllTransposeCasesMatchReference)
{
    ThreadCountGuard guard(3);
    Rng rng(41);
    // Shapes straddle the 8x8 register blocking: exact multiples,
    // sub-block, and ragged edges in every dimension.
    const GemmShape shapes[] = {
        {8, 8, 8},   {16, 24, 32}, {5, 3, 2},    {13, 11, 7},
        {17, 64, 33}, {64, 9, 40},  {1, 30, 12},  {30, 1, 12},
    };
    for (const GemmShape &s : shapes) {
        for (int ta = 0; ta < 2; ++ta) {
            for (int tb = 0; tb < 2; ++tb) {
                Tensor a(1, 1, ta ? s.k : s.m, ta ? s.m : s.k);
                Tensor b(1, 1, tb ? s.n : s.k, tb ? s.k : s.n);
                a.fillGaussian(rng, 0.0f, 1.0f);
                b.fillGaussian(rng, 0.0f, 1.0f);
                Tensor c(1, 1, s.m, s.n);
                c.fillGaussian(rng, 0.0f, 1.0f);
                std::vector<float> want(c.data(),
                                        c.data() + c.size());
                refGemm(ta != 0, tb != 0, s.m, s.n, s.k, a.data(),
                        b.data(), want.data(), 0.5f);
                sgemm(ta != 0, tb != 0, s.m, s.n, s.k, a.data(),
                      b.data(), c.data(), 0.5f);
                for (std::size_t i = 0; i < c.size(); ++i)
                    EXPECT_NEAR(c[i], want[i], 1e-3)
                        << "m=" << s.m << " n=" << s.n
                        << " k=" << s.k << " ta=" << ta
                        << " tb=" << tb << " i=" << i;
            }
        }
    }
}

TEST(Sgemm, BitwiseIdenticalAcrossThreadCounts)
{
    Rng rng(42);
    const GemmShape shapes[] = {{96, 3025, 363}, {37, 53, 29}};
    for (const GemmShape &s : shapes) {
        for (int ta = 0; ta < 2; ++ta) {
            for (int tb = 0; tb < 2; ++tb) {
                Tensor a(1, 1, ta ? s.k : s.m, ta ? s.m : s.k);
                Tensor b(1, 1, tb ? s.n : s.k, tb ? s.k : s.n);
                a.fillGaussian(rng, 0.0f, 1.0f);
                b.fillGaussian(rng, 0.0f, 1.0f);
                Tensor c1(1, 1, s.m, s.n);
                Tensor c8(1, 1, s.m, s.n);
                {
                    ThreadCountGuard guard(1);
                    sgemm(ta != 0, tb != 0, s.m, s.n, s.k, a.data(),
                          b.data(), c1.data());
                }
                {
                    ThreadCountGuard guard(8);
                    sgemm(ta != 0, tb != 0, s.m, s.n, s.k, a.data(),
                          b.data(), c8.data());
                }
                EXPECT_EQ(std::memcmp(c1.data(), c8.data(),
                                      c1.size() * sizeof(float)),
                          0)
                    << "m=" << s.m << " n=" << s.n << " k=" << s.k
                    << " ta=" << ta << " tb=" << tb;
            }
        }
    }
}

TEST(Im2col, ChannelOffsetReadsTheChannelWindow)
{
    ThreadCountGuard guard(2);
    Rng rng(43);
    Tensor x(2, 4, 6, 6); // wider than the conv's channel window
    x.fillGaussian(rng, 0.0f, 1.0f);
    ConvGeom g{2, 6, 6, 3, 1, 1};

    // Reference: copy channels [2, 4) of item 1 into a slim tensor.
    Tensor slim(1, 2, 6, 6);
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < 36; ++i)
            slim.data()[c * 36 + i] =
                x.data()[(1 * 4 + 2 + c) * 36 + i];

    std::vector<float> want, got;
    im2col(slim, 0, g, want);
    im2col(x, 1, g, got, 2);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0);
}

/** Collect a bitwise snapshot of every parameter value. */
std::vector<float>
snapshotParams(Network &net)
{
    std::vector<float> out;
    for (Param *p : net.params())
        out.insert(out.end(), p->value.data(),
                   p->value.data() + p->value.size());
    return out;
}

TEST(Determinism, ForwardBackwardBitwiseAcrossThreadCounts)
{
    Rng rngInit(44);
    Network net = makeMiniNet(MiniSize::Small, rngInit);
    Rng rngData(45);
    // Batch 16 >= any tested lane count, so the conv layers take the
    // batch-parallel path rather than the serial fallback.
    Tensor x(16, 1, 16, 16);
    x.fillGaussian(rngData, 0.0f, 1.0f);

    auto run = [&](std::size_t threads, Tensor &y, Tensor &dx,
                   std::vector<float> &grads) {
        ThreadCountGuard guard(threads);
        net.zeroGrads();
        y = net.forward(x, true);
        Tensor dlogits(y.shape());
        Rng rngGrad(46);
        dlogits.fillGaussian(rngGrad, 0.0f, 1.0f);
        dx = net.backward(dlogits);
        grads.clear();
        for (Param *p : net.params())
            grads.insert(grads.end(), p->grad.data(),
                         p->grad.data() + p->grad.size());
    };

    Tensor y1, dx1, y8, dx8;
    std::vector<float> g1, g8;
    run(1, y1, dx1, g1);
    run(8, y8, dx8, g8);

    ASSERT_EQ(y1.size(), y8.size());
    EXPECT_EQ(std::memcmp(y1.data(), y8.data(),
                          y1.size() * sizeof(float)),
              0)
        << "forward logits differ across thread counts";
    ASSERT_EQ(dx1.size(), dx8.size());
    EXPECT_EQ(std::memcmp(dx1.data(), dx8.data(),
                          dx1.size() * sizeof(float)),
              0)
        << "input gradients differ across thread counts";
    ASSERT_EQ(g1.size(), g8.size());
    EXPECT_EQ(std::memcmp(g1.data(), g8.data(),
                          g1.size() * sizeof(float)),
              0)
        << "parameter gradients differ across thread counts";
}

TEST(Determinism, TrainerFitBitwiseAcrossThreadCounts)
{
    TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 16;

    auto run = [&](std::size_t threads,
                   std::vector<EpochStats> &history) {
        ThreadCountGuard guard(threads);
        // Rebuild task, data, and network from fixed seeds so the two
        // runs differ in nothing but the thread count (fit shuffles
        // the dataset in place, so it cannot be shared between runs).
        SyntheticTaskConfig cfg;
        cfg.difficulty = 0.5;
        cfg.seed = 47;
        SyntheticTask task(cfg);
        Dataset train_set = task.generate(128);
        Rng rng(48);
        Network net = makeMiniNet(MiniSize::Small, rng);
        Trainer trainer(net, tc);
        history = trainer.fit(train_set);
        return snapshotParams(net);
    };

    std::vector<EpochStats> h1, h8;
    const std::vector<float> p1 = run(1, h1);
    const std::vector<float> p8 = run(8, h8);

    ASSERT_EQ(p1.size(), p8.size());
    EXPECT_EQ(std::memcmp(p1.data(), p8.data(),
                          p1.size() * sizeof(float)),
              0)
        << "trained parameters differ across thread counts";
    ASSERT_EQ(h1.size(), h8.size());
    for (std::size_t e = 0; e < h1.size(); ++e) {
        EXPECT_EQ(h1[e].trainLoss, h8[e].trainLoss) << "epoch " << e;
        EXPECT_EQ(h1[e].trainAccuracy, h8[e].trainAccuracy)
            << "epoch " << e;
    }
}

TEST(Determinism, KernelTunerIdenticalAcrossThreadCounts)
{
    const KernelTuner tuner(k20c());
    const GemmShape shapes[] = {{128, 729, 1200}, {96, 3025, 363}};
    for (const GemmShape &g : shapes) {
        TunedKernel t1, t8;
        {
            ThreadCountGuard guard(1);
            t1 = tuner.tune(g);
        }
        {
            ThreadCountGuard guard(8);
            t8 = tuner.tune(g);
        }
        EXPECT_EQ(t1.config.tile.m, t8.config.tile.m);
        EXPECT_EQ(t1.config.tile.n, t8.config.tile.n);
        EXPECT_EQ(t1.config.tile.blockSize, t8.config.tile.blockSize);
        EXPECT_EQ(t1.config.regsPerThread, t8.config.regsPerThread);
        EXPECT_EQ(t1.optTLP, t8.optTLP);
        EXPECT_EQ(t1.skernel, t8.skernel);
        EXPECT_EQ(t1.predictedTimeS, t8.predictedTimeS);
    }
}

// ------------------------------------------- ScopedLaneLimit (§5f)

TEST(ScopedLaneLimit, CapsThreadCountAndNestsTighterWins)
{
    ThreadCountGuard guard(4);
    EXPECT_EQ(threadCount(), 4u);
    {
        ScopedLaneLimit two(2);
        EXPECT_EQ(threadCount(), 2u);
        {
            ScopedLaneLimit three(3); // looser than 2: no effect
            EXPECT_EQ(threadCount(), 2u);
            ScopedLaneLimit one(1);
            EXPECT_EQ(threadCount(), 1u);
        }
        EXPECT_EQ(threadCount(), 2u);
    }
    EXPECT_EQ(threadCount(), 4u);
}

TEST(ScopedLaneLimit, ZeroMeansNoCap)
{
    ThreadCountGuard guard(3);
    ScopedLaneLimit none(0);
    EXPECT_EQ(threadCount(), 3u);
}

TEST(ScopedLaneLimit, LimitOneRunsInline)
{
    ThreadCountGuard guard(4);
    ScopedLaneLimit one(1);
    std::size_t chunks = 0;
    parallelFor(64, [&](std::size_t b, std::size_t e,
                        std::size_t tid) {
        // One [0, n) chunk on the calling thread: no pool traffic.
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 64u);
        EXPECT_EQ(tid, 0u);
        ++chunks;
    });
    EXPECT_EQ(chunks, 1u);
}

TEST(ScopedLaneLimit, PartitionFollowsTheCappedCount)
{
    ThreadCountGuard guard(4);
    ScopedLaneLimit two(2);
    const std::size_t n = 10;
    std::vector<std::size_t> begins(threadCount(), n + 1);
    std::vector<std::size_t> ends(threadCount(), n + 1);
    parallelFor(n, [&](std::size_t b, std::size_t e,
                       std::size_t tid) {
        begins[tid] = b;
        ends[tid] = e;
    });
    const std::size_t T = 2;
    for (std::size_t t = 0; t < T; ++t) {
        EXPECT_EQ(begins[t], n * t / T);
        EXPECT_EQ(ends[t], n * (t + 1) / T);
    }
}

TEST(ScopedLaneLimit, IsThreadLocal)
{
    ThreadCountGuard guard(4);
    std::atomic<std::size_t> inThread{0};
    {
        ScopedLaneLimit one(1);
        // A concurrently running thread sees the uncapped count.
        std::thread t([&] { inThread = threadCount(); });
        t.join();
        EXPECT_EQ(threadCount(), 1u);
    }
    EXPECT_EQ(inThread.load(), 4u);
}

TEST(ScopedLaneLimit, ResultsBitwiseIdenticalUnderCap)
{
    ThreadCountGuard guard(4);
    const std::size_t m = 17, n = 23, k = 31;
    Rng rng(97);
    std::vector<float> a(m * k), b(k * n);
    for (auto &v : a)
        v = float(rng.uniform()) - 0.5f;
    for (auto &v : b)
        v = float(rng.uniform()) - 0.5f;

    std::vector<float> full(m * n, 0.0f), capped(m * n, 0.0f);
    sgemm(false, false, m, n, k, a.data(), b.data(), full.data());
    {
        ScopedLaneLimit two(2);
        sgemm(false, false, m, n, k, a.data(), b.data(),
              capped.data());
    }
    EXPECT_EQ(std::memcmp(full.data(), capped.data(),
                          full.size() * sizeof(float)),
              0)
        << "lane cap changed SGEMM bits";
}

} // namespace
} // namespace pcnn
