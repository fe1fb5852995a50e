/**
 * @file
 * google-benchmark microbenches of the CPU substrate: SGEMM, im2col,
 * convolution forward (exact and perforated), LRN and max pooling,
 * softmax/entropy, and the analytical kernel model itself.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>

#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "gpu/kernel_model.hh"
#include "nn/conv_layer.hh"
#include "nn/lrn_layer.hh"
#include "nn/model_zoo.hh"
#include "nn/pool_layer.hh"
#include "pcnn/offline/host_tuner.hh"
#include "pcnn/offline/kernel_tuner.hh"
#include "tensor/microkernel.hh"
#include "tensor/quant.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {
namespace {

void
BM_Sgemm(benchmark::State &state)
{
    const auto n = std::size_t(state.range(0));
    Rng rng(1);
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (auto &x : a)
        x = float(rng.uniform(-1, 1));
    for (auto &x : b)
        x = float(rng.uniform(-1, 1));
    for (auto _ : state) {
        sgemm(false, false, n, n, n, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(2 * n * n * n));
}
BENCHMARK(BM_Sgemm)->Arg(64)->Arg(128)->Arg(256);

void
BM_Im2col(benchmark::State &state)
{
    Rng rng(2);
    Tensor x(1, 16, 32, 32);
    x.fillGaussian(rng, 0, 1);
    const ConvGeom g{16, 32, 32, 3, 1, 1};
    std::vector<float> cols;
    for (auto _ : state) {
        im2col(x, 0, g, cols);
        benchmark::DoNotOptimize(cols.data());
    }
}
BENCHMARK(BM_Im2col);

void
BM_ConvForward(benchmark::State &state)
{
    Rng rng(3);
    ConvSpec spec;
    spec.name = "bench";
    spec.inC = 16;
    spec.outC = 32;
    spec.kernel = 3;
    spec.stride = 1;
    spec.pad = 1;
    spec.inH = spec.inW = 32;
    ConvLayer layer(spec, rng);
    Tensor x(1, 16, 32, 32);
    x.fillGaussian(rng, 0, 1);

    // range(0): percent of output positions actually computed.
    const std::size_t full = 32 * 32;
    layer.setComputedPositions(full * std::size_t(state.range(0)) /
                               100);
    for (auto _ : state) {
        Tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_ConvForward)->Arg(100)->Arg(50)->Arg(25);

/**
 * The same 3x3 layer pinned to one conv algorithm: the winograd
 * F(2x2,3x3) route vs. the im2col lowering, head to head on a shape
 * where the cost model prefers winograd. range(0) selects the
 * ConvAlgo encoding (0 = im2col, 2 = winograd).
 */
void
BM_ConvForwardAlgo(benchmark::State &state)
{
    Rng rng(3);
    ConvSpec spec;
    spec.name = "bench";
    spec.inC = 64;
    spec.outC = 64;
    spec.kernel = 3;
    spec.stride = 1;
    spec.pad = 1;
    spec.inH = spec.inW = 28;
    ConvLayer layer(spec, rng);
    layer.setAlgo(ConvAlgo(int(state.range(0))));
    Tensor x(1, 64, 28, 28);
    x.fillGaussian(rng, 0, 1);

    for (auto _ : state) {
        Tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_ConvForwardAlgo)
    ->Arg(int(ConvAlgo::Im2col))
    ->Arg(int(ConvAlgo::Winograd));

/**
 * SGEMM thread scaling: range(0) = matrix size, range(1) = pool
 * lanes. The GFLOPS counter makes speedups directly comparable in
 * the --benchmark_format=json output.
 */
void
BM_SgemmThreads(benchmark::State &state)
{
    const auto n = std::size_t(state.range(0));
    setThreadCount(std::size_t(state.range(1)));
    Rng rng(1);
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (auto &x : a)
        x = float(rng.uniform(-1, 1));
    for (auto &x : b)
        x = float(rng.uniform(-1, 1));
    for (auto _ : state) {
        sgemm(false, false, n, n, n, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        2.0 * double(n) * double(n) * double(n) *
            double(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate);
    setThreadCount(0);
}
BENCHMARK(BM_SgemmThreads)
    ->UseRealTime()
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4});

/** im2col thread scaling on the stock 16x32x32 / 3x3 geometry. */
void
BM_Im2colThreads(benchmark::State &state)
{
    setThreadCount(std::size_t(state.range(0)));
    Rng rng(2);
    Tensor x(1, 16, 32, 32);
    x.fillGaussian(rng, 0, 1);
    const ConvGeom g{16, 32, 32, 3, 1, 1};
    std::vector<float> cols;
    for (auto _ : state) {
        im2col(x, 0, g, cols);
        benchmark::DoNotOptimize(cols.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(g.colRows() * 32 * 32 *
                                    sizeof(float)));
    setThreadCount(0);
}
BENCHMARK(BM_Im2colThreads)->UseRealTime()->Arg(1)->Arg(2)->Arg(4);

/**
 * Convolution forward on the paper's AlexNet CONV2 layer (the Fig. 2
 * exemplar: 5x5 over 96 -> 256 channels, 2 groups, 27x27 output),
 * batch 1, at range(0) pool lanes. This is the PR's headline
 * acceptance shape.
 */
void
BM_ConvForwardAlexNetConv2(benchmark::State &state)
{
    setThreadCount(std::size_t(state.range(0)));
    Rng rng(5);
    const ConvSpec spec = alexNet().convs[1];
    ConvLayer layer(spec, rng);
    Tensor x(1, spec.inC, spec.inH, spec.inW);
    x.fillGaussian(rng, 0, 1);
    for (auto _ : state) {
        Tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        spec.flopsPerImage() * double(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate);
    setThreadCount(0);
}
BENCHMARK(BM_ConvForwardAlexNetConv2)->UseRealTime()->Arg(1)->Arg(2)->Arg(4);

/** Conv layer of a paper network, looked up by name. */
const ConvSpec &
zooConv(const NetDescriptor &d, const char *name)
{
    for (const ConvSpec &c : d.convs)
        if (c.name == name)
            return c;
    std::abort(); // bench shape table out of sync with the zoo
}

/** Shape table of the tier sweep: fixed squares + e2e conv GEMMs. */
GemmShape
tierBenchShape(int idx)
{
    static const NetDescriptor alex = alexNet();
    static const NetDescriptor vgg = vgg16();
    switch (idx) {
    case 0:
        return GemmShape{256, 256, 256};
    case 1:
        return GemmShape{512, 512, 512};
    case 2:
        return zooConv(alex, "CONV2").gemmShape(1); // large K (1200)
    case 3:
        return zooConv(vgg, "CONV2_1").gemmShape(1);
    default:
        return zooConv(vgg, "CONV3_1").gemmShape(1); // large K (1152)
    }
}

/**
 * The tier sweep over the prepacked inference hot path
 * (sgemmPrepacked, the route serving traffic takes). cfg selects the
 * kernel configuration:
 *   0 = portable tier at its default blocking (the pre-dispatch
 *       baseline: what every host ran before tier dispatch existed),
 *   1 = runtime-dispatched best tier at its cache-derived default,
 *   2 = the persisted per-host tune cache (pcnn_autotune winner);
 *       skipped with an error when no valid cache exists — run
 *       pcnn_autotune first.
 *
 * The bitwise_threads_ok counter re-runs the product at 1/2/4 pool
 * lanes before timing and records whether all three agree bitwise —
 * the per-tier determinism contract, checked on the exact
 * configuration being measured.
 */
void
BM_SgemmTier(benchmark::State &state)
{
    const GemmShape g = tierBenchShape(int(state.range(0)));
    const int cfg = int(state.range(1));

    resetKernelTier();
    resetBlocking();
    if (cfg == 0) {
        setKernelTier(KernelTier::Portable);
        setBlocking(defaultBlocking(KernelTier::Portable));
    } else if (cfg == 1) {
        setKernelTier(bestKernelTier());
    } else {
        HostTuneConfig tuned;
        std::string err;
        if (!loadHostTune(hostTuneCachePath(), tuned, err)) {
            state.SkipWithError(("no usable tune cache: " + err).c_str());
            return;
        }
        applyHostTune(tuned);
    }

    Rng rng(6);
    std::vector<float> a(g.m * g.k), w(g.k * g.n), c(g.m * g.n);
    for (auto &x : a)
        x = float(rng.uniform(-1, 1));
    for (auto &x : w)
        x = float(rng.uniform(-1, 1));
    PackedPanel panel;
    packWeights(false, g.k, g.n, w.data(), panel);

    // Determinism probe at the measured configuration.
    bool bitwise_ok = true;
    {
        std::vector<float> ref(g.m * g.n);
        setThreadCount(1);
        sgemmPrepacked(g.m, g.n, g.k, a.data(), panel, ref.data());
        for (std::size_t lanes : {std::size_t(2), std::size_t(4)}) {
            setThreadCount(lanes);
            sgemmPrepacked(g.m, g.n, g.k, a.data(), panel, c.data());
            if (std::memcmp(ref.data(), c.data(),
                            c.size() * sizeof(float)) != 0)
                bitwise_ok = false;
        }
        setThreadCount(0);
    }

    for (auto _ : state) {
        sgemmPrepacked(g.m, g.n, g.k, a.data(), panel, c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        g.flops() * double(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate);
    state.counters["bitwise_threads_ok"] = bitwise_ok ? 1.0 : 0.0;
    state.counters["k"] = double(g.k);
    resetKernelTier();
    resetBlocking();
}
BENCHMARK(BM_SgemmTier)
    ->ArgNames({"shape", "cfg"})
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2}});

/** Best-of-five seconds per call of `fn`, with the inner iteration
 * count calibrated so each sample spans at least ~20 ms. Used for
 * the in-bench fp32-vs-int8 baseline where both sides must be timed
 * with the same methodology. */
template <class Fn>
double
bestSecsPerCall(Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    fn(); // warm-up: grow panels and scratch outside the samples
    std::size_t iters = 1;
    for (;;) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            fn();
        const double s =
            std::chrono::duration<double>(clock::now() - t0).count();
        if (s >= 0.02 || iters >= (std::size_t(1) << 20))
            break;
        iters *= 2;
    }
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            fn();
        const double s =
            std::chrono::duration<double>(clock::now() - t0).count();
        best = std::min(best, s / double(iters));
    }
    return best;
}

/**
 * Int8 quantized GEMM (fused dequant epilogue) vs. the tuned fp32
 * hot path on the batch-1 conv GEMM acceptance shapes — the
 * DESIGN.md §5i headline numbers. range(0) indexes tierBenchShape
 * (2 = AlexNet CONV2, 3 = VGG-16 CONV2_1, 4 = VGG-16 CONV3_1, the
 * large-K shapes where int8's 4x denser dot products pay off);
 * range(1) = int8 kernel configuration: 0 = portable int8 tier,
 * 1 = the runtime-dispatched best int8 tier.
 *
 * The timed body is the full per-forward int8 cost: quantize+pack
 * the activation panel, then qgemm. The speedup_vs_fp32 counter
 * divides a same-methodology fp32 baseline — the plain sgemm call
 * the exact conv route makes per forward (weights x im2col matrix,
 * internal packing included), under the per-host tune cache when
 * one exists and the dispatched best tier otherwise — by the int8
 * time. bitwise_threads_ok asserts the cross-thread bitwise
 * contract on the measured configuration, and steady_allocs records
 * the allocator traffic of a warmed call (must be 0 when
 * alloc_counting = 1).
 */
void
BM_Qgemm(benchmark::State &state)
{
    const GemmShape g = tierBenchShape(int(state.range(0)));
    const int cfg = int(state.range(1));

    Rng rng(7);
    std::vector<float> wgt(g.m * g.k), act(g.k * g.n), c(g.m * g.n);
    for (auto &x : wgt)
        x = float(rng.uniform(-1, 1));
    for (auto &x : act)
        x = float(rng.uniform(-1, 1));

    // Tuned fp32 baseline on the same shape: the per-host autotuned
    // config when a cache exists (pcnn_autotune sweeps one), the
    // dispatched best tier otherwise.
    resetKernelTier();
    resetBlocking();
    {
        HostTuneConfig tuned;
        std::string err;
        if (loadHostTune(hostTuneCachePath(), tuned, err))
            applyHostTune(tuned);
        else
            setKernelTier(bestKernelTier());
    }
    const double fp32_secs = bestSecsPerCall([&] {
        sgemm(false, false, g.m, g.n, g.k, wgt.data(), act.data(),
              c.data());
        benchmark::DoNotOptimize(c.data());
    });

    resetKernelTier();
    resetBlocking();
    if (cfg == 0)
        setKernelTier(KernelTier::Portable);

    QuantizedPanel qw;
    quantizeWeights(g.m, g.k, wgt.data(), qw);
    const QuantParams qp = computeQuantParams(act.data(), act.size());
    std::vector<std::uint8_t> qb;
    const auto quantizedCall = [&] {
        quantizePackActivations(act.data(), g.k, g.n, g.n, false, qp,
                                qb);
        qgemm(g.m, g.n, g.k, qw, qb.data(), qp, c.data(), nullptr,
              false);
        benchmark::DoNotOptimize(c.data());
    };

    // Determinism probe at the measured configuration: the int8
    // contract is bitwise identity across thread counts (and tiers,
    // which the cfg sweep itself exercises).
    bool bitwise_ok = true;
    {
        std::vector<float> ref(g.m * g.n);
        setThreadCount(1);
        quantizePackActivations(act.data(), g.k, g.n, g.n, false, qp,
                                qb);
        qgemm(g.m, g.n, g.k, qw, qb.data(), qp, ref.data(), nullptr,
              false);
        for (std::size_t lanes : {std::size_t(2), std::size_t(4)}) {
            setThreadCount(lanes);
            quantizedCall();
            if (std::memcmp(ref.data(), c.data(),
                            c.size() * sizeof(float)) != 0)
                bitwise_ok = false;
        }
        setThreadCount(0);
    }

    // Steady-state allocation probe on a warmed call.
    std::uint64_t steady_allocs = 0;
    {
        quantizedCall();
        ScopedAllocCount probe;
        quantizedCall();
        steady_allocs = probe.allocs();
    }

    const double int8_secs = bestSecsPerCall(quantizedCall);

    for (auto _ : state)
        quantizedCall();

    state.counters["GFLOPS"] = benchmark::Counter(
        g.flops() * double(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate);
    state.counters["speedup_vs_fp32"] = fp32_secs / int8_secs;
    state.counters["steady_allocs"] = double(steady_allocs);
    state.counters["alloc_counting"] =
        allocCountingEnabled() ? 1.0 : 0.0;
    state.counters["bitwise_threads_ok"] = bitwise_ok ? 1.0 : 0.0;
    state.counters["k"] = double(g.k);
    resetKernelTier();
    resetBlocking();
}
BENCHMARK(BM_Qgemm)
    ->ArgNames({"shape", "cfg"})
    ->ArgsProduct({{2, 3, 4}, {0, 1}});

/**
 * One layer of each distinct conv geometry in the three zoo nets; a
 * layer sharing its geometry with a listed one is named after it.
 */
struct ZooConvRow
{
    const char *net;
    const char *layer;
};
constexpr ZooConvRow kZooConvRows[] = {
    {"MiniAlexNet", "CONV1"},       // also MiniVgg CONV1_1
    {"MiniAlexNet", "CONV2"},       // 2 groups over a 7x7 grid
    {"MiniVgg", "CONV1_2"},
    {"MiniVgg", "CONV2_1"},
    {"MiniVgg", "CONV2_2"},
    {"MiniInception", "STEM"},
    {"MiniInception", "INC1/1x1"},  // also 3x3_reduce, pool_proj
    {"MiniInception", "INC1/3x3"},
    {"MiniInception", "INC1/5x5_reduce"},
    {"MiniInception", "INC1/5x5"},
};

/** The spec of one kZooConvRows row, drawn from its zoo net. */
ConvSpec
zooRowSpec(const ZooConvRow &row, Rng &rng)
{
    const std::string net = row.net;
    const NetDescriptor d =
        describe(net == "MiniAlexNet" ? makeMiniAlexNet(rng)
                 : net == "MiniVgg"   ? makeMiniVgg(rng)
                                      : makeMiniInception(rng));
    return zooConv(d, row.layer);
}

/**
 * The zoo's conv layers one at a time at one lane, batch 1.
 * range(0) indexes kZooConvRows; range(1) is the ConvAlgo encoding
 * the layer is pinned to (0 = im2col, 2 = winograd) or -1 for the
 * route it dispatches to (the compiled graph's route), so the
 * im2col/winograd crossover reads off adjacent rows. Pairs whose
 * geometry does not admit the algorithm are not registered. The
 * label names the layer and the algorithm that ran.
 */
void
BM_ConvForwardZoo(benchmark::State &state)
{
    const ZooConvRow &row = kZooConvRows[state.range(0)];
    Rng rng(8);
    const ConvSpec spec = zooRowSpec(row, rng);
    ScopedLaneLimit lanes(1);
    ConvLayer layer(spec, rng);
    if (state.range(1) >= 0)
        layer.setAlgo(ConvAlgo(int(state.range(1))));
    Tensor x(1, spec.inC, spec.inH, spec.inW);
    x.fillGaussian(rng, 0, 1);
    Tensor y;
    for (auto _ : state) {
        layer.forwardInto(x, false, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetLabel(std::string(row.net) + " " + spec.name + " " +
                   convAlgoName(layer.effectiveAlgo(false)));
    state.counters["GFLOPS"] = benchmark::Counter(
        spec.flopsPerImage() * double(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate);
}

/** Every (row, algorithm) pair of BM_ConvForwardZoo that can run. */
void
zooConvArgs(benchmark::internal::Benchmark *b)
{
    for (int r = 0; r < int(std::size(kZooConvRows)); ++r) {
        Rng rng(8);
        const ConvSpec spec = zooRowSpec(kZooConvRows[r], rng);
        for (int algo :
             {int(ConvAlgo::Im2col), int(ConvAlgo::Winograd), -1})
            if (algo < 0 || spec.algoEligible(ConvAlgo(algo)))
                b->Args({r, algo});
    }
}
BENCHMARK(BM_ConvForwardZoo)
    ->ArgNames({"row", "algo"})
    ->Apply(zooConvArgs);

/**
 * MiniAlexNet's LRN1 on its [12,16,16] activations at range(0) =
 * batch, one lane: the plane-loop forward whose floor is one powf per
 * element (DESIGN.md §5d).
 */
void
BM_LrnForward(benchmark::State &state)
{
    ScopedLaneLimit lanes(1);
    Rng rng(6);
    LrnLayer lrn("LRN1", 5, 1e-3, 0.75, 2.0);
    Tensor x(std::size_t(state.range(0)), 12, 16, 16);
    x.fillGaussian(rng, 0, 1);
    Tensor y;
    for (auto _ : state) {
        lrn.forwardInto(x, false, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(x.size()));
}
BENCHMARK(BM_LrnForward)->Arg(1)->Arg(16);

/**
 * The zoo's max pools at range(1) = batch, one lane. range(0) picks
 * the pool: 0 = 2x2/2 over [12,16,16] (MiniVgg, MiniInception stem),
 * 1 = 3x3/2 over [12,16,16] (MiniAlexNet POOL1), 2 = 3x3/1 pad 1
 * over [16,8,8] (the inception pool branch).
 */
void
BM_MaxPoolForward(benchmark::State &state)
{
    struct Case
    {
        std::size_t window, stride, pad, c, hw;
    };
    constexpr Case kCases[] = {
        {2, 2, 0, 12, 16}, {3, 2, 0, 12, 16}, {3, 1, 1, 16, 8}};
    const Case &pc = kCases[state.range(0)];
    ScopedLaneLimit lanes(1);
    Rng rng(7);
    MaxPoolLayer pool("pool", pc.window, pc.stride, pc.pad);
    Tensor x(std::size_t(state.range(1)), pc.c, pc.hw, pc.hw);
    x.fillGaussian(rng, 0, 1);
    Tensor y;
    for (auto _ : state) {
        pool.forwardInto(x, false, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(x.size()));
}
BENCHMARK(BM_MaxPoolForward)->ArgsProduct({{0, 1, 2}, {1, 16}});

void
BM_SoftmaxEntropy(benchmark::State &state)
{
    Rng rng(4);
    Tensor logits(64, 1000, 1, 1);
    logits.fillGaussian(rng, 0, 3);
    for (auto _ : state) {
        const Tensor p = softmax(logits);
        benchmark::DoNotOptimize(batchEntropy(p));
    }
}
BENCHMARK(BM_SoftmaxEntropy);

void
BM_KernelModel(benchmark::State &state)
{
    const GpuSpec gpu = k20c();
    const GemmShape g{384, 169 * 64, 2304};
    for (auto _ : state) {
        const SgemmModel m(gpu, {tileByName(64, 64), 0});
        benchmark::DoNotOptimize(m.kernelTime(g));
    }
}
BENCHMARK(BM_KernelModel);

void
BM_KernelTuner(benchmark::State &state)
{
    const GpuSpec gpu = jetsonTx1();
    const KernelTuner tuner(gpu);
    const GemmShape g = alexNet().convs[1].gemmShape(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(tuner.tune(g));
}
BENCHMARK(BM_KernelTuner);

} // namespace
} // namespace pcnn
