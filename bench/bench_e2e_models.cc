/**
 * @file
 * End-to-end model-level benchmarks of the inference hot path.
 *
 * The microbenches in bench_micro_kernels.cc time single kernels;
 * this bench times whole-network forward passes of the trainable
 * model_zoo nets (AlexNet-style, VGG-style, inception-style) at batch
 * 1/4/16, both at full resolution and with 25% perforation, so
 * data-layout work that hides between kernels — im2col, panel
 * packing, scratch churn, bias/interpolation copies — shows up in the
 * number that matters: images per second through a real layer graph.
 *
 * BENCH_pr3.json is a frozen snapshot of this bench.
 */

#include <benchmark/benchmark.h>

#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/conv_layer.hh"
#include "nn/graph/compiled_graph.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {
namespace {

/** Which model_zoo builder a benchmark instance runs. */
enum class Zoo
{
    AlexStyle,
    VggStyle,
    InceptionStyle,
};

Network
makeNet(Zoo zoo, Rng &rng)
{
    switch (zoo) {
      case Zoo::AlexStyle:
        return makeMiniAlexNet(rng);
      case Zoo::VggStyle:
        return makeMiniVgg(rng);
      case Zoo::InceptionStyle:
        return makeMiniInception(rng);
    }
    return makeMiniAlexNet(rng);
}

/**
 * Forward the net over a fixed random batch. range(0) = batch size,
 * range(1) = percent of conv output positions computed (100 = full,
 * lower = perforated inference with nearest-neighbour fill).
 */
void
runForward(benchmark::State &state, Zoo zoo)
{
    const auto batch = std::size_t(state.range(0));
    const auto percent = std::size_t(state.range(1));
    Rng rng(42);
    Network net = makeNet(zoo, rng);

    const Shape in = net.inputShape();
    Tensor x(Shape{batch, in.c, in.h, in.w});
    x.fillGaussian(rng, 0, 1);

    if (percent < 100) {
        for (ConvLayer *c : net.convLayers())
            c->setComputedPositions(c->fullPositions() * percent / 100);
    }

    // Warm-up grows every scratch buffer and weight panel; after it,
    // the steady-state forward must not touch the allocator, and the
    // probe below publishes the measured count per JSON row (the
    // runtime cross-check of the pcnn_analyze hot-path-alloc rule).
    Tensor y;
    net.forwardInto(x, false, y);
    std::uint64_t steady_allocs = 0;
    for (auto _ : state) {
        ScopedAllocCount probe;
        net.forwardInto(x, false, y);
        benchmark::DoNotOptimize(y.data());
        steady_allocs += probe.allocs();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batch));
    state.counters["img/s"] = benchmark::Counter(
        double(state.iterations()) * double(batch),
        benchmark::Counter::kIsRate);
    state.counters["steady_allocs"] = double(steady_allocs);
    state.counters["alloc_counting"] =
        allocCountingEnabled() ? 1.0 : 0.0;
    // Steady activation+scratch footprint of the compiled graph, and
    // the single arena allocation's share of it.
    state.counters["steady_mem_bytes"] =
        double(net.steadyMemoryBytes());
    state.counters["peak_arena_bytes"] =
        double(net.compiledGraph()->arenaBytes());
}

void
BM_E2EMiniAlexNet(benchmark::State &state)
{
    runForward(state, Zoo::AlexStyle);
}

void
BM_E2EMiniVgg(benchmark::State &state)
{
    runForward(state, Zoo::VggStyle);
}

void
BM_E2EMiniInception(benchmark::State &state)
{
    runForward(state, Zoo::InceptionStyle);
}

#define PCNN_E2E_ARGS                                                  \
    ->Args({1, 100})                                                   \
        ->Args({4, 100})                                               \
        ->Args({16, 100})                                              \
        ->Args({1, 25})                                                \
        ->Args({4, 25})                                                \
        ->Args({16, 25})

BENCHMARK(BM_E2EMiniAlexNet) PCNN_E2E_ARGS;
BENCHMARK(BM_E2EMiniVgg) PCNN_E2E_ARGS;
BENCHMARK(BM_E2EMiniInception) PCNN_E2E_ARGS;

#undef PCNN_E2E_ARGS

// ------------------------------- per-algorithm layer breakdowns

/**
 * One conv layer, one algorithm, batch 1: the per-shape latency
 * table behind the conv-algorithm cost model (DESIGN.md §5e).
 * range(0) indexes the shape sweep below — the MiniVgg 3x3 layers
 * plus two full-size VGG-16 shapes; range(1) is the ConvAlgo
 * encoding (0 = im2col, 2 = winograd) or -1 for cost-model
 * dispatch, so the "auto" rows expose the dispatch regret directly.
 *
 * BENCH_pr4.json is a frozen snapshot of these rows (with the
 * winograd microbench).
 */
struct AlgoShape
{
    const char *name;
    std::size_t inC, outC, hw;
};

constexpr AlgoShape kAlgoShapes[] = {
    {"minivgg_conv1_1", 1, 12, 16}, {"minivgg_conv1_2", 12, 12, 16},
    {"minivgg_conv2_1", 12, 24, 8}, {"minivgg_conv2_2", 24, 24, 8},
    {"vgg16_conv3", 128, 128, 28},  {"vgg16_conv2", 64, 64, 56},
};

void
BM_ConvAlgoLayer(benchmark::State &state)
{
    const AlgoShape &sh = kAlgoShapes[state.range(0)];
    Rng rng(42);
    ConvSpec spec;
    spec.name = sh.name;
    spec.inC = sh.inC;
    spec.outC = sh.outC;
    spec.kernel = 3;
    spec.stride = 1;
    spec.pad = 1;
    spec.inH = spec.inW = sh.hw;
    ConvLayer layer(spec, rng);
    if (state.range(1) >= 0)
        layer.setAlgo(ConvAlgo(int(state.range(1))));

    Tensor x(1, sh.inC, sh.hw, sh.hw);
    x.fillGaussian(rng, 0, 1);
    for (auto _ : state) {
        Tensor y = layer.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
    state.SetLabel(std::string(sh.name) + "/" +
                   convAlgoName(layer.effectiveAlgo(false)));
}

BENCHMARK(BM_ConvAlgoLayer)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5},
                   {int(ConvAlgo::Im2col), int(ConvAlgo::Winograd),
                    -1}});


/**
 * Whole-net batch-1 forward with every conv/fc layer on the int8
 * quantized route vs. the fp32 default — the network-level A/B of
 * the DESIGN.md §5i microbench rows. range(0) = model_zoo net,
 * range(1) = 0 (fp32) / 1 (int8, Network::setQuantized on every
 * conv/fc layer).
 *
 * Beyond latency, each row carries the accuracy-proxy counters the
 * perforation/precision tuner trades against: top1_match is the
 * fraction of a fixed 16-image probe batch whose argmax survives
 * the precision flip (1.0 on the fp32 rows by construction), and
 * entropy_delta the shift in mean output entropy — the paper's
 * Eq. 10 confidence signal. steady_allocs must stay 0 when
 * alloc_counting = 1: quantized panels and activation buffers are
 * grow-only, so the steady-state int8 forward is allocation-free
 * like the fp32 path.
 */
void
BM_E2EQuantized(benchmark::State &state)
{
    const Zoo zoo = Zoo(int(state.range(0)));
    const bool int8 = state.range(1) != 0;
    Rng rng(42);
    Network net = makeNet(zoo, rng);
    const Shape in = net.inputShape();

    // Accuracy probe: fp32 reference labels/entropy on a fixed
    // batch, then the same batch in the measured mode.
    const std::size_t probe = 16;
    Tensor xp(Shape{probe, in.c, in.h, in.w});
    xp.fillGaussian(rng, 0, 1);
    const Tensor ref = net.forward(xp, false);
    const std::size_t classes = ref.size() / probe;
    const double ref_entropy = batchEntropy(softmax(ref));
    net.setQuantized(int8);
    const Tensor got = net.forward(xp, false);
    std::size_t matches = 0;
    for (std::size_t i = 0; i < probe; ++i) {
        const float *r = ref.data() + i * classes;
        const float *q = got.data() + i * classes;
        std::size_t rb = 0, qb = 0;
        for (std::size_t j = 1; j < classes; ++j) {
            if (r[j] > r[rb])
                rb = j;
            if (q[j] > q[qb])
                qb = j;
        }
        matches += (rb == qb) ? 1 : 0;
    }
    const double got_entropy = batchEntropy(softmax(got));

    Tensor x(Shape{1, in.c, in.h, in.w});
    x.fillGaussian(rng, 0, 1);
    Tensor y;
    net.forwardInto(x, false, y); // warm: quantize panels, scratch
    std::uint64_t steady_allocs = 0;
    for (auto _ : state) {
        ScopedAllocCount alloc_probe;
        net.forwardInto(x, false, y);
        benchmark::DoNotOptimize(y.data());
        steady_allocs += alloc_probe.allocs();
    }

    state.SetItemsProcessed(int64_t(state.iterations()));
    state.counters["img/s"] = benchmark::Counter(
        double(state.iterations()), benchmark::Counter::kIsRate);
    state.counters["top1_match"] =
        double(matches) / double(probe);
    state.counters["entropy_delta"] = got_entropy - ref_entropy;
    state.counters["steady_allocs"] = double(steady_allocs);
    state.counters["alloc_counting"] =
        allocCountingEnabled() ? 1.0 : 0.0;
}
BENCHMARK(BM_E2EQuantized)
    ->ArgNames({"zoo", "int8"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}});

/**
 * Alternating full/perforated forwards through one net: the
 * scratch-churn shape (gemmOut shrinking and regrowing every call)
 * that the grow-only scratch fix targets.
 */
void
BM_E2EAlternatingPerforation(benchmark::State &state)
{
    Rng rng(43);
    Network net = makeMiniInception(rng);
    const Shape in = net.inputShape();
    Tensor x(Shape{1, in.c, in.h, in.w});
    x.fillGaussian(rng, 0, 1);

    bool perf = false;
    for (auto _ : state) {
        for (ConvLayer *c : net.convLayers())
            c->setComputedPositions(
                perf ? c->fullPositions() / 4 : 0);
        perf = !perf;
        Tensor y = net.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_E2EAlternatingPerforation);

} // namespace
} // namespace pcnn
