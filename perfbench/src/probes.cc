/**
 * @file
 * Per-layer probes of every traced run. Each one times calls into one
 * layer's public functions from outside:
 *
 *  - common: parallelFor dispatch with an empty body, and the forward
 *    time ratio between one lane and full lanes;
 *  - nn: every op of a zoo net's compiled schedule, run on its own
 *    through Layer::forwardInto on an input of that op's shape;
 *  - tensor: conv GFLOP/s from those conv ops, with FLOPs and bytes
 *    moved per call computed from tensor sizes (not counted by
 *    hardware);
 *  - nn/graph: whole-schedule run time, the executor's share of it not
 *    spent in ops, compile time and arena size;
 *  - serve: registry registration, engine start and one replica grow.
 */

#include <string>
#include <vector>

#include "bench.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/graph/compiled_graph.hh"
#include "nn/network.hh"

namespace perfbench {

using pcnn::Network;
using pcnn::Shape;
using pcnn::Tensor;

namespace {

constexpr std::size_t kDispatchCalls = 2000;
constexpr std::size_t kReps = 15;
constexpr std::size_t kServeReps = 3;

/** Median seconds of `reps` timed calls of fn, after one warm call. */
template <typename F>
double
medianOf(Tracer &tr, const char *name, const char *layer,
         std::uint32_t parent, std::size_t reps, F &&fn)
{
    fn();
    std::vector<double> v;
    for (std::size_t r = 0; r < reps; ++r)
        v.push_back(timed(tr, name, layer, fn, parent));
    return median(v);
}

/** Op-time bucket of a layer kind. */
std::size_t
bucketOf(const std::string &kind)
{
    if (kind == "conv")
        return 0;
    if (kind == "fc")
        return 1;
    if (kind == "maxpool" || kind == "avgpool")
        return 2;
    return 3;
}

constexpr const char *kBuckets[4] = {"conv", "fc", "pool", "other"};

void
probeNet(std::size_t netIdx, const Options &opts, Report &rep, Tracer &tr,
         std::uint32_t parent)
{
    const std::string net_name = kZooNets[netIdx];
    Network net = makeZooNet(netIdx);

    std::vector<double> compile;
    for (std::size_t r = 0; r < 5; ++r) {
        net.clearCompiledGraph();
        compile.push_back(timed(tr, "Network::ensureCompiledGraph", "graph",
                                [&] { net.ensureCompiledGraph(16); },
                                parent));
    }
    rep.metric("graph.compile_ms." + net_name, median(compile) * 1e3, "ms",
               compile.size());
    rep.metric("graph.arena_bytes." + net_name,
               double(net.compiledGraph()->arenaBytes()), "count");

    const pcnn::GraphSchedule sched = net.compiledGraph()->schedule();
    const std::vector<pcnn::Layer *> flat =
        pcnn::flattenNetworkLayers(net);
    pcnn::Rng rng(opts.seed * 13 + netIdx);

    for (std::size_t b : {std::size_t(1), std::size_t(16)}) {
        const std::string tag = net_name + ".b" + std::to_string(b);
        const Shape &is = net.inputShape();
        Tensor x(Shape{b, is.c, is.h, is.w});
        x.fillUniform(rng, -1.0f, 1.0f);
        Tensor y;

        const double full =
            medianOf(tr, "Network::forwardInto", "graph", parent, kReps,
                     [&] { net.forwardInto(x, false, y); });
        double one = 0.0;
        {
            pcnn::ScopedLaneLimit limit(1);
            one = medianOf(tr, "Network::forwardInto", "graph", parent,
                           kReps, [&] { net.forwardInto(x, false, y); });
        }
        rep.metric("graph.run_ms." + tag, full * 1e3, "ms", kReps);
        rep.metric("parallel.lane_speedup." + tag, one / full, "ratio",
                   kReps);

        // Each scheduled op alone, on an input of its shape. Tiled ops
        // run once per item in the graph, so they count b times.
        double bucket[4] = {0, 0, 0, 0};
        double convFlops = 0.0, convBytes = 0.0;
        std::size_t convCalls = 0;
        for (const pcnn::GraphOp &op : sched.ops) {
            if (op.exec == pcnn::GraphOpExec::CopyWindow)
                continue; // executor work, part of the overhead share
            pcnn::Layer *l = flat[op.layer];
            Shape in = is;
            if (op.input != pcnn::kGraphInputValue) {
                const pcnn::GraphValue &v = sched.values[op.input];
                in = Shape{1, v.c, v.h, v.w};
            }
            const std::size_t calls = op.tiled ? b : 1;
            in.n = op.tiled ? 1 : b;
            Tensor ox(in);
            ox.fillUniform(rng, -1.0f, 1.0f);
            Tensor oy;
            const bool fused =
                op.exec == pcnn::GraphOpExec::LayerFusedRelu;
            const double t = medianOf(
                tr, "Layer::forwardInto", "nn", parent, kReps, [&] {
                    if (fused)
                        l->forwardFusedReluInto(ox, oy);
                    else
                        l->forwardInto(ox, false, oy);
                });
            const std::size_t k = bucketOf(l->kind());
            bucket[k] += t * double(calls);
            if (k == 0) {
                double weights = 0.0;
                for (pcnn::Param *p : l->params())
                    weights += double(p->value.size());
                convFlops += l->flopsPerImage(Shape{1, in.c, in.h, in.w}) *
                             double(b);
                convBytes += (double(ox.size() + oy.size()) + weights) *
                             sizeof(float) * double(calls);
                convCalls += calls;
            }
        }
        double sum = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
            rep.metric("nn.op_ms." + tag + "." + kBuckets[k],
                       bucket[k] * 1e3, "ms", kReps);
            sum += bucket[k];
        }
        rep.metric("graph.exec_overhead_share." + tag, 1.0 - sum / full,
                   "ratio");
        rep.metric("tensor.conv_gflops." + tag,
                   bucket[0] > 0.0 ? convFlops / bucket[0] / 1e9 : 0.0,
                   "GFLOP/s", kReps);
        // Computed from tensor sizes: input, output and weights of
        // each conv call, each read or written once.
        rep.note("tensor.conv_mflop_per_call." + tag,
                 convCalls ? convFlops / double(convCalls) / 1e6 : 0.0,
                 "MFLOP", convCalls);
        rep.note("tensor.conv_kbytes_per_call_computed." + tag,
                 convCalls ? convBytes / double(convCalls) / 1e3 : 0.0,
                 "kB", convCalls);
    }
}

} // namespace

void
runLayerProbes(const Options &opts, Report &rep, Tracer &tr)
{
    const Clock::time_point t0 = Clock::now();
    const std::uint32_t parent = tr.add("layer_probes", "bench", t0, t0);

    std::vector<double> dispatch;
    const std::size_t lanes = pcnn::threadCount();
    for (std::size_t i = 0; i < kDispatchCalls + 100; ++i) {
        const double s = timed(tr, "parallelFor", "common", [&] {
            pcnn::parallelFor(lanes, [](std::size_t, std::size_t,
                                        std::size_t) {});
        }, parent);
        if (i >= 100)
            dispatch.push_back(s);
    }
    const Summary d = summarize(dispatch);
    rep.metric("parallel.dispatch_us", d.p50 * 1e6, "us", d.n);

    for (std::size_t n = 0; n < 3; ++n)
        probeNet(n, opts, rep, tr, parent);

    std::vector<double> reg_s, start_s, grow_s;
    for (std::size_t r = 0; r < kServeReps; ++r) {
        pcnn::ModelRegistry reg;
        reg_s.push_back(timed(tr, "registerMiniZoo", "serve",
                              [&] { registerTenantZoo(reg); }, parent));
        pcnn::MultiEngineConfig cfg = tenantEngineConfig();
        cfg.initialReplicas = 1; // leaves room for the timed grow
        std::unique_ptr<pcnn::MultiTenantEngine> engine;
        start_s.push_back(timed(
            tr, "MultiTenantEngine::MultiTenantEngine", "serve",
            [&] {
                engine = std::make_unique<pcnn::MultiTenantEngine>(reg,
                                                                   cfg);
            },
            parent));
        const std::size_t m = reg.indexOf("MiniVgg/full");
        const std::size_t want = engine->replicaCount(m) + 1;
        grow_s.push_back(timed(tr, "MultiTenantEngine::scaleTo", "serve",
                               [&] { engine->scaleTo(m, want); }, parent));
        engine->stop();
    }
    rep.metric("serve.register_ms", median(reg_s) * 1e3, "ms",
               reg_s.size());
    rep.metric("serve.engine_start_ms", median(start_s) * 1e3, "ms",
               start_s.size());
    rep.metric("serve.replica_grow_ms", median(grow_s) * 1e3, "ms",
               grow_s.size());
    tr.close(parent, Clock::now());
}

} // namespace perfbench
