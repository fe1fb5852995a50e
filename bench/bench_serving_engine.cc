/**
 * @file
 * Single-model serving bench (DESIGN.md §5f): a MultiTenantEngine
 * over a registry of one MiniAlexNet, driven closed loop at batch 1
 * with 1, 2 and 4 workers. Reports throughput and latency tails per
 * worker count and checks that the logits of a probe set stay
 * bitwise identical across worker counts (the exit code).
 *
 * Usage: bench_serving_engine [--quick] [out.json]
 * --quick shrinks request counts for CI smoke runs.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/model_zoo.hh"
#include "serve/multi_engine.hh"
#include "tensor/microkernel.hh"

using namespace pcnn;

namespace {

std::vector<Tensor>
probeInputs(const Shape &in, std::size_t n)
{
    Rng rng(2024);
    std::vector<Tensor> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Tensor t(Shape{1, in.c, in.h, in.w});
        t.fillUniform(rng, -1.0f, 1.0f);
        xs.push_back(std::move(t));
    }
    return xs;
}

struct ClosedLoopResult
{
    std::size_t workers = 0;
    std::size_t requests = 0;
    double throughputRps = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::uint64_t steadyAllocs = 0;
    std::uint64_t steadyProbedBatches = 0;
    std::vector<Tensor> probeLogits;
};

/**
 * Closed loop: keep a bounded window of requests in flight so the
 * engine is always busy but the queue never sheds; the first
 * `probes.size()` requests reuse the probe inputs so logits can be
 * compared across worker counts.
 */
ClosedLoopResult
runClosedLoop(std::size_t workers, std::size_t total,
              const std::vector<Tensor> &probes)
{
    Rng rng(42); // identical weights for every worker count
    ModelRegistry reg;
    ModelConfig mc;
    mc.name = "MiniAlexNet";
    mc.maxBatch = 1;
    mc.maxReplicas = workers;
    if (reg.registerModel(makeMiniAlexNet(rng), std::move(mc)) !=
        RegisterStatus::Registered) {
        std::fprintf(stderr, "model registration failed\n");
        std::exit(1);
    }
    MultiEngineConfig cfg;
    cfg.workers = workers;
    cfg.initialReplicas = workers;
    cfg.fabric.queueCapacity = total;
    MultiTenantEngine engine(reg, cfg);

    Rng inputs(7);
    const Shape &in = reg.model(0).inputShape();
    auto makeInput = [&](std::size_t i) {
        if (i < probes.size())
            return probes[i];
        Tensor t(Shape{1, in.c, in.h, in.w});
        t.fillUniform(inputs, -1.0f, 1.0f);
        return t;
    };

    ClosedLoopResult r;
    r.workers = workers;
    r.requests = total;
    const std::size_t window = workers * 4;
    std::deque<std::future<TenantResult>> inflight;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < total; ++i) {
        auto sub =
            engine.submit(0, TaskClass::Interactive, makeInput(i));
        if (sub.status != SubmitStatus::Accepted) {
            std::fprintf(stderr, "closed loop shed a request\n");
            std::exit(1);
        }
        inflight.push_back(std::move(sub.result));
        while (inflight.size() >= window) {
            const TenantResult res = inflight.front().get();
            inflight.pop_front();
            if (r.probeLogits.size() < probes.size())
                r.probeLogits.push_back(res.logits);
        }
    }
    while (!inflight.empty()) {
        const TenantResult res = inflight.front().get();
        inflight.pop_front();
        if (r.probeLogits.size() < probes.size())
            r.probeLogits.push_back(res.logits);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    r.throughputRps = double(total) / wall;
    const TenantMetricsSnapshot m = engine.metrics();
    const LatencySummary &lat =
        m.byClass[static_cast<std::size_t>(TaskClass::Interactive)]
            .latency;
    r.p50Ms = lat.p50S * 1e3;
    r.p99Ms = lat.p99S * 1e3;
    r.steadyAllocs = m.steadyAllocs;
    r.steadyProbedBatches = m.steadyProbedBatches;
    engine.stop();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_path = "BENCH_pr5.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            out_path = argv[i];
    }

    const std::size_t closed_total = quick ? 64 : 1024;
    const std::size_t probe_count = 8;

    Rng seed_rng(42);
    Network probe_net = makeMiniAlexNet(seed_rng);
    const std::vector<Tensor> probes =
        probeInputs(probe_net.inputShape(), probe_count);

    // Closed loop: throughput vs workers, bitwise probe check.
    const std::size_t worker_counts[] = {1, 2, 4};
    std::vector<ClosedLoopResult> closed;
    for (std::size_t w : worker_counts)
        closed.push_back(runClosedLoop(w, closed_total, probes));

    bool bitwise_equal = true;
    for (std::size_t i = 1; i < closed.size(); ++i)
        for (std::size_t p = 0; p < probe_count; ++p)
            if (std::memcmp(closed[0].probeLogits[p].data(),
                            closed[i].probeLogits[p].data(),
                            closed[0].probeLogits[p].size() *
                                sizeof(float)) != 0)
                bitwise_equal = false;

    TextTable closed_table({"Workers", "Lanes/worker", "Requests",
                            "Throughput (req/s)", "p50 (ms)",
                            "p99 (ms)"});
    for (const ClosedLoopResult &r : closed)
        closed_table.addRow(
            {std::to_string(r.workers),
             std::to_string(std::max<std::size_t>(
                 1, threadCount() / r.workers)),
             std::to_string(r.requests),
             TextTable::num(r.throughputRps, 0),
             TextTable::num(r.p50Ms, 3), TextTable::num(r.p99Ms, 3)});
    printSection("Serving engine — closed loop, MiniAlexNet batch 1",
                 closed_table.render());
    std::printf("probe logits bitwise identical across "
                "worker counts: %s\n",
                bitwise_equal ? "yes" : "NO");

    // ------------------------------------------------ JSON snapshot
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"serving_engine\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"alloc_counting\": %s,\n",
                 allocCountingEnabled() ? "true" : "false");
    const CpuFeatures &cpu = cpuFeatures();
    const CacheInfo &ci = cacheInfo();
    std::fprintf(f,
                 "  \"host\": {\"hardware_threads\": %u, "
                 "\"pcnn_threads\": %zu,\n"
                 "    \"cpu_model\": \"%s\", \"cpu_features\": "
                 "\"%s\",\n"
                 "    \"cache_l1d_bytes\": %zu, \"cache_l2_bytes\": "
                 "%zu, \"cache_l3_bytes\": %zu,\n"
                 "    \"kernel_tier\": \"%s\"},\n",
                 std::thread::hardware_concurrency(), threadCount(),
                 cpu.model.c_str(), cpu.str().c_str(), ci.l1d, ci.l2,
                 ci.l3, kernelTierName(activeKernelTier()));

    std::fprintf(f, "  \"closed_loop\": [\n");
    for (std::size_t i = 0; i < closed.size(); ++i) {
        const ClosedLoopResult &r = closed[i];
        std::fprintf(
            f,
            "    {\"workers\": %zu, \"requests\": %zu, "
            "\"throughput_rps\": %.1f, \"p50_ms\": %.4f, "
            "\"p99_ms\": %.4f, \"steady_allocs\": %llu, "
            "\"steady_probed_batches\": %llu}%s\n",
            r.workers, r.requests, r.throughputRps, r.p50Ms, r.p99Ms,
            static_cast<unsigned long long>(r.steadyAllocs),
            static_cast<unsigned long long>(r.steadyProbedBatches),
            i + 1 < closed.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"probe_logits_bitwise_equal\": %s\n",
                 bitwise_equal ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    return bitwise_equal ? 0 : 1;
}
