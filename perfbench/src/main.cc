/**
 * @file
 * perfbench entry point.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE]
 *        perfbench --workload NAME --setup-only
 *
 * Environment (set by run.py): PCNN_TUNE_CACHE names the benchmark's
 * own host tune cache, PCNN_GRAPH=1, PCNN_THREADS=nproc. The last
 * stdout line is the JSON result; every line before it is a named
 * figure with its unit and sample count. Exit status 1 when an output
 * check failed, 2 on a usage or environment error. With --setup-only
 * the binary sets the workload up, prints "ready" and exits; run.py
 * times that from process start to the line (setup_s).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "nn/fusion.hh"
#include "pcnn/offline/host_tuner.hh"
#include "tensor/microkernel.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "zoo_forward|tenant_mix --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       perfbench --workload NAME --setup-only\n",
                 why);
    return 2;
}

void
printHost(const Options &opts)
{
#ifdef PCNN_ENABLE_DCHECKS
    const bool dchecks = true;
#else
    const bool dchecks = false;
#endif
    const pcnn::GemmBlocking blk = pcnn::activeBlocking();
    std::printf(
        "# host {\"cpu\": \"%s\", \"nproc\": %u, \"pcnn_threads\": %zu, "
        "\"kernel_tier\": \"%s\", \"blocking\": {\"kc\": %zu, \"mc\": "
        "%zu, \"nc\": %zu, \"prefetch\": %zu}, \"tune_cache\": \"%s\", "
        "\"build\": \"%s\", \"dchecks\": %s, \"count_allocs\": %s, "
        "\"graph\": %s, \"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"trace\": %s}\n",
        pcnn::cpuFeatures().model.c_str(),
        std::thread::hardware_concurrency(), pcnn::threadCount(),
        pcnn::kernelTierName(pcnn::activeKernelTier()), blk.kc, blk.mc,
        blk.nc, blk.prefetch, opts.tuneCache.c_str(),
        PERFBENCH_BUILD_TYPE, dchecks ? "true" : "false",
        pcnn::allocCountingEnabled() ? "true" : "false",
        pcnn::graphEnabled() ? "true" : "false", opts.workload.c_str(),
        static_cast<unsigned long long>(opts.seed), opts.seconds,
        opts.trace ? "true" : "false");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--setup-only") {
            opts.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opts.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opts.seed = std::strtoull(v, &end, 10);
            haveSeed = end != v && *end == '\0';
        } else if (a == "--seconds") {
            opts.seconds = std::strtod(v, &end);
            haveSeconds = end != v && *end == '\0' && opts.seconds > 0;
        } else if (a == "--trace") {
            haveTrace = std::strcmp(v, "0") == 0 ||
                        std::strcmp(v, "1") == 0;
            opts.trace = std::strcmp(v, "1") == 0;
        } else if (a == "--trace-out") {
            opts.traceOut = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (!haveWorkload ||
        (!opts.setupOnly && (!haveSeed || !haveSeconds || !haveTrace)))
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    // Pin the measurement conditions before any GEMM runs.
#ifdef PCNN_ENABLE_DCHECKS
    return usage("built with PCNN_DCHECKS on; configure via run.py");
#endif
    if (pcnn::allocCountingEnabled())
        return usage("built with PCNN_COUNT_ALLOCS on");
    if (!pcnn::graphEnabled())
        return usage("PCNN_GRAPH=1 is required");
    const char *cache = std::getenv("PCNN_TUNE_CACHE");
    if (cache == nullptr || *cache == '\0')
        return usage("PCNN_TUNE_CACHE must name the benchmark's cache");
    opts.tuneCache = cache;
    if (!pcnn::applyHostTuneCacheOnce())
        return usage("host tune cache did not load or apply");

    if (!opts.setupOnly)
        printHost(opts);
    Report rep;
    Tracer tr(opts.trace);
    if (opts.workload == "zoo_forward")
        runZooForward(opts, rep, tr);
    else if (opts.workload == "tenant_mix")
        runTenant(opts, rep, tr);
    else
        return usage(("unknown workload " + opts.workload).c_str());
    if (opts.setupOnly)
        return 0;

    if (opts.trace) {
        runLayerProbes(opts, rep, tr);
        const auto self = tr.selfTimeByLayer();
        for (const char *layer : {"bench", "serve", "graph", "nn", "common"}) {
            double s = 0.0;
            for (const auto &[name, secs] : self)
                if (name == layer)
                    s = secs;
            rep.metric(std::string("trace.self_ms.") + layer, s * 1e3, "ms");
        }
        rep.metric("trace.spans", double(tr.size()), "count");
        if (!opts.traceOut.empty() && !tr.write(opts.traceOut)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opts.traceOut.c_str());
            ++rep.failed;
        }
    }
    rep.printResult();
    return rep.failed == 0 ? 0 : 1;
}
