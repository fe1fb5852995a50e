/**
 * @file
 * pcnn_autotune — offline per-host SGEMM autotuner front end.
 *
 * Sweeps micro-kernel tier x Kc/Mc/Nc x prefetch distance over the
 * model-zoo GEMM shapes (pcnn/offline/host_tuner.hh) and persists the
 * winner in the versioned per-host tune cache. A run that finds a
 * valid cache for this host loads it and exits without sweeping;
 * --force re-sweeps unconditionally.
 *
 * Usage:
 *   pcnn_autotune [--cache FILE] [--quick] [--force] [--reps N]
 *
 *   --cache FILE  tune-cache path (default: $PCNN_TUNE_CACHE, else
 *                 ~/.cache/pcnn/hosttune-v1.json)
 *   --quick       tiers-only sweep (CI smoke)
 *   --force       ignore an existing cache and re-sweep
 *   --reps N      timing repetitions per sweep point (default 3)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "pcnn/offline/host_tuner.hh"
#include "tensor/microkernel.hh"

using namespace pcnn;

int
main(int argc, char **argv)
{
    std::string cache = hostTuneCachePath();
    HostTuneOptions opts;
    bool force = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cache" && i + 1 < argc) {
            cache = argv[++i];
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--force") {
            force = true;
        } else if (arg == "--reps" && i + 1 < argc) {
            opts.reps = std::size_t(std::atoi(argv[++i]));
        } else {
            std::fprintf(stderr,
                         "usage: pcnn_autotune [--cache FILE] "
                         "[--quick] [--force] [--reps N]\n");
            return 2;
        }
    }

    const CpuFeatures &cpu = cpuFeatures();
    const CacheInfo &ci = cacheInfo();
    std::printf("host: %s\n", cpu.model.c_str());
    std::printf("features: %s\n", cpu.str().c_str());
    std::printf("caches: l1d=%zu l2=%zu l3=%zu\n", ci.l1d, ci.l2,
                ci.l3);
    std::printf("cache file: %s\n", cache.c_str());

    if (force)
        std::remove(cache.c_str());
    const HostTuneResult res = ensureHostTuned(cache, opts);

    if (res.fromCache) {
        std::printf("loaded existing tune cache (no sweep)\n");
    } else {
        std::printf("swept %zu configurations:\n", res.trials.size());
        for (const HostTuneTrial &t : res.trials)
            std::printf(
                "  %-8s kc=%-4zu mc=%-4zu nc=%-5zu pf=%-2zu %8.3f ms\n",
                kernelTierName(t.tier), t.blocking.kc, t.blocking.mc,
                t.blocking.nc, t.blocking.prefetch,
                t.seconds * 1e3);
    }

    const HostTuneConfig &cfg = res.config;
    std::printf("winner: tier=%s kc=%zu mc=%zu nc=%zu prefetch=%zu\n",
                kernelTierName(cfg.tier), cfg.blocking.kc,
                cfg.blocking.mc, cfg.blocking.nc,
                cfg.blocking.prefetch);
    return 0;
}
