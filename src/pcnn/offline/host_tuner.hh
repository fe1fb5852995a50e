/**
 * @file
 * Per-host SGEMM autotuner with a persistent, versioned tune cache
 * (DESIGN.md §5g).
 *
 * The paper co-tunes tile/register parameters per GPU
 * microarchitecture offline and ships the result with the plan; this
 * is the CPU mirror. The tuner enumerates the host's physical limits
 * (cpuid feature tiers, cache capacities), sweeps micro-kernel tier x
 * Kc/Mc/Nc x prefetch distance over the conv/FC GEMM shapes of the
 * model zoo plus the paper's large-K conv shapes, and persists the
 * winner as a small JSON config keyed to the host identity. A later
 * process — the serving engine's warm-up in particular — loads and
 * pins the winner instead of re-sweeping; a config written on a
 * different host, by a different format version, or corrupted on
 * disk is rejected and the detected defaults stay in force.
 *
 * Cache location: $PCNN_TUNE_CACHE if set, else
 * $HOME/.cache/pcnn/hosttune-v1.json (versioned file name so future
 * formats can coexist).
 */

#ifndef PCNN_PCNN_OFFLINE_HOST_TUNER_HH
#define PCNN_PCNN_OFFLINE_HOST_TUNER_HH

#include <string>
#include <vector>

#include "tensor/microkernel.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {

/** Newest tune-cache format version this build reads and writes. */
constexpr int kHostTuneVersion = 1;

/** A swept-and-persisted per-host kernel configuration. */
struct HostTuneConfig
{
    int version = kHostTuneVersion;
    std::string cpuModel;  ///< host identity: /proc/cpuinfo model
    std::string features;  ///< host identity: CpuFeatures::str()
    std::size_t l1d = 0;   ///< detected cache sizes (bytes, 0 unknown)
    std::size_t l2 = 0;
    std::size_t l3 = 0;
    KernelTier tier = KernelTier::Portable;
    GemmBlocking blocking;

    /** Config stamped with this process's detected host identity. */
    static HostTuneConfig forThisHost();

    /** True when cpuModel/features match this host's detection. */
    bool matchesThisHost() const;
};

/**
 * Resolve the tune-cache path: $PCNN_TUNE_CACHE verbatim when set
 * (read per call, so tests can redirect it), else
 * $HOME/.cache/pcnn/hosttune-v1.json, else a bare relative fallback
 * when HOME is unset.
 */
std::string hostTuneCachePath();

/** Serialize `cfg` as the versioned JSON document. */
std::string serializeHostTune(const HostTuneConfig &cfg);

/**
 * Parse a tune-cache document. Strict: malformed JSON, missing or
 * duplicate keys, a version other than kHostTuneVersion, an unknown
 * tier name, or out-of-range blocking values are all rejected.
 * @param err on failure, a one-line reason
 */
bool parseHostTune(const std::string &text, HostTuneConfig &out,
                   std::string &err);

/** Write `cfg` to `path`, creating parent directories. */
bool saveHostTune(const HostTuneConfig &cfg, const std::string &path);

/**
 * Load + validate a tune cache from `path`. Beyond parseHostTune's
 * checks this rejects configs whose host identity does not match the
 * running host (stale caches copied between machines) and tiers the
 * running host cannot execute.
 */
bool loadHostTune(const std::string &path, HostTuneConfig &out,
                  std::string &err);

/**
 * Pin `cfg` on the kernel dispatch state (setKernelTier +
 * setBlocking). The tier must be supported (loadHostTune checks).
 */
void applyHostTune(const HostTuneConfig &cfg);

/**
 * Load-and-apply the default-path tune cache once per process
 * (thread-safe; later calls return the first outcome). Never sweeps:
 * this is the runtime/start-up hook — the serving engine calls it
 * before replicating and freezing weights so every worker inherits
 * the pinned tier/blocking. Missing or invalid caches quietly leave
 * the detected defaults in force, and so does a first call made
 * after any GEMM has already executed (gemmHasRun()): pinning then
 * would change the bitwise value of every later fp32 GEMM relative
 * to results the process already produced.
 * @retval true when a valid cache was applied
 */
bool applyHostTuneCacheOnce();

/** One timed sweep point (reported for benches/logging). */
struct HostTuneTrial
{
    KernelTier tier = KernelTier::Portable;
    GemmBlocking blocking;
    double seconds = 0.0; ///< total time across the shape set
};

/** Autotune options. */
struct HostTuneOptions
{
    bool quick = false;   ///< tiers-only sweep (CI smoke)
    std::size_t reps = 3; ///< timing repetitions (min is kept)
};

/** Sweep result: the winning config plus how it was obtained. */
struct HostTuneResult
{
    HostTuneConfig config;
    bool fromCache = false; ///< loaded, not swept
    std::vector<HostTuneTrial> trials; ///< empty when fromCache
};

/**
 * GEMM shapes the sweep times: every distinct conv GEMM of the
 * model-zoo mini nets at batch 1 plus the paper's large-K conv
 * shapes (AlexNet CONV2, VGG-16 conv2/conv3) — the e2e acceptance
 * shapes of BENCH_pr6.
 */
std::vector<GemmShape> hostTuneShapes();

/**
 * Run the staged sweep on this host: (1) race every supported tier
 * at its default blocking, (2) sweep Kc/Mc/Nc around the winner,
 * (3) sweep the prefetch distance. Deterministic sweep order;
 * timings use the steady clock with `reps` repetitions. Does not
 * touch the dispatch state or the cache file.
 */
HostTuneResult autotuneHost(const HostTuneOptions &opts = {});

/**
 * The offline entry point (tools/pcnn_autotune): load `path` and
 * return it (fromCache = true) when it validates against this host;
 * otherwise sweep, save to `path`, and return the swept winner. The
 * returned config is NOT applied — callers decide (the CLI reports
 * it; the runtime applies the saved cache via
 * applyHostTuneCacheOnce; tests inspect).
 */
HostTuneResult ensureHostTuned(const std::string &path,
                               const HostTuneOptions &opts = {});

} // namespace pcnn

#endif // PCNN_PCNN_OFFLINE_HOST_TUNER_HH
