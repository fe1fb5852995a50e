/**
 * @file
 * SIMD micro-kernel tiers and the cache-blocking configuration of the
 * CPU SGEMM (DESIGN.md §5g).
 *
 * The paper's core thesis is that one kernel shape cannot be optimal
 * across microarchitectures: tile and register parameters must be
 * co-tuned per architecture and cached for reuse. This module is the
 * CPU mirror of that story. It provides
 *
 *  - a *tier* of register-blocked micro-kernels — portable Vec8 8x8,
 *    AVX2+FMA 6x16, AVX-512 8x32, NEON 8x8 — compiled via per-function
 *    target attributes so one binary carries every tier its compiler
 *    supports; dispatch runs the widest tier the host executes
 *    unless setKernelTier() (the per-host tune cache, tests) pins
 *    another;
 *  - the Kc/Mc/Nc cache-blocking hierarchy above the register tile,
 *    with defaults derived from the host's detected cache sizes and
 *    override hooks the per-host autotuner (pcnn/offline/host_tuner)
 *    uses to pin swept winners.
 *
 * Determinism contract: for a fixed tier and blocking configuration,
 * every C cell accumulates in pure ascending-k order (Kc chunks in
 * ascending order, k ascending within a chunk) on exactly one thread,
 * and the full/edge kernel split depends only on (m, n) and the
 * blocking — never on the thread count. An edge tile computes each of
 * its cells exactly as a full tile would (MicroKernel::edge), so the
 * split cannot change a bit either. Results are therefore bitwise
 * identical across PCNN_THREADS *per tier*; different tiers (FMA
 * contraction, different Kc association) may differ within a small
 * ULP envelope, which tests/test_microkernel.cc budgets explicitly.
 *
 * Tier/blocking setters are start-up/test configuration knobs: they
 * must not race concurrently running GEMMs (the serving engine pins
 * the tuned config before its workers exist, DESIGN.md §5f/§5g).
 */

#ifndef PCNN_TENSOR_MICROKERNEL_HH
#define PCNN_TENSOR_MICROKERNEL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pcnn {

/** Micro-kernel families, ordered by preference (highest last). */
enum class KernelTier : std::uint8_t
{
    Portable = 0, ///< Vec8 8x8, builds everywhere
    Neon,         ///< 8x8 over float32x4 pairs (__ARM_NEON builds)
    Avx2,         ///< 6x16 FMA over ymm (x86-64, runtime-guarded)
    Avx512,       ///< 8x32 FMA over zmm (x86-64, runtime-guarded)
};

/** Canonical lower-case tier name ("portable", "avx2", ...). */
const char *kernelTierName(KernelTier tier);

/**
 * Parse a tier name (as written in the tune cache).
 * @retval false if `s` names no known tier ("auto" is not a tier)
 */
bool parseKernelTier(const std::string &s, KernelTier &out);

/** CPU identity and SIMD feature flags, detected once per process. */
struct CpuFeatures
{
    bool avx2 = false;     ///< AVX2 + FMA both present
    bool avx512f = false;  ///< AVX-512 Foundation
    bool avx512bw = false; ///< AVX-512 Byte/Word (int8 kernel tier)
    bool avx512vnni = false; ///< AVX-512 VNNI (vpdpbusd int8 variant)
    bool neon = false;     ///< compiled for a NEON target
    std::string model;    ///< e.g. /proc/cpuinfo "model name"

    /** Feature flags as a stable comma-joined string ("avx2,fma"). */
    std::string str() const;
};

/** Host CPU features (cached after the first call; thread-safe). */
const CpuFeatures &cpuFeatures();

/** Data-cache capacities in bytes; 0 = unknown on this host. */
struct CacheInfo
{
    std::size_t l1d = 0;
    std::size_t l2 = 0;
    std::size_t l3 = 0;
};

/** Host cache sizes from sysfs (cached; zeros when undetectable). */
const CacheInfo &cacheInfo();

/**
 * One register-blocked micro-kernel: `full` accumulates the full
 * mr x nr C tile over a K range. `a` is row-major with leading
 * dimension lda (>= the K range), `b` row-major with leading
 * dimension ldb, `c` row-major with leading dimension ldc;
 * C += A * B. `prefetch` is a software-prefetch distance in k
 * iterations (0 = none).
 *
 * `edge` does the same for a remainder tile of mi <= mr rows and
 * nj <= nr columns, touching nothing outside it. Every cell runs
 * the full kernel's exact chain — accumulator from zero, one
 * multiply-add per k in ascending order, then c + acc — so an edge
 * cell is bitwise equal to the same cell of the product zero-padded
 * to whole tiles. The x86 tiers run it on masked vector lanes; the
 * portable and NEON tiers share a scalar loop.
 */
struct MicroKernel
{
    KernelTier tier = KernelTier::Portable;
    std::size_t mr = 0; ///< C tile rows held in registers
    std::size_t nr = 0; ///< C tile columns held in registers

    using FullFn = void (*)(std::size_t k, const float *a,
                            std::size_t lda, const float *b,
                            std::size_t ldb, float *c, std::size_t ldc,
                            std::size_t prefetch);
    using EdgeFn = void (*)(std::size_t k, std::size_t mi,
                            std::size_t nj, const float *a,
                            std::size_t lda, const float *b,
                            std::size_t ldb, float *c, std::size_t ldc);
    FullFn full = nullptr;
    EdgeFn edge = nullptr;
};

/** Largest mr/nr any compiled tier uses (edge-kernel scratch bound). */
constexpr std::size_t kMaxMicroMR = 8;
constexpr std::size_t kMaxMicroNR = 32;

/**
 * True when `tier` is both compiled into this binary and executable
 * on the running host (cpuid for the x86 tiers).
 */
bool kernelTierSupported(KernelTier tier);

/** Every supported tier, portable first. Never empty. */
std::vector<KernelTier> supportedKernelTiers();

/** The preferred supported tier (widest vectors win). */
KernelTier bestKernelTier();

/**
 * The tier the next sgemm call will dispatch to: the setKernelTier()
 * pin if one is in force, else bestKernelTier().
 */
KernelTier activeKernelTier();

/** Pin the dispatch tier (tests, tuner). Must be supported. */
void setKernelTier(KernelTier tier);

/** Drop a setKernelTier() pin; bestKernelTier() applies again. */
void resetKernelTier();

/** True while a setKernelTier() pin is in force. */
bool kernelTierPinned();

/** Micro-kernel implementing `tier` (which must be supported). */
const MicroKernel &microKernelFor(KernelTier tier);

/**
 * Cache-blocking hierarchy above the register tile: the K dimension
 * is processed in Kc-deep chunks so a Kc x Nc B slab stays L2/L3
 * resident across the M sweep, M in Mc-tall blocks so an Mc x Kc A
 * block stays near-L1, and N in Nc-wide panels. `prefetch` is the
 * micro-kernel's B-row software-prefetch distance in k iterations.
 * Values are re-aligned to the active tier's mr/nr at dispatch time,
 * so one configuration is meaningful for every tier.
 */
struct GemmBlocking
{
    std::size_t kc = 0; ///< K chunk depth
    std::size_t mc = 0; ///< M block height
    std::size_t nc = 0; ///< N panel width
    std::size_t prefetch = 0;

    bool operator==(const GemmBlocking &o) const
    {
        return kc == o.kc && mc == o.mc && nc == o.nc &&
               prefetch == o.prefetch;
    }
};

/**
 * Blocking derived from the detected cache sizes for `tier`:
 * kc sized so a kc x nr B sliver holds half of L1d, nc so the kc x nc
 * slab holds half of L2, mc so an mc x kc A block holds a quarter of
 * L2 — the textbook GotoBLAS occupancy split, clamped to sane floors
 * when cache detection fails.
 */
GemmBlocking defaultBlocking(KernelTier tier);

/** Blocking the next sgemm call uses (override or tier default). */
GemmBlocking activeBlocking();

/** Pin the blocking (tuner, tests). Fields are clamped at use. */
void setBlocking(const GemmBlocking &blk);

/** Drop a setBlocking() pin; per-tier defaults apply again. */
void resetBlocking();

/** True while a setBlocking() pin is in force. */
bool blockingPinned();

} // namespace pcnn

#endif // PCNN_TENSOR_MICROKERNEL_HH
