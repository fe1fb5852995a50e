#include "tensor/microkernel.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/check.hh"
#include "common/tags.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PCNN_X86_TIERS 1
#include <immintrin.h>
#endif

#if defined(__ARM_NEON)
#define PCNN_NEON_TIER 1
#include <arm_neon.h>
#endif

namespace pcnn {

namespace {

// ------------------------------------------------------------------
// Portable tier: the original Vec8 8x8 kernel (PR 1). The explicit
// vector type pins the compiler to lane-wise (j-direction)
// vectorization; all traffic goes through memcpy to dodge
// strict-aliasing UB (PR 2). This tier builds on every compiler we
// support and is the reference the wider tiers are toleranced
// against.
// ------------------------------------------------------------------

constexpr std::size_t kPortMR = 8;
constexpr std::size_t kPortNR = 8;

#if defined(__GNUC__) || defined(__clang__)
#define PCNN_HAVE_VEC_EXT 1
typedef float Vec8 __attribute__((vector_size(kPortNR * sizeof(float))));

inline Vec8
loadVec8(const float *p)
{
    Vec8 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline void
storeVec8(float *p, const Vec8 &v)
{
    std::memcpy(p, &v, sizeof(v));
}
#endif

void
microFullPortable(std::size_t k, const float *a, std::size_t lda,
                  const float *b, std::size_t ldb, float *c,
                  std::size_t ldc, std::size_t pf)
{
#ifdef PCNN_HAVE_VEC_EXT
    Vec8 acc[kPortMR] = {};
    for (std::size_t p = 0; p < k; ++p) {
        if (pf != 0 && p + pf < k)
            __builtin_prefetch(b + (p + pf) * ldb);
        const Vec8 bv = loadVec8(b + p * ldb);
        for (std::size_t i = 0; i < kPortMR; ++i)
            acc[i] += a[i * lda + p] * bv;
    }
    for (std::size_t i = 0; i < kPortMR; ++i)
        storeVec8(c + i * ldc, loadVec8(c + i * ldc) + acc[i]);
#else
    float acc[kPortMR][kPortNR] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        for (std::size_t i = 0; i < kPortMR; ++i) {
            const float av = a[i * lda + p];
            for (std::size_t j = 0; j < kPortNR; ++j)
                acc[i][j] += av * brow[j];
        }
    }
    for (std::size_t i = 0; i < kPortMR; ++i)
        for (std::size_t j = 0; j < kPortNR; ++j)
            c[i * ldc + j] += acc[i][j];
    (void)pf;
#endif
}

/**
 * Scalar edge tile of the portable and NEON tiers (mi <= kMaxMicroMR,
 * nj <= kMaxMicroNR). Each cell is the full kernels' chain — acc from
 * zero, ascending k, then c + acc — one lane at a time.
 */
PCNN_HOT_PATH
void
microEdgeScalar(std::size_t k, std::size_t mi, std::size_t nj,
                const float *a, std::size_t lda, const float *b,
                std::size_t ldb, float *c, std::size_t ldc)
{
    float acc[kMaxMicroMR][kMaxMicroNR] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        for (std::size_t i = 0; i < mi; ++i) {
            const float av = a[i * lda + p];
            for (std::size_t j = 0; j < nj; ++j)
                acc[i][j] += av * brow[j];
        }
    }
    for (std::size_t i = 0; i < mi; ++i)
        for (std::size_t j = 0; j < nj; ++j)
            c[i * ldc + j] += acc[i][j];
}

// ------------------------------------------------------------------
// AVX2 tier: 6x16 FMA over ymm. 12 accumulator registers + 2 B
// registers + 1 broadcast = 15 of 16 architectural ymm, and the
// 6-broadcast/2-load k-step keeps the FMA ports (12 FMAs -> 6
// cycles) ahead of the load ports (8 loads -> 4 cycles). Compiled
// via a per-function target attribute so the binary stays runnable
// on non-AVX2 hosts; dispatch guards execution behind cpuid.
// ------------------------------------------------------------------

#ifdef PCNN_X86_TIERS

__attribute__((target("avx2,fma"))) void
microFullAvx2(std::size_t k, const float *a, std::size_t lda,
              const float *b, std::size_t ldb, float *c,
              std::size_t ldc, std::size_t pf)
{
    __m256 acc[6][2];
    for (auto &row : acc)
        row[0] = row[1] = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        if (pf != 0 && p + pf < k)
            _mm_prefetch(reinterpret_cast<const char *>(b + (p + pf) * ldb),
                         _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (std::size_t i = 0; i < 6; ++i) {
            const __m256 av = _mm256_set1_ps(a[i * lda + p]);
            acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
            acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
        }
    }
    for (std::size_t i = 0; i < 6; ++i) {
        float *cr = c + i * ldc;
        _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr),
                                           acc[i][0]));
        _mm256_storeu_ps(cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8),
                                               acc[i][1]));
    }
}

/**
 * Masked AVX2 edge tile: MI rows (the template argument, so the
 * accumulators stay in registers) by nj <= 16 columns, over one ymm
 * (nj <= 8) or two. Lanes at or past nj load as zero and are never
 * stored; live lanes run microFullAvx2's FMA chain unchanged.
 */
template <std::size_t MI, bool Wide>
__attribute__((target("avx2,fma"))) void
edgeTileAvx2(std::size_t k, std::size_t nj, const float *a,
             std::size_t lda, const float *b, std::size_t ldb, float *c,
             std::size_t ldc)
{
    constexpr std::size_t NV = Wide ? 2 : 1;
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i mask[NV];
    for (std::size_t v = 0; v < NV; ++v)
        mask[v] = _mm256_cmpgt_epi32(_mm256_set1_epi32(int(nj - 8 * v)),
                                     lane);
    __m256 acc[MI][NV];
    for (auto &row : acc)
        for (__m256 &x : row)
            x = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        __m256 bv[NV];
        for (std::size_t v = 0; v < NV; ++v)
            bv[v] = _mm256_maskload_ps(brow + 8 * v, mask[v]);
        for (std::size_t i = 0; i < MI; ++i) {
            const __m256 av = _mm256_set1_ps(a[i * lda + p]);
            for (std::size_t v = 0; v < NV; ++v)
                acc[i][v] = _mm256_fmadd_ps(av, bv[v], acc[i][v]);
        }
    }
    for (std::size_t i = 0; i < MI; ++i) {
        float *cr = c + i * ldc;
        for (std::size_t v = 0; v < NV; ++v)
            _mm256_maskstore_ps(
                cr + 8 * v, mask[v],
                _mm256_add_ps(_mm256_maskload_ps(cr + 8 * v, mask[v]),
                              acc[i][v]));
    }
}

/** Run the edgeTile<I + 1> instantiation whose row count is mi. */
template <bool Wide, std::size_t... I>
void
edgeRowsAvx2(std::size_t k, std::size_t mi, std::size_t nj,
             const float *a, std::size_t lda, const float *b,
             std::size_t ldb, float *c, std::size_t ldc,
             std::index_sequence<I...>)
{
    ((mi == I + 1 ? edgeTileAvx2<I + 1, Wide>(k, nj, a, lda, b, ldb, c,
                                              ldc)
                  : void()),
     ...);
}

PCNN_HOT_PATH
void
microEdgeAvx2(std::size_t k, std::size_t mi, std::size_t nj,
              const float *a, std::size_t lda, const float *b,
              std::size_t ldb, float *c, std::size_t ldc)
{
    if (nj > 8)
        edgeRowsAvx2<true>(k, mi, nj, a, lda, b, ldb, c, ldc,
                           std::make_index_sequence<6>());
    else
        edgeRowsAvx2<false>(k, mi, nj, a, lda, b, ldb, c, ldc,
                            std::make_index_sequence<6>());
}

// ------------------------------------------------------------------
// AVX-512 tier: 8x32 FMA over zmm. 16 accumulators + 2 B + 1
// broadcast of 32 zmm; the 8-broadcast/2-load k-step (10 loads -> 5
// cycles) keeps the 16 FMAs (8 cycles on 2 ports) compute-bound,
// and nr = 32 divides the 16x16 feature maps the mini models
// produce. Row remainders (12 output channels against mr = 8) and
// odd grids (7x7) still need edge tiles, which run masked.
// ------------------------------------------------------------------

__attribute__((target("avx512f"))) void
microFullAvx512(std::size_t k, const float *a, std::size_t lda,
                const float *b, std::size_t ldb, float *c,
                std::size_t ldc, std::size_t pf)
{
    __m512 acc[8][2];
    for (auto &row : acc)
        row[0] = row[1] = _mm512_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        if (pf != 0 && p + pf < k) {
            // A 32-float B row spans two cache lines.
            const char *nxt =
                reinterpret_cast<const char *>(b + (p + pf) * ldb);
            _mm_prefetch(nxt, _MM_HINT_T0);
            _mm_prefetch(nxt + 64, _MM_HINT_T0);
        }
        const __m512 b0 = _mm512_loadu_ps(brow);
        const __m512 b1 = _mm512_loadu_ps(brow + 16);
        for (std::size_t i = 0; i < 8; ++i) {
            const __m512 av = _mm512_set1_ps(a[i * lda + p]);
            acc[i][0] = _mm512_fmadd_ps(av, b0, acc[i][0]);
            acc[i][1] = _mm512_fmadd_ps(av, b1, acc[i][1]);
        }
    }
    for (std::size_t i = 0; i < 8; ++i) {
        float *cr = c + i * ldc;
        _mm512_storeu_ps(cr, _mm512_add_ps(_mm512_loadu_ps(cr),
                                           acc[i][0]));
        _mm512_storeu_ps(cr + 16,
                         _mm512_add_ps(_mm512_loadu_ps(cr + 16),
                                       acc[i][1]));
    }
}

/**
 * Masked AVX-512 edge tile: MI rows by nj <= 32 columns over one zmm
 * (nj <= 16) or two, with __mmask16 loads and stores. Lanes at or
 * past nj load as zero and are never stored; live lanes run
 * microFullAvx512's FMA chain unchanged.
 */
template <std::size_t MI, bool Wide>
__attribute__((target("avx512f"))) void
edgeTileAvx512(std::size_t k, std::size_t nj, const float *a,
               std::size_t lda, const float *b, std::size_t ldb,
               float *c, std::size_t ldc)
{
    constexpr std::size_t NV = Wide ? 2 : 1;
    __mmask16 mask[NV];
    for (std::size_t v = 0; v < NV; ++v) {
        const std::size_t live = std::min<std::size_t>(nj - 16 * v, 16);
        mask[v] = __mmask16((1u << live) - 1u);
    }
    __m512 acc[MI][NV];
    for (auto &row : acc)
        for (__m512 &x : row)
            x = _mm512_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        __m512 bv[NV];
        for (std::size_t v = 0; v < NV; ++v)
            bv[v] = _mm512_maskz_loadu_ps(mask[v], brow + 16 * v);
        for (std::size_t i = 0; i < MI; ++i) {
            const __m512 av = _mm512_set1_ps(a[i * lda + p]);
            for (std::size_t v = 0; v < NV; ++v)
                acc[i][v] = _mm512_fmadd_ps(av, bv[v], acc[i][v]);
        }
    }
    for (std::size_t i = 0; i < MI; ++i) {
        float *cr = c + i * ldc;
        for (std::size_t v = 0; v < NV; ++v)
            _mm512_mask_storeu_ps(
                cr + 16 * v, mask[v],
                _mm512_add_ps(
                    _mm512_maskz_loadu_ps(mask[v], cr + 16 * v),
                    acc[i][v]));
    }
}

/** Run the edgeTile<I + 1> instantiation whose row count is mi. */
template <bool Wide, std::size_t... I>
void
edgeRowsAvx512(std::size_t k, std::size_t mi, std::size_t nj,
               const float *a, std::size_t lda, const float *b,
               std::size_t ldb, float *c, std::size_t ldc,
               std::index_sequence<I...>)
{
    ((mi == I + 1 ? edgeTileAvx512<I + 1, Wide>(k, nj, a, lda, b, ldb,
                                                c, ldc)
                  : void()),
     ...);
}

PCNN_HOT_PATH
void
microEdgeAvx512(std::size_t k, std::size_t mi, std::size_t nj,
                const float *a, std::size_t lda, const float *b,
                std::size_t ldb, float *c, std::size_t ldc)
{
    if (nj > 16)
        edgeRowsAvx512<true>(k, mi, nj, a, lda, b, ldb, c, ldc,
                             std::make_index_sequence<8>());
    else
        edgeRowsAvx512<false>(k, mi, nj, a, lda, b, ldb, c, ldc,
                              std::make_index_sequence<8>());
}

#endif // PCNN_X86_TIERS

// ------------------------------------------------------------------
// NEON tier: 8x8 over float32x4 pairs — the portable kernel's shape
// with explicit fused-multiply lanes. Guarded by the compile-time
// target; AArch64 always has NEON, so no runtime probe is needed.
// ------------------------------------------------------------------

#ifdef PCNN_NEON_TIER

void
microFullNeon(std::size_t k, const float *a, std::size_t lda,
              const float *b, std::size_t ldb, float *c,
              std::size_t ldc, std::size_t pf)
{
    float32x4_t acc[8][2];
    for (auto &row : acc)
        row[0] = row[1] = vdupq_n_f32(0.0f);
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        if (pf != 0 && p + pf < k)
            __builtin_prefetch(b + (p + pf) * ldb);
        const float32x4_t b0 = vld1q_f32(brow);
        const float32x4_t b1 = vld1q_f32(brow + 4);
        for (std::size_t i = 0; i < 8; ++i) {
            const float32x4_t av = vdupq_n_f32(a[i * lda + p]);
            acc[i][0] = vfmaq_f32(acc[i][0], av, b0);
            acc[i][1] = vfmaq_f32(acc[i][1], av, b1);
        }
    }
    for (std::size_t i = 0; i < 8; ++i) {
        float *cr = c + i * ldc;
        vst1q_f32(cr, vaddq_f32(vld1q_f32(cr), acc[i][0]));
        vst1q_f32(cr + 4, vaddq_f32(vld1q_f32(cr + 4), acc[i][1]));
    }
}

#endif // PCNN_NEON_TIER

// ------------------------------------------------------------------
// Detection
// ------------------------------------------------------------------

std::string
readCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        if (line.compare(0, 10, "model name") == 0 ||
            line.compare(0, 8, "Hardware") == 0) {
            std::string v = line.substr(colon + 1);
            const auto first = v.find_first_not_of(" \t");
            if (first != std::string::npos)
                return v.substr(first);
        }
    }
    return "unknown";
}

CpuFeatures
detectCpu()
{
    CpuFeatures f;
#ifdef PCNN_X86_TIERS
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
    f.avx512f = __builtin_cpu_supports("avx512f") != 0;
    f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
    f.avx512vnni = __builtin_cpu_supports("avx512vnni") != 0;
#endif
#ifdef PCNN_NEON_TIER
    f.neon = true;
#endif
    f.model = readCpuModel();
    return f;
}

/** Parse a sysfs cache size string ("48K", "2M"); 0 on failure. */
std::size_t
parseCacheSize(const std::string &s)
{
    std::size_t value = 0;
    std::size_t i = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
        value = value * 10 + std::size_t(s[i] - '0');
        ++i;
    }
    if (i == 0)
        return 0;
    if (i < s.size() && (s[i] == 'K' || s[i] == 'k'))
        value <<= 10;
    else if (i < s.size() && (s[i] == 'M' || s[i] == 'm'))
        value <<= 20;
    return value;
}

CacheInfo
detectCaches()
{
    CacheInfo ci;
    for (int idx = 0; idx < 8; ++idx) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" +
            std::to_string(idx) + "/";
        std::ifstream lvl(base + "level"), typ(base + "type"),
            siz(base + "size");
        int level = 0;
        std::string type, size;
        if (!(lvl >> level) || !(typ >> type) || !(siz >> size))
            continue;
        const std::size_t bytes = parseCacheSize(size);
        if (bytes == 0 || type == "Instruction")
            continue;
        if (level == 1)
            ci.l1d = bytes;
        else if (level == 2)
            ci.l2 = bytes;
        else if (level == 3)
            ci.l3 = bytes;
    }
    return ci;
}

/** Register-tile shape per tier, defined even for unsupported tiers
 *  (defaultBlocking must be computable for any tier name found in a
 *  foreign tune-cache file). */
void
tierShape(KernelTier tier, std::size_t &mr, std::size_t &nr)
{
    switch (tier) {
      case KernelTier::Avx2:
        mr = 6;
        nr = 16;
        return;
      case KernelTier::Avx512:
        mr = 8;
        nr = 32;
        return;
      case KernelTier::Portable:
      case KernelTier::Neon:
        break;
    }
    mr = kPortMR;
    nr = kPortNR;
}

// ------------------------------------------------------------------
// Dispatch state
// ------------------------------------------------------------------

struct DispatchState
{
    bool tierPinned = false;
    KernelTier tier = KernelTier::Portable;
    bool blkPinned = false;
    GemmBlocking blk;
};

DispatchState &
state()
{
    static DispatchState s;
    return s;
}

} // namespace

const char *
kernelTierName(KernelTier tier)
{
    switch (tier) {
      case KernelTier::Portable:
        return "portable";
      case KernelTier::Neon:
        return "neon";
      case KernelTier::Avx2:
        return "avx2";
      case KernelTier::Avx512:
        return "avx512";
    }
    return "portable";
}

bool
parseKernelTier(const std::string &s, KernelTier &out)
{
    if (s == "portable")
        out = KernelTier::Portable;
    else if (s == "neon")
        out = KernelTier::Neon;
    else if (s == "avx2")
        out = KernelTier::Avx2;
    else if (s == "avx512")
        out = KernelTier::Avx512;
    else
        return false;
    return true;
}

std::string
CpuFeatures::str() const
{
    std::string s;
    const auto add = [&s](const char *name) {
        if (!s.empty())
            s += ',';
        s += name;
    };
    if (avx2)
        add("avx2");
    if (avx512f)
        add("avx512f");
    if (avx512bw)
        add("avx512bw");
    if (avx512vnni)
        add("avx512vnni");
    if (neon)
        add("neon");
    if (s.empty())
        s = "none";
    return s;
}

const CpuFeatures &
cpuFeatures()
{
    // pcnn-analyze: allow(hot-path-alloc): one-time static
    // init; detection runs once per process.
    static const CpuFeatures f = detectCpu();
    return f;
}

const CacheInfo &
cacheInfo()
{
    // pcnn-analyze: allow(hot-path-alloc): one-time static
    // init; detection runs once per process.
    static const CacheInfo ci = detectCaches();
    return ci;
}

bool
kernelTierSupported(KernelTier tier)
{
    switch (tier) {
      case KernelTier::Portable:
        return true;
      case KernelTier::Neon:
#ifdef PCNN_NEON_TIER
        return true;
#else
        return false;
#endif
      case KernelTier::Avx2:
#ifdef PCNN_X86_TIERS
        return cpuFeatures().avx2;
#else
        return false;
#endif
      case KernelTier::Avx512:
#ifdef PCNN_X86_TIERS
        return cpuFeatures().avx512f;
#else
        return false;
#endif
    }
    return false;
}

std::vector<KernelTier>
supportedKernelTiers()
{
    std::vector<KernelTier> tiers{KernelTier::Portable};
    for (KernelTier t : {KernelTier::Neon, KernelTier::Avx2,
                         KernelTier::Avx512})
        if (kernelTierSupported(t))
            tiers.push_back(t);
    return tiers;
}

KernelTier
bestKernelTier()
{
    // Cached: the host ISA cannot change mid-process, and this sits
    // on the sgemm dispatch path (via activeKernelTier/activeBlocking)
    // where rebuilding the candidate vector per call was the last
    // steady-state allocation the probe caught (DESIGN.md §5h).
    // pcnn-analyze: allow(hot-path-alloc): one-time static
    // init (the comment above).
    static const KernelTier best = supportedKernelTiers().back();
    return best;
}

KernelTier
activeKernelTier()
{
    const DispatchState &s = state();
    return s.tierPinned ? s.tier : bestKernelTier();
}

void
setKernelTier(KernelTier tier)
{
    PCNN_CHECK(kernelTierSupported(tier), "setKernelTier: tier ",
               kernelTierName(tier), " is not supported on this host (",
               cpuFeatures().str(), ")");
    state().tierPinned = true;
    state().tier = tier;
}

void
resetKernelTier()
{
    state().tierPinned = false;
}

bool
kernelTierPinned()
{
    return state().tierPinned;
}

const MicroKernel &
microKernelFor(KernelTier tier)
{
    PCNN_CHECK(kernelTierSupported(tier), "microKernelFor: tier ",
               kernelTierName(tier), " is not supported on this host");
    static const MicroKernel portable{KernelTier::Portable, kPortMR,
                                      kPortNR, &microFullPortable,
                                      &microEdgeScalar};
#ifdef PCNN_X86_TIERS
    static const MicroKernel avx2{KernelTier::Avx2, 6, 16,
                                  &microFullAvx2, &microEdgeAvx2};
    static const MicroKernel avx512{KernelTier::Avx512, 8, 32,
                                    &microFullAvx512, &microEdgeAvx512};
    if (tier == KernelTier::Avx2)
        return avx2;
    if (tier == KernelTier::Avx512)
        return avx512;
#endif
#ifdef PCNN_NEON_TIER
    static const MicroKernel neon{KernelTier::Neon, 8, 8,
                                  &microFullNeon, &microEdgeScalar};
    if (tier == KernelTier::Neon)
        return neon;
#endif
    return portable;
}

GemmBlocking
defaultBlocking(KernelTier tier)
{
    std::size_t mr = 0, nr = 0;
    tierShape(tier, mr, nr);
    const CacheInfo &ci = cacheInfo();
    const std::size_t l1 = ci.l1d != 0 ? ci.l1d : 32u << 10;
    const std::size_t l2 = ci.l2 != 0 ? ci.l2 : 1u << 20;

    GemmBlocking blk;
    // kc: a kc x nr B sliver (the stream one register tile consumes)
    // occupies half of L1d.
    blk.kc = std::clamp<std::size_t>(l1 / (2 * sizeof(float) * nr), 64,
                                     512);
    // nc: the kc x nc B slab occupies half of L2.
    blk.nc = l2 / (2 * sizeof(float) * blk.kc);
    blk.nc = std::max(nr, blk.nc - blk.nc % nr);
    // mc: an mc x kc A block occupies a quarter of L2.
    blk.mc = l2 / (4 * sizeof(float) * blk.kc);
    blk.mc = std::max(mr, blk.mc - blk.mc % mr);
    blk.prefetch = 0;
    return blk;
}

GemmBlocking
activeBlocking()
{
    const DispatchState &s = state();
    if (s.blkPinned)
        return s.blk;
    return defaultBlocking(activeKernelTier());
}

void
setBlocking(const GemmBlocking &blk)
{
    state().blkPinned = true;
    state().blk = blk;
}

void
resetBlocking()
{
    state().blkPinned = false;
}

bool
blockingPinned()
{
    return state().blkPinned;
}

} // namespace pcnn
