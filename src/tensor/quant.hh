/**
 * @file
 * Int8 quantized GEMM: per-channel weight panels, activation
 * quantization, and the tiered int8 micro-kernel family.
 *
 * Scheme (DESIGN.md section 5i): weights are per-output-channel
 * symmetric int8 in [-127, 127] with one fp32 scale per row;
 * activations are per-tensor asymmetric *unsigned 7-bit* in
 * [0, 127] with a single scale and zero point. Restricting the
 * unsigned operand to 7 bits makes the AVX2 `maddubs` pairwise
 * i16 sums (max 2 * 127 * 127 = 32258 < 32767) saturation-free,
 * so every tier computes the identical exact int32 dot product.
 *
 * Determinism contract — stronger than fp32's: int32 accumulation
 * is exact and associative within bounds (qgemm checks
 * k <= kQuantMaxK), and the dequant+bias+ReLU epilogue applies a
 * fixed scalar float sequence (convert, multiply, add, clamp — no
 * FMA) in every tier, so quantized results are bitwise identical
 * across *all* kernel tiers, thread counts, and blocking choices,
 * not just within a tier.
 */

#ifndef PCNN_TENSOR_QUANT_HH
#define PCNN_TENSOR_QUANT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/microkernel.hh"

namespace pcnn {

/** Per-tensor asymmetric activation quantization parameters.
 *
 * real = scale * (q - zero), with q restricted to [0, 127]. The
 * defaults (scale 1, zero 0) quantize a non-negative identity
 * range and are always valid.
 */
struct QuantParams
{
    float scale = 1.0f;    ///< dequantization step (finite, > 0)
    std::uint8_t zero = 0; ///< zero point, in [0, 127]
};

/** Compute per-tensor activation quantization parameters from the
 * min/max of `count` floats. The range is widened to include 0 so
 * zero padding and ReLU outputs are exactly representable; a
 * degenerate or non-finite range yields the identity params. */
QuantParams computeQuantParams(const float *x, std::size_t count);

/** Packed per-output-channel int8 weight panel for qgemm's A side.
 *
 * `data` holds rows x kp row-major int8, where kp is cols rounded
 * up to a multiple of 4 and the pad bytes are zero (they meet the
 * activation panel's pad bytes, contributing exactly 0). `scales`
 * and `rowSums` carry one entry per row: the symmetric dequant
 * scale and the sum of the quantized weights (used to fold the
 * activation zero point out of the int32 accumulator). Like
 * PackedPanel, `generation` tags the Param generation the panel
 * was quantized from so weight updates invalidate it.
 */
struct QuantizedPanel
{
    std::vector<std::int8_t> data;     ///< rows x kp, row-major
    std::vector<float> scales;         ///< per-row dequant scale
    std::vector<std::int32_t> rowSums; ///< per-row sum of int8 weights
    std::size_t rows = 0;              ///< output channels (M)
    std::size_t cols = 0;              ///< real inner dimension (K)
    std::size_t kp = 0;                ///< padded K (multiple of 4)
    std::uint64_t generation = 0;      ///< source Param generation

    const std::int8_t *ptr() const { return data.data(); }
};

/** Quantize a rows x cols row-major fp32 weight matrix into `panel`
 * (per-row symmetric, scale = maxabs / 127, all-zero rows get scale
 * 1). Grow-only on repeated calls; bumps quantPackCount(). The
 * caller stamps `panel.generation`. */
void quantizeWeights(std::size_t rows, std::size_t cols, const float *w,
                     QuantizedPanel &panel);

/** Process-wide count of weight-panel quantizations, the int8
 * counterpart of weightPackCount(). Serving asserts it stays flat
 * across replica forwards (panels are shared, never re-quantized). */
std::uint64_t quantPackCount();

/** Activation-panel column count after padding: n rounded up to a
 * multiple of 32 (the widest tier's nr), so qgemm's column-edge
 * tiles can always run the full-width vector kernel and stage the
 * valid columns out — no scalar column edges. Pad columns hold the
 * zero point; their outputs are never stored. */
constexpr std::size_t
quantPackedCols(std::size_t n)
{
    return (n + 31) & ~std::size_t(31);
}

/** Quantize and pack an fp32 activation matrix into qgemm's B-side
 * u8 panel: k4-interleaved with np = quantPackedCols(n) columns,
 * group g of 4 k-rows stores column j as 4 consecutive bytes at
 * g*4np + 4j. When `trans` is false the source is k x n row-major
 * with leading dimension `ld` (>= n); when true it is n x k
 * row-major (B[p][j] = x[j*ld + p]), which packs an FC batch
 * without materializing x^T. Pad k-rows and pad columns are filled
 * with the zero point. Grow-only resize of `out`. */
void quantizePackActivations(const float *x, std::size_t k, std::size_t n,
                             std::size_t ld, bool trans,
                             const QuantParams &qp,
                             std::vector<std::uint8_t> &out);

/** Fused dequant epilogue parameters, applied per register tile:
 *   adj = acc - actZero * rowSums[row]
 *   v   = float(adj) * (scales[row] * actScale)  [+ bias[row]] [ReLU]
 * Every tier performs this exact scalar sequence (element-wise in
 * the vector tiers, no FMA), so the fp32 outputs are bitwise
 * identical across tiers. */
struct QuantEpilogue
{
    const float *scales = nullptr;        ///< per-row weight scales
    const std::int32_t *rowSums = nullptr;///< per-row weight sums
    float actScale = 1.0f;                ///< activation scale
    std::int32_t actZero = 0;             ///< activation zero point
    const float *bias = nullptr;          ///< per-row bias, may be null
    bool relu = false;                    ///< clamp negatives to +0
};

/** Full-tile int8 micro-kernel: mr x nr register tile over `groups`
 * k4 groups. `a` points at the tile's rows (stride `lda` = panel
 * kp), `b` at the tile's columns within the interleaved panel
 * (stride `ldb` = 4 * panel width, column c at b + g*ldb + 4*c),
 * `c` at the fp32 output tile (overwrite-store), and `row0` is the
 * tile's global row for indexing the epilogue arrays. */
using QuantFullFn = void (*)(std::size_t groups, const std::int8_t *a,
                             std::size_t lda, const std::uint8_t *b,
                             std::size_t ldb, float *c, std::size_t ldc,
                             std::size_t row0, const QuantEpilogue &epi);

/** One int8 micro-kernel implementation. */
struct QuantKernel
{
    KernelTier tier = KernelTier::Portable;
    std::size_t mr = 0;
    std::size_t nr = 0;
    QuantFullFn full = nullptr;
};

/** Whether this build/host can run the tier's int8 kernel. The
 * AVX-512 int8 tier additionally needs AVX-512BW (for the 512-bit
 * maddubs), which some AVX-512F hosts lack. */
bool quantKernelTierSupported(KernelTier tier);

/** The int8 micro-kernel for a tier; PCNN_CHECK-fails when
 * unsupported. */
const QuantKernel &quantKernelFor(KernelTier tier);

/** The int8 tier qgemm dispatches to: activeKernelTier() downgraded
 * along avx512 -> avx2 -> portable (neon -> portable) until the
 * int8 kernel is supported, so a setKernelTier() pin applies. */
KernelTier activeQuantKernelTier();

/** qgemm rejects K beyond this bound: 4 * 127 * 127 per k4 group
 * times 2^17 / 4 groups stays below 2^31, keeping the int32
 * accumulator exact (and therefore tier/thread invariant). */
constexpr std::size_t kQuantMaxK = std::size_t(1) << 17;

/** Quantized GEMM with fused dequant epilogue:
 *   C (m x n fp32, row-major, ldc = n) =
 *     dequant(A_q x B_q) [+ bias] [ReLU]
 * `a` is the prequantized weight panel (a.rows == m, a.cols == k),
 * `b` the interleaved activation panel from
 * quantizePackActivations, `bq` its params. Accumulates the full K
 * in registers (no Kc pass — the int32 tile is exact, so staging
 * is pure overhead), reuses activeBlocking()'s Mc/Nc for cache
 * footprint, and splits work across the pool by row or column
 * bands exactly like sgemm. Alloc-free. */
void qgemm(std::size_t m, std::size_t n, std::size_t k,
           const QuantizedPanel &a, const std::uint8_t *b,
           const QuantParams &bq, float *c, const float *bias, bool relu);

} // namespace pcnn

#endif // PCNN_TENSOR_QUANT_HH
