/**
 * @file
 * Tensor primitives: CPU SGEMM, im2col/col2im, softmax, entropy.
 *
 * These are the building blocks the nn:: layers compose. The SGEMM
 * here is the *functional* counterpart of the GPU kernels the
 * analytical model in gpu:: reasons about — the paper lowers every
 * convolution to SGEMM via im2col (Section II.A, Fig. 2), and so do
 * we.
 */

#ifndef PCNN_TENSOR_TENSOR_OPS_HH
#define PCNN_TENSOR_TENSOR_OPS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace pcnn {

/** Dimensions of a C = op(A) x op(B) matrix product. */
struct GemmShape
{
    std::size_t m = 0; ///< rows of C
    std::size_t n = 0; ///< cols of C
    std::size_t k = 0; ///< inner dimension

    /** FLOPs of the product (one multiply-accumulate = 2 FLOPs). */
    double flops() const { return 2.0 * double(m) * double(n) * double(k); }
};

/** Fused post-GEMM operation (DESIGN.md §5e). */
enum class EpilogueOp : std::uint8_t
{
    None,     ///< plain C = op(A) op(B) + beta C
    Bias,     ///< add a per-row (or per-column) bias vector
    BiasRelu, ///< bias add followed by max(0, x)
};

/**
 * Epilogue applied to every C cell in the micro-kernel's store pass,
 * after the full-K accumulation and the beta term: the fused form of
 * the bias add and/or ReLU that would otherwise be a second full pass
 * over C. A cell's final value is epi(beta*c + sum) with the same
 * beta*c + sum bits as the unfused route, and max(0, x) is exact, so
 * fusing never changes results bitwise.
 *
 * `bias` may be null with BiasRelu to fuse a pure ReLU (the caller
 * already seeded C with the bias and runs beta = 1).
 */
struct Epilogue
{
    EpilogueOp op = EpilogueOp::None;
    const float *bias = nullptr; ///< length m (row) or n (colBias)
    bool colBias = false;        ///< index bias by column (FC layout)

    /** True when the store pass has work to do. */
    bool active() const { return op != EpilogueOp::None; }
};

/**
 * Single-precision GEMM: C = epi(op(A) * op(B) + beta * C).
 *
 * All matrices are dense row-major. op(A) is m x k, op(B) is k x n.
 * Transposed operands are packed into contiguous panels and fed to
 * the active SIMD micro-kernel tier (tensor/microkernel.hh: portable
 * Vec8 8x8, AVX2 6x16, AVX-512 8x32, NEON 8x8: the setKernelTier()
 * pin, else the widest tier the host runs) under a Kc/Mc/Nc
 * cache-blocking hierarchy; the M (or, for single-block-row shapes,
 * N) dimension is parallelized over the pcnn thread pool in
 * register-block-aligned bands, so results are bitwise identical for
 * every PCNN_THREADS value at a fixed tier and blocking. The
 * epilogue runs once per cell, on the final Kc chunk of the band
 * that owns it, while the tile is still cache-hot.
 * @param trans_a interpret A as transposed (A stored k x m)
 * @param trans_b interpret B as transposed (B stored n x k)
 */
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, const float *a, const float *b, float *c,
           float beta = 0.0f, const Epilogue &epi = {});

/**
 * True once any GEMM (sgemm, sgemmPrepacked, or qgemm) has executed
 * in this process. Configuration hooks that would change the kernel
 * tier or blocking — and with them the bitwise result of later
 * fp32 GEMMs — consult this to refuse to flip dispatch state
 * mid-process: results computed before the flip could never be
 * reproduced after it (tests/test_serve.cc EngineMatchesPrototype*).
 * Monotone; never resets.
 */
bool gemmHasRun() noexcept;

/** Internal: GEMM entry points latch gemmHasRun(). */
void noteGemmRan() noexcept;

/**
 * A matrix operand materialized in the exact row-major layout the
 * SGEMM micro-kernel consumes: op(X) stored dense, rows x cols.
 *
 * `sgemm` builds such panels internally — and throws them away — on
 * every call with a transposed operand. Packing a *constant* operand
 * (layer weights) into a persistent PackedPanel once and reusing it
 * via sgemmPrepacked() removes that per-call copy entirely; this is
 * the zero-repack inference hot path of DESIGN.md §5d.
 *
 * Because the panel is an ordinary row-major matrix, `data.data()`
 * may equally be fed to sgemm() as a plain non-transposed operand on
 * either side of the product (the conv backward pass does this for
 * its packed W^T panels).
 *
 * `generation` tags which Param::generation() the panel was packed
 * from; 0 (never packed) is always stale.
 */
struct PackedPanel
{
    std::vector<float> data;      ///< grow-only backing store
    std::size_t rows = 0;         ///< rows of op(X)
    std::size_t cols = 0;         ///< cols of op(X)
    std::uint64_t generation = 0; ///< source Param generation

    /** Kernel-ready pointer to the packed rows x cols matrix. */
    const float *ptr() const { return data.data(); }
};

/**
 * Materialize op(W) into `panel` as a row-major rows x cols matrix.
 * @param trans if true, w is stored transposed (cols x rows) and is
 *        repacked; if false, w is copied verbatim
 * @param rows rows of op(W)
 * @param cols cols of op(W)
 *
 * The caller owns `panel.generation`; packWeights only fills data and
 * dimensions (the backing store grows but never shrinks).
 */
void packWeights(bool trans, std::size_t rows, std::size_t cols,
                 const float *w, PackedPanel &panel);

/**
 * Process-wide count of packWeights() panel materializations since
 * start-up (atomic, any thread). Serving tests pin the weight-sharing
 * contract with it: after a multi-replica engine warms up, steady
 * state must not move this counter — one pack serves every replica
 * (DESIGN.md §5f).
 */
std::uint64_t weightPackCount();

/**
 * C = epi(A * B + beta * C) with a prepacked B panel: A is row-major
 * m x k, `b` must hold a k x n panel. Bitwise identical to
 * sgemm(false, trans, m, n, k, a, w, c, beta, epi) where `b` was
 * packed from w with packWeights(trans, ...) — same micro-kernels,
 * same per-cell accumulation order — minus the per-call packing pass.
 */
void sgemmPrepacked(std::size_t m, std::size_t n, std::size_t k,
                    const float *a, const PackedPanel &b, float *c,
                    float beta = 0.0f, const Epilogue &epi = {});

/** Geometry of a convolution viewed from one input item. */
struct ConvGeom
{
    std::size_t inC = 0;
    std::size_t inH = 0;
    std::size_t inW = 0;
    std::size_t kernel = 0; ///< square filter side S_f
    std::size_t stride = 1;
    std::size_t pad = 0;

    /** Output height for this geometry. */
    std::size_t outH() const;

    /** Output width for this geometry. */
    std::size_t outW() const;

    /** Rows of the im2col matrix: S_f^2 * N_c. */
    std::size_t colRows() const { return kernel * kernel * inC; }
};

/**
 * im2col for one batch item: expands local receptive fields into a
 * (S_f^2 N_c) x (W_o H_o) column-major-of-patches matrix (stored
 * row-major, one row per filter element).
 *
 * The output layout doubles as a ready-to-consume SGEMM B panel
 * (row-major colRows() x positions): the conv forward path feeds it
 * to the kernel directly, with no intermediate packing pass.
 *
 * @param x input tensor (any batch size)
 * @param item which batch item to expand
 * @param g convolution geometry
 * @param cols output buffer, grown (never shrunk) to at least
 *        colRows() x (outH*outW); the result occupies that prefix
 * @param chan_off first input channel to read (grouped convolution
 *        reads a g.inC-wide channel window of a wider tensor)
 */
void im2col(const Tensor &x, std::size_t item, const ConvGeom &g,
            std::vector<float> &cols, std::size_t chan_off = 0);

/**
 * Partial im2col used by perforated convolution: only the given
 * output positions (indices into the flattened outH*outW grid) are
 * expanded, producing a colRows() x positions.size() matrix.
 */
void im2colAt(const Tensor &x, std::size_t item, const ConvGeom &g,
              const std::vector<std::size_t> &positions,
              std::vector<float> &cols, std::size_t chan_off = 0);

/**
 * col2im scatter-add: inverse of im2col, used by the conv backward
 * pass. Accumulates into dx (which must be pre-sized and may hold
 * other items' gradients), starting at channel chan_off.
 */
void col2im(const std::vector<float> &cols, std::size_t item,
            const ConvGeom &g, Tensor &dx, std::size_t chan_off = 0);

/**
 * Row-wise softmax over a logits tensor shaped [n, k, 1, 1].
 * Numerically stabilized by max subtraction.
 */
Tensor softmax(const Tensor &logits);

/**
 * Discrete entropy of one probability row (Eq. 2 of the paper):
 * H(Y) = -sum_i p_i log(p_i), natural log, 0 log 0 := 0.
 */
double entropy(const float *probs, std::size_t k);

/**
 * Mean entropy across a batch of probability rows [n, k, 1, 1].
 * This is the paper's CNN_entropy signal used for accuracy tuning.
 */
double batchEntropy(const Tensor &probs);

/** Index of the largest value in a row of k floats. */
std::size_t argmax(const float *row, std::size_t k);

/** Per-item argmax of a [n, k, 1, 1] probability/logit tensor. */
std::vector<std::size_t> argmaxRows(const Tensor &t);

} // namespace pcnn

#endif // PCNN_TENSOR_TENSOR_OPS_HH
