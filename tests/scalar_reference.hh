/**
 * @file
 * Per-element scalar forms of the LRN and max-pool forwards, as the
 * layers computed them before their plane-contiguous rewrite
 * (DESIGN.md §5d), and the row-wise im2col the staged one replaced
 * (§5b). The bitwise regression tests hold the current loops to these
 * results, NaN payloads and signed zeros included.
 */

#ifndef PCNN_TESTS_SCALAR_REFERENCE_HH
#define PCNN_TESTS_SCALAR_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "tensor/tensor.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {

/**
 * Cross-channel LRN, one element at a time: each output walks its
 * channel window c - size/2 .. c + size/2 in ascending order with a
 * double sum. Parameters as LrnLayer stores them (single precision).
 */
inline Tensor
referenceLrn(const Tensor &x, std::size_t size, float alpha, float beta,
             float k)
{
    const Shape &s = x.shape();
    Tensor y(s);
    const long half = long(size / 2);
    const float a_over_n = alpha / float(size);
    for (std::size_t n = 0; n < s.n; ++n) {
        for (std::size_t h = 0; h < s.h; ++h) {
            for (std::size_t w = 0; w < s.w; ++w) {
                for (std::size_t c = 0; c < s.c; ++c) {
                    double sum = 0.0;
                    for (long dc = -half; dc <= half; ++dc) {
                        const long cc = long(c) + dc;
                        if (cc < 0 || cc >= long(s.c))
                            continue;
                        const double v =
                            x.at(n, std::size_t(cc), h, w);
                        sum += v * v;
                    }
                    const float sc = k + a_over_n * float(sum);
                    y.at(n, c, h, w) =
                        x.at(n, c, h, w) * std::pow(sc, -beta);
                }
            }
        }
    }
    return y;
}

/**
 * Max pool, one output at a time over its clipped tap window in
 * (ky, kx) order with a strict `>` from -1e30f. `argmax`, when given,
 * receives each output's flat input index (0 when no tap wins).
 */
inline Tensor
referenceMaxPool(const Tensor &x, std::size_t window, std::size_t stride,
                 std::size_t pad,
                 std::vector<std::size_t> *argmax = nullptr)
{
    const Shape &in = x.shape();
    const Shape out{in.n, in.c, (in.h + 2 * pad - window) / stride + 1,
                    (in.w + 2 * pad - window) / stride + 1};
    Tensor y(out);
    if (argmax != nullptr)
        argmax->assign(out.size(), 0);
    for (std::size_t plane = 0; plane < in.n * in.c; ++plane) {
        const float *src = x.data() + plane * in.h * in.w;
        for (std::size_t oy = 0; oy < out.h; ++oy) {
            const std::size_t y0 =
                oy * stride >= pad ? oy * stride - pad : 0;
            const std::size_t y1 =
                std::min(in.h, oy * stride + window - pad);
            for (std::size_t ox = 0; ox < out.w; ++ox) {
                const std::size_t x0 =
                    ox * stride >= pad ? ox * stride - pad : 0;
                const std::size_t x1 =
                    std::min(in.w, ox * stride + window - pad);
                float best = -1e30f;
                std::size_t best_idx = 0;
                for (std::size_t iy = y0; iy < y1; ++iy) {
                    for (std::size_t ix = x0; ix < x1; ++ix) {
                        const float v = src[iy * in.w + ix];
                        if (v > best) {
                            best = v;
                            best_idx =
                                plane * in.h * in.w + iy * in.w + ix;
                        }
                    }
                }
                const std::size_t o =
                    plane * out.h * out.w + oy * out.w + ox;
                y[o] = best;
                if (argmax != nullptr)
                    (*argmax)[o] = best_idx;
            }
        }
    }
    return y;
}

/**
 * im2col one cols-matrix row (c, ky, kx) at a time, straight from the
 * unpadded input: each output row segment is a zero run left of the
 * valid column span, a copy (or strided gather) of the span, and a
 * zero run right of it; rows that fall in the vertical padding are
 * all zeros. Same contract and output layout as pcnn::im2col.
 */
inline void
referenceIm2col(const Tensor &x, std::size_t item, const ConvGeom &g,
                std::vector<float> &cols, std::size_t chan_off = 0)
{
    const std::size_t oh = g.outH(), ow = g.outW();
    const std::size_t n_cols = oh * ow;
    const std::size_t rows = g.colRows();
    if (cols.size() < rows * n_cols)
        cols.resize(rows * n_cols);
    const std::size_t plane = g.inH * g.inW;
    const float *xbase =
        x.data() + (item * x.shape().c + chan_off) * plane;
    const std::size_t taps = g.kernel * g.kernel;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t c = r / taps;
        const std::size_t ky = (r % taps) / g.kernel;
        const std::size_t kx = r % g.kernel;
        const float *src_plane = xbase + c * plane;
        float *out = cols.data() + r * n_cols;
        // Output columns [lo, hi) whose tap ox*stride + kx - pad lands
        // inside [0, inW).
        std::size_t lo =
            g.pad > kx ? (g.pad - kx + g.stride - 1) / g.stride : 0;
        const long last = long(g.inW) - 1 - long(kx) + long(g.pad);
        const std::size_t hi =
            last < 0 ? 0
                     : std::min<std::size_t>(ow, std::size_t(last) /
                                                     g.stride +
                                                 1);
        lo = std::min(lo, hi);
        for (std::size_t oy = 0; oy < oh; ++oy) {
            float *orow = out + oy * ow;
            const long iy = long(oy * g.stride + ky) - long(g.pad);
            if (iy < 0 || iy >= long(g.inH)) {
                std::memset(orow, 0, ow * sizeof(float));
                continue;
            }
            const float *src = src_plane + std::size_t(iy) * g.inW;
            if (lo > 0)
                std::memset(orow, 0, lo * sizeof(float));
            if (g.stride == 1) {
                std::memcpy(orow + lo, src + lo + kx - g.pad,
                            (hi - lo) * sizeof(float));
            } else {
                for (std::size_t ox = lo; ox < hi; ++ox)
                    orow[ox] = src[ox * g.stride + kx - g.pad];
            }
            if (hi < ow)
                std::memset(orow + hi, 0, (ow - hi) * sizeof(float));
        }
    }
}

} // namespace pcnn

#endif // PCNN_TESTS_SCALAR_REFERENCE_HH
