#include "nn/pool_layer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/tags.hh"

namespace pcnn {

MaxPoolLayer::MaxPoolLayer(std::string name, std::size_t window,
                           std::size_t stride, std::size_t pad)
    : layerName(std::move(name)), window(window), stride(stride),
      pad(pad)
{
    pcnn_assert(window > 0 && stride > 0,
                "pool ", layerName, ": window/stride must be positive");
    pcnn_assert(pad < window,
                "pool ", layerName, ": padding must be under window");
}

Shape
MaxPoolLayer::outputShape(const Shape &in) const
{
    pcnn_assert(in.h + 2 * pad >= window && in.w + 2 * pad >= window,
                "pool ", layerName, ": input ", in.str(),
                " smaller than window ", window);
    return Shape{in.n, in.c, (in.h + 2 * pad - window) / stride + 1,
                 (in.w + 2 * pad - window) / stride + 1};
}

namespace {

/**
 * Max over the taps [y0, y1) x [x0, x1) of a plane `w` floats wide,
 * scanned in (ky, kx) order with a strict `>` from -1e30f. With
 * kArgmax, each new winner writes its index `base + iy * w + ix` to
 * `arg`.
 */
template <bool kArgmax>
float
windowMax(const float *src, std::size_t w, std::size_t y0,
          std::size_t y1, std::size_t x0, std::size_t x1,
          std::size_t base, std::size_t *arg)
{
    float best = -1e30f;
    for (std::size_t iy = y0; iy < y1; ++iy) {
        for (std::size_t ix = x0; ix < x1; ++ix) {
            const float v = src[iy * w + ix];
            if (kArgmax && v > best)
                *arg = base + iy * w + ix;
            best = v > best ? v : best;
        }
    }
    return best;
}

} // namespace

PCNN_HOT_PATH
void
MaxPoolLayer::forwardInto(const Tensor &x, bool train, Tensor &y)
{
    const Shape out = outputShape(x.shape());
    // pcnn-analyze: allow(hot-path-alloc): grow-only output
    // buffer; capacity is reused once warm (DESIGN.md §5h).
    y.resize(out);
    const Shape &in = x.shape();
    if (train) {
        inShape = in;
        // pcnn-analyze: allow(hot-path-alloc): training-only
        // bookkeeping; inference never takes this branch.
        argmaxIdx.assign(out.size(), 0);
    }

    // Each output row splits into clipped edge columns and interior
    // columns [ix0, ix1) whose taps all lie inside the row. Every
    // output scans its valid taps in (ky, kx) order with a strict `>`
    // (padding never wins), so ties and NaN resolve the same way in
    // both (DESIGN.md §5d). Interior outputs run four at a time: four
    // independent running maxima in registers, so the max chains
    // overlap instead of queueing. The last block shifts left to end
    // at ix1, recomputing a few outputs to the same bits instead of a
    // tail loop. Rows with fewer than four interior columns, and
    // training forwards (which record each argmax), take the clipped
    // loop throughout.
    constexpr std::size_t kBlock = 4;
    std::size_t ix0 = std::min(out.w, (pad + stride - 1) / stride);
    std::size_t ix1 =
        in.w + pad >= window
            ? std::max(ix0, std::min(out.w,
                                     (in.w + pad - window) / stride + 1))
            : ix0;
    if (train || ix1 - ix0 < kBlock)
        ix0 = ix1 = out.w;
    const std::size_t in_plane = in.h * in.w;
    const std::size_t out_plane = out.h * out.w;
    // Each (n, c) plane pools independently — fan out over the pool.
    parallelFor(in.n * in.c, [&](std::size_t p0, std::size_t p1,
                                 std::size_t) {
        for (std::size_t plane = p0; plane < p1; ++plane) {
            const float *src = x.data() + plane * in_plane;
            float *dst = y.data() + plane * out_plane;
            std::size_t *arg =
                train ? argmaxIdx.data() + plane * out_plane : nullptr;
            for (std::size_t oy = 0; oy < out.h; ++oy) {
                const std::size_t y0 =
                    oy * stride >= pad ? oy * stride - pad : 0;
                const std::size_t y1 = std::min<std::size_t>(
                    in.h, oy * stride + window - pad);
                float *drow = dst + oy * out.w;
                auto clipped = [&](std::size_t ox) {
                    const std::size_t x0 =
                        ox * stride >= pad ? ox * stride - pad : 0;
                    const std::size_t x1 = std::min<std::size_t>(
                        in.w, ox * stride + window - pad);
                    drow[ox] =
                        arg != nullptr
                            ? windowMax<true>(src, in.w, y0, y1, x0, x1,
                                              plane * in_plane,
                                              arg + oy * out.w + ox)
                            : windowMax<false>(src, in.w, y0, y1, x0,
                                               x1, 0, nullptr);
                };
                for (std::size_t ox = 0; ox < ix0; ++ox)
                    clipped(ox);
                for (std::size_t ox = ix1; ox < out.w; ++ox)
                    clipped(ox);
                for (std::size_t ox = ix0; ox < ix1; ox += kBlock) {
                    ox = std::min(ox, ix1 - kBlock);
                    float b0 = -1e30f, b1 = -1e30f, b2 = -1e30f,
                          b3 = -1e30f;
                    for (std::size_t iy = y0; iy < y1; ++iy) {
                        const float *r =
                            src + iy * in.w + ox * stride - pad;
                        for (std::size_t kx = 0; kx < window; ++kx) {
                            const float v0 = r[kx];
                            const float v1 = r[kx + stride];
                            const float v2 = r[kx + 2 * stride];
                            const float v3 = r[kx + 3 * stride];
                            b0 = v0 > b0 ? v0 : b0;
                            b1 = v1 > b1 ? v1 : b1;
                            b2 = v2 > b2 ? v2 : b2;
                            b3 = v3 > b3 ? v3 : b3;
                        }
                    }
                    drow[ox] = b0;
                    drow[ox + 1] = b1;
                    drow[ox + 2] = b2;
                    drow[ox + 3] = b3;
                }
            }
        }
    });
    haveCache = train;
}

Tensor
MaxPoolLayer::backward(const Tensor &dy)
{
    pcnn_assert(haveCache, "pool ", layerName,
                ": backward without forward(train)");
    Tensor dx(inShape);
    for (std::size_t i = 0; i < dy.size(); ++i)
        dx[argmaxIdx[i]] += dy[i];
    return dx;
}

} // namespace pcnn
