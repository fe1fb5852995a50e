#include "nn/lrn_layer.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/tags.hh"

namespace pcnn {

LrnLayer::LrnLayer(std::string name, std::size_t size, double alpha,
                   double beta, double k)
    : layerName(std::move(name)), size(size), alpha(float(alpha)),
      beta(float(beta)), k(float(k))
{
    pcnn_assert(size >= 1, "lrn ", layerName, ": window must be >= 1");
}

PCNN_HOT_PATH
void
LrnLayer::forwardInto(const Tensor &x, bool train, Tensor &y)
{
    const Shape &s = x.shape();
    // pcnn-analyze: allow(hot-path-alloc): grow-only output
    // buffer; capacity is reused once warm (DESIGN.md §5h).
    y.resize(s);
    if (train) {
        // pcnn-analyze: allow(hot-path-alloc): training-only
        // backward cache; inference never takes this branch.
        lastScale.resize(s);
    }
    const std::size_t plane = s.h * s.w;
    if (sumRow.size() < plane) {
        // pcnn-analyze: allow(hot-path-alloc): grow-only row of
        // one plane's window sums, reused once warm.
        sumRow.resize(plane);
    }
    const std::size_t half = size / 2;
    const float a_over_n = alpha / float(size);
    double *sum = sumRow.data();

    // One output channel plane at a time (DESIGN.md §5d): the window
    // sums accumulate plane by plane in ascending channel order, so
    // each element adds the same squares in the same order as a
    // per-element walk over c - half .. c + half.
    for (std::size_t n = 0; n < s.n; ++n) {
        const float *xn = x.data() + n * s.c * plane;
        float *yn = y.data() + n * s.c * plane;
        for (std::size_t c = 0; c < s.c; ++c) {
            const std::size_t c0 = c >= half ? c - half : 0;
            const std::size_t c1 = std::min(s.c, c + half + 1);
            std::fill(sum, sum + plane, 0.0);
            for (std::size_t cc = c0; cc < c1; ++cc) {
                const float *src = xn + cc * plane;
                for (std::size_t i = 0; i < plane; ++i) {
                    const double v = src[i];
                    sum[i] += v * v;
                }
            }
            const float *xc = xn + c * plane;
            float *yc = yn + c * plane;
            float *scale =
                train ? lastScale.data() + (n * s.c + c) * plane
                      : nullptr;
            for (std::size_t i = 0; i < plane; ++i) {
                const float sc = k + a_over_n * float(sum[i]);
                if (scale != nullptr)
                    scale[i] = sc;
                yc[i] = xc[i] * std::pow(sc, -beta);
            }
        }
    }
    if (train) {
        lastInput = x;
        haveCache = true;
    }
}

Tensor
LrnLayer::backward(const Tensor &dy)
{
    pcnn_assert(haveCache, "lrn ", layerName,
                ": backward without forward(train)");
    const Shape &s = lastInput.shape();
    pcnn_assert(dy.shape() == s, "lrn ", layerName,
                ": gradient shape mismatch");

    // dL/dx_c = dy_c * scale_c^-beta
    //   - (2*alpha*beta/n) * x_c *
    //     sum_{c' : c in window(c')} dy_{c'} * x_{c'} *
    //     scale_{c'}^{-beta-1}
    Tensor dx(s);
    const long half = long(size / 2);
    const float a_over_n = alpha / float(size);

    for (std::size_t n = 0; n < s.n; ++n) {
        for (std::size_t h = 0; h < s.h; ++h) {
            for (std::size_t w = 0; w < s.w; ++w) {
                for (std::size_t c = 0; c < s.c; ++c) {
                    const float sc = lastScale.at(n, c, h, w);
                    double g = double(dy.at(n, c, h, w)) *
                               std::pow(sc, -beta);
                    double cross = 0.0;
                    for (long dc = -half; dc <= half; ++dc) {
                        const long cc = long(c) + dc;
                        if (cc < 0 || cc >= long(s.c))
                            continue;
                        const float sc2 =
                            lastScale.at(n, std::size_t(cc), h, w);
                        cross += double(dy.at(n, std::size_t(cc), h,
                                              w)) *
                                 double(lastInput.at(
                                     n, std::size_t(cc), h, w)) *
                                 std::pow(sc2, -beta - 1.0f);
                    }
                    g -= 2.0 * a_over_n * beta *
                         double(lastInput.at(n, c, h, w)) * cross;
                    dx.at(n, c, h, w) = float(g);
                }
            }
        }
    }
    return dx;
}

} // namespace pcnn
