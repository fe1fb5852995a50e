/**
 * @file
 * Unit tests for the tensor module: Tensor, SGEMM, im2col/col2im,
 * softmax and entropy (Eq. 2).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>

#include "common/random.hh"
#include "kernel_tier_sweep.hh"
#include "scalar_reference.hh"
#include "tensor/tensor.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {
namespace {

// ------------------------------------------------------------- Tensor

TEST(Tensor, DefaultIsScalarZero)
{
    Tensor t;
    EXPECT_EQ(t.size(), 1u);
    EXPECT_FLOAT_EQ(t[0], 0.0f);
}

TEST(Tensor, ShapeAndSize)
{
    Tensor t(2, 3, 4, 5);
    EXPECT_EQ(t.size(), 120u);
    EXPECT_EQ(t.shape().itemSize(), 60u);
    EXPECT_EQ(t.shape().str(), "[2,3,4,5]");
}

TEST(Tensor, AtIndexingIsRowMajorNchw)
{
    Tensor t(2, 3, 4, 5);
    t.at(1, 2, 3, 4) = 42.0f;
    EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 42.0f);
}

TEST(TensorDeath, OutOfBoundsPanics)
{
    Tensor t(1, 1, 2, 2);
    EXPECT_DEATH(t.at(0, 0, 2, 0), "out of");
}

TEST(Tensor, FillAndSum)
{
    Tensor t(1, 2, 2, 2);
    t.fill(0.5f);
    EXPECT_DOUBLE_EQ(t.sum(), 4.0);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t(1, 2, 3, 4);
    t.at(0, 1, 2, 3) = 9.0f;
    t.reshape(Shape{1, 24, 1, 1});
    EXPECT_FLOAT_EQ(t[23], 9.0f);
}

TEST(TensorDeath, ReshapeSizeMismatchPanics)
{
    Tensor t(1, 2, 3, 4);
    EXPECT_DEATH(t.reshape(Shape{1, 2, 3, 5}), "reshape");
}

TEST(Tensor, ItemExtractsBatchSlice)
{
    Tensor t(3, 2, 1, 1);
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = float(i);
    const Tensor item = t.item(1);
    EXPECT_EQ(item.shape().n, 1u);
    EXPECT_FLOAT_EQ(item[0], 2.0f);
    EXPECT_FLOAT_EQ(item[1], 3.0f);
}

TEST(Tensor, MaxAbsDiff)
{
    Tensor a(1, 1, 2, 2), b(1, 1, 2, 2);
    a.fill(1.0f);
    b.fill(1.0f);
    b.at(0, 0, 1, 1) = 1.25f;
    EXPECT_NEAR(a.maxAbsDiff(b), 0.25, 1e-7);
}

TEST(Tensor, GaussianFillMoments)
{
    Rng rng(1);
    Tensor t(8, 8, 8, 8);
    t.fillGaussian(rng, 2.0f, 0.5f);
    EXPECT_NEAR(t.sum() / double(t.size()), 2.0, 0.02);
}

// -------------------------------------------------------------- sgemm

/** Reference triple-loop GEMM for validation. */
void
refGemm(std::size_t m, std::size_t n, std::size_t k, const float *a,
        const float *b, float *c)
{
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p)
                acc += double(a[i * k + p]) * double(b[p * n + j]);
            c[i * n + j] = float(acc);
        }
}

class SgemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SgemmShapes, MatchesReference)
{
    forEachKernelTier([this] {
        const auto [m, n, k] = GetParam();
        Rng rng(m * 10007 + n * 101 + k);
        std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n);
        for (auto &x : a)
            x = float(rng.uniform(-1, 1));
        for (auto &x : b)
            x = float(rng.uniform(-1, 1));
        sgemm(false, false, m, n, k, a.data(), b.data(), c.data());
        refGemm(m, n, k, a.data(), b.data(), ref.data());
        for (std::size_t i = 0; i < c.size(); ++i)
            ASSERT_NEAR(c[i], ref[i], 1e-3) << "at " << i;
    });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SgemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{32, 8, 64},
                      std::tuple{65, 65, 65}, std::tuple{1, 128, 9},
                      std::tuple{128, 1, 9}, std::tuple{17, 31, 129}));

TEST(Sgemm, TransposeA)
{
    forEachKernelTier([] {
        // A stored as k x m, interpreted as m x k.
        const std::size_t m = 2, n = 3, k = 4;
        Rng rng(3);
        std::vector<float> at(k * m), a(m * k), b(k * n);
        for (auto &x : at)
            x = float(rng.uniform(-1, 1));
        for (auto &x : b)
            x = float(rng.uniform(-1, 1));
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t p = 0; p < k; ++p)
                a[i * k + p] = at[p * m + i];
        std::vector<float> c1(m * n), c2(m * n);
        sgemm(true, false, m, n, k, at.data(), b.data(), c1.data());
        sgemm(false, false, m, n, k, a.data(), b.data(), c2.data());
        for (std::size_t i = 0; i < c1.size(); ++i)
            EXPECT_NEAR(c1[i], c2[i], 1e-5);
    });
}

TEST(Sgemm, TransposeB)
{
    forEachKernelTier([] {
        const std::size_t m = 3, n = 2, k = 5;
        Rng rng(4);
        std::vector<float> a(m * k), bt(n * k), b(k * n);
        for (auto &x : a)
            x = float(rng.uniform(-1, 1));
        for (auto &x : bt)
            x = float(rng.uniform(-1, 1));
        for (std::size_t p = 0; p < k; ++p)
            for (std::size_t j = 0; j < n; ++j)
                b[p * n + j] = bt[j * k + p];
        std::vector<float> c1(m * n), c2(m * n);
        sgemm(false, true, m, n, k, a.data(), bt.data(), c1.data());
        sgemm(false, false, m, n, k, a.data(), b.data(), c2.data());
        for (std::size_t i = 0; i < c1.size(); ++i)
            EXPECT_NEAR(c1[i], c2[i], 1e-5);
    });
}

TEST(Sgemm, BetaAccumulates)
{
    forEachKernelTier([] {
        const std::size_t m = 2, n = 2, k = 2;
        std::vector<float> a{1, 0, 0, 1}, b{1, 2, 3, 4};
        std::vector<float> c{10, 10, 10, 10};
        sgemm(false, false, m, n, k, a.data(), b.data(), c.data(), 1.0f);
        EXPECT_FLOAT_EQ(c[0], 11.0f);
        EXPECT_FLOAT_EQ(c[3], 14.0f);
    });
}

// ------------------------------------------------------------- im2col

TEST(ConvGeom, OutputDims)
{
    // AlexNet CONV1 geometry: 227 input, 11x11, stride 4 -> 55.
    ConvGeom g{3, 227, 227, 11, 4, 0};
    EXPECT_EQ(g.outH(), 55u);
    EXPECT_EQ(g.outW(), 55u);
    EXPECT_EQ(g.colRows(), 363u);
}

TEST(ConvGeom, PaddedSameDims)
{
    ConvGeom g{16, 13, 13, 3, 1, 1};
    EXPECT_EQ(g.outH(), 13u);
    EXPECT_EQ(g.outW(), 13u);
}

TEST(Im2col, IdentityKernelCopiesPixels)
{
    // 1x1 kernel: the cols matrix is the image itself flattened.
    Tensor x(1, 2, 3, 3);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = float(i);
    ConvGeom g{2, 3, 3, 1, 1, 0};
    std::vector<float> cols;
    im2col(x, 0, g, cols);
    ASSERT_EQ(cols.size(), 2u * 9u);
    for (std::size_t i = 0; i < cols.size(); ++i)
        EXPECT_FLOAT_EQ(cols[i], float(i));
}

TEST(Im2col, ZeroPaddingProducesZeros)
{
    Tensor x(1, 1, 2, 2);
    x.fill(1.0f);
    ConvGeom g{1, 2, 2, 3, 1, 1};
    std::vector<float> cols;
    im2col(x, 0, g, cols);
    // Output 2x2; the (0,0) position's top-left tap is padding.
    EXPECT_FLOAT_EQ(cols[0 * 4 + 0], 0.0f);
    // Center tap of (0,0) is the pixel (0,0).
    EXPECT_FLOAT_EQ(cols[4 * 4 + 0], 1.0f);
}

/** A float with the given bit pattern (NaN payloads, signed zeros). */
float
fromBits(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

// The staged im2col (zero-bordered plane copy, fixed-offset taps)
// writes exactly the bits of the row-wise reference it replaced, for
// every kernel/stride/pad mix, channel window and plane shape —
// including NaN payloads and signed zeros, which a copy must carry
// through untouched. Each side starts from a different NaN sentinel,
// so a cell the staged version forgets to write cannot match.
TEST(Im2col, StagedMatchesRowwiseReferenceBitwise)
{
    Rng rng(41);
    const float specials[] = {
        fromBits(0x7fc01234u), // quiet NaN, payload
        fromBits(0xffc00abcu), // negative quiet NaN, payload
        fromBits(0x7f800001u), // signaling NaN
        0.0f,
        -0.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
    };
    struct Plane
    {
        std::size_t h, w;
    };
    const Plane planes[] = {{1, 1}, {7, 7}, {5, 9}, {16, 12}, {13, 13}};
    // (window width, offset) into a 5-channel tensor: the whole
    // tensor, and grouped windows at both ends.
    const std::size_t windows[][2] = {{5, 0}, {2, 0}, {3, 2}};
    std::size_t checked = 0;
    for (const Plane &pl : planes) {
        Tensor x(2, 5, pl.h, pl.w);
        x.fillGaussian(rng, 0, 1);
        for (std::size_t i = 0; i < x.size(); i += 7)
            x[i] = specials[(i / 7) % std::size(specials)];
        for (std::size_t kernel : {1, 3, 5, 11}) {
            for (std::size_t stride : {1, 2, 4}) {
                for (std::size_t pad : {0, 1, 2}) {
                    if (pl.h + 2 * pad < kernel || pl.w + 2 * pad < kernel)
                        continue;
                    for (const auto &win : windows) {
                        const ConvGeom g{win[0], pl.h, pl.w, kernel,
                                         stride, pad};
                        const std::size_t n =
                            g.colRows() * g.outH() * g.outW();
                        std::vector<float> want(n, fromBits(0x7fa00001u));
                        std::vector<float> got(n, fromBits(0x7fa00002u));
                        referenceIm2col(x, 1, g, want, win[1]);
                        im2col(x, 1, g, got, win[1]);
                        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                                 n * sizeof(float)))
                            << "plane " << pl.h << "x" << pl.w
                            << " kernel " << kernel << " stride "
                            << stride << " pad " << pad << " channels "
                            << win[0] << "@" << win[1];
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 300u);
}

TEST(Im2colAt, SubsetMatchesFull)
{
    Rng rng(9);
    Tensor x(1, 3, 8, 8);
    x.fillGaussian(rng, 0, 1);
    ConvGeom g{3, 8, 8, 3, 1, 1};
    std::vector<float> full, part;
    im2col(x, 0, g, full);
    const std::vector<std::size_t> pos{0, 5, 17, 63};
    im2colAt(x, 0, g, pos, part);
    const std::size_t rows = g.colRows();
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t i = 0; i < pos.size(); ++i)
            ASSERT_FLOAT_EQ(part[r * pos.size() + i],
                            full[r * 64 + pos[i]]);
}

TEST(Col2im, AdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> — the operators are adjoint,
    // which is exactly what the conv backward pass relies on.
    Rng rng(10);
    Tensor x(1, 2, 5, 5);
    x.fillGaussian(rng, 0, 1);
    ConvGeom g{2, 5, 5, 3, 2, 1};
    std::vector<float> cols;
    im2col(x, 0, g, cols);

    std::vector<float> y(cols.size());
    for (auto &v : y)
        v = float(rng.uniform(-1, 1));

    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.size(); ++i)
        lhs += double(cols[i]) * double(y[i]);

    Tensor xback(x.shape());
    col2im(y, 0, g, xback);
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        rhs += double(x[i]) * double(xback[i]);

    EXPECT_NEAR(lhs, rhs, 1e-3);
}

// -------------------------------------------------- softmax / entropy

TEST(Softmax, RowsSumToOne)
{
    Rng rng(2);
    Tensor logits(4, 6, 1, 1);
    logits.fillGaussian(rng, 0, 3);
    const Tensor p = softmax(logits);
    for (std::size_t i = 0; i < 4; ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < 6; ++j) {
            s += p.data()[i * 6 + j];
            EXPECT_GT(p.data()[i * 6 + j], 0.0f);
        }
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Softmax, NumericallyStableOnLargeLogits)
{
    Tensor logits(1, 3, 1, 1);
    logits[0] = 1000.0f;
    logits[1] = 999.0f;
    logits[2] = -1000.0f;
    const Tensor p = softmax(logits);
    EXPECT_TRUE(std::isfinite(p[0]));
    EXPECT_GT(p[0], p[1]);
    EXPECT_NEAR(p[2], 0.0f, 1e-6);
}

TEST(Entropy, UniformIsLogK)
{
    const std::vector<float> u(8, 0.125f);
    EXPECT_NEAR(entropy(u.data(), 8), std::log(8.0), 1e-6);
}

TEST(Entropy, OneHotIsZero)
{
    const std::vector<float> p{1.0f, 0.0f, 0.0f};
    EXPECT_DOUBLE_EQ(entropy(p.data(), 3), 0.0);
}

TEST(Entropy, PaperExampleOrdering)
{
    // Section II.B: H(0.4,0.4,0.2) > H(0.7,0.2,0.1).
    const std::vector<float> p1{0.4f, 0.4f, 0.2f};
    const std::vector<float> p2{0.7f, 0.2f, 0.1f};
    EXPECT_GT(entropy(p1.data(), 3), entropy(p2.data(), 3));
}

TEST(BatchEntropy, AveragesRows)
{
    Tensor p(2, 2, 1, 1);
    p[0] = 0.5f;
    p[1] = 0.5f; // H = log 2
    p[2] = 1.0f;
    p[3] = 0.0f; // H = 0
    EXPECT_NEAR(batchEntropy(p), std::log(2.0) / 2.0, 1e-6);
}

TEST(Argmax, FindsLargest)
{
    const std::vector<float> row{0.1f, 0.7f, 0.2f};
    EXPECT_EQ(argmax(row.data(), 3), 1u);
}

TEST(ArgmaxRows, PerItem)
{
    Tensor t(2, 3, 1, 1);
    t[0] = 1;
    t[1] = 2;
    t[2] = 0;
    t[3] = 9;
    t[4] = 1;
    t[5] = 2;
    const auto idx = argmaxRows(t);
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 1u);
    EXPECT_EQ(idx[1], 0u);
}

} // namespace
} // namespace pcnn
