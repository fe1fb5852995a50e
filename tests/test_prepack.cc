/**
 * @file
 * Tests for the zero-repack inference hot path: persistent packed
 * weight panels, generation-counter cache invalidation, the 1x1
 * im2col-free fast path, and grow-only conv scratch reuse. Every
 * comparison here is bitwise (EXPECT_EQ on floats), because the
 * packed path is documented to be bit-identical to the reference
 * SGEMM — see DESIGN.md section 5d.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/parallel.hh"
#include "common/random.hh"
#include "conv_algo_pin.hh"
#include "kernel_tier_sweep.hh"
#include "nn/conv_layer.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/serialize.hh"
#include "tensor/tensor.hh"
#include "tensor/tensor_ops.hh"
#include "train/sgd.hh"

namespace pcnn {
namespace {

std::vector<float>
randomVec(std::size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = float(rng.uniform(-1.0, 1.0));
    return v;
}

// ---------------------------------------------- prepacked vs. sgemm

/**
 * sgemmPrepacked(A, pack(op(B))) must be bitwise identical to
 * sgemm(A, op(B)) for both B orientations, at every thread count:
 * the packed panel holds exactly the values the reference path
 * materializes internally, and per-cell accumulation order is a pure
 * k-walk regardless of partitioning.
 */
TEST(Prepack, MatchesReferenceSgemmBitwiseAcrossThreadCounts)
{
    Rng rng(1234);
    const std::size_t m = 17, n = 23, k = 31;
    const auto a = randomVec(m * k, rng);
    const auto b_nt = randomVec(k * n, rng);  // B stored k x n
    const auto b_t = randomVec(n * k, rng);   // B stored n x k
    const auto c_seed = randomVec(m * n, rng);

    forEachKernelTier([&] {
        for (std::size_t threads : {1u, 2u, 4u}) {
            setThreadCount(threads);
            for (bool trans_b : {false, true}) {
                const float *b = trans_b ? b_t.data() : b_nt.data();

                std::vector<float> ref = c_seed;
                sgemm(false, trans_b, m, n, k, a.data(), b, ref.data(),
                      0.5f);

                // rows/cols describe op(B): k x n either way.
                PackedPanel panel;
                packWeights(trans_b, k, n, b, panel);
                EXPECT_EQ(panel.rows, k);
                EXPECT_EQ(panel.cols, n);

                std::vector<float> got = c_seed;
                sgemmPrepacked(m, n, k, a.data(), panel, got.data(),
                              0.5f);
                for (std::size_t i = 0; i < ref.size(); ++i)
                    EXPECT_EQ(ref[i], got[i])
                        << "threads=" << threads
                        << " trans_b=" << trans_b << " i=" << i;
            }
        }
    });
}

/** Repacking after a weight change must pick up the new values. */
TEST(Prepack, PackWeightsOverwritesStalePanel)
{
    Rng rng(77);
    const std::size_t rows = 6, cols = 9;
    auto w = randomVec(rows * cols, rng);

    PackedPanel panel;
    packWeights(false, rows, cols, w.data(), panel);
    w[7] += 1.0f;
    packWeights(false, rows, cols, w.data(), panel);
    EXPECT_EQ(panel.ptr()[7], w[7]);
}

// ----------------------------------------------- 1x1 fast path

ConvLayer
makeConv(Rng &rng, std::size_t in_c, std::size_t out_c,
         std::size_t kernel, std::size_t stride, std::size_t pad,
         std::size_t hw, std::size_t groups = 1)
{
    ConvSpec s;
    s.name = "t";
    s.inC = in_c;
    s.outC = out_c;
    s.kernel = kernel;
    s.stride = stride;
    s.pad = pad;
    s.inH = hw;
    s.inW = hw;
    s.groups = groups;
    return ConvLayer(s, rng);
}

/**
 * Replay a conv layer's generic (im2col) forward route outside the
 * layer: bias-seeded output planes, im2col expansion, then the same
 * beta=1 SGEMM. For a 1x1/stride-1/pad-0 layer the layer itself
 * skips im2col, so bitwise equality here proves the fast path and
 * the im2col path are interchangeable — the two routes differ only
 * in where the B panel comes from, never in kernel math.
 */
Tensor
im2colRouteReference(ConvLayer &layer, const Tensor &x)
{
    const ConvSpec &s = layer.spec();
    const std::size_t in_cg = s.inC / s.groups;
    const std::size_t out_cg = s.outC / s.groups;
    const std::size_t full = s.outH() * s.outW();
    ConvGeom g = s.geom();
    g.inC = in_cg;
    const std::size_t k = g.colRows();

    const Tensor &w = layer.params()[0]->value;
    const Tensor &b = layer.params()[1]->value;
    Tensor y(x.shape().n, s.outC, s.outH(), s.outW());
    std::vector<float> cols;
    for (std::size_t item = 0; item < x.shape().n; ++item)
        for (std::size_t grp = 0; grp < s.groups; ++grp) {
            const float *wg = w.data() +
                              grp * out_cg * in_cg * s.kernel *
                                  s.kernel;
            float *ybase = y.data() +
                           (item * s.outC + grp * out_cg) * full;
            for (std::size_t f = 0; f < out_cg; ++f)
                std::fill(ybase + f * full, ybase + (f + 1) * full,
                          b[grp * out_cg + f]);
            im2col(x, item, g, cols, grp * in_cg);
            sgemm(false, false, out_cg, full, k, wg, cols.data(),
                  ybase, 1.0f);
        }
    return y;
}

TEST(Prepack, OneByOnePassthroughPredicateAndCorrectness)
{
    forEachKernelTier([] {
        Rng rng(5);
        ConvLayer fast = makeConv(rng, 4, 6, 1, 1, 0, 5);
        EXPECT_TRUE(fast.is1x1Passthrough());
        ConvLayer strided = makeConv(rng, 4, 6, 1, 2, 0, 5);
        EXPECT_FALSE(strided.is1x1Passthrough());
        ConvLayer padded = makeConv(rng, 4, 6, 3, 1, 1, 5);
        EXPECT_FALSE(padded.is1x1Passthrough());

        Tensor x(2, 4, 5, 5);
        Rng xr(6);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = float(xr.uniform(-1.0, 1.0));
        Tensor y = fast.forward(x, false);
        Tensor want = im2colRouteReference(fast, x);
        ASSERT_EQ(y.size(), want.size());
        for (std::size_t i = 0; i < y.size(); ++i)
            EXPECT_EQ(want[i], y[i]) << "i=" << i;
    });
}

/** Grouped 1x1 convs take the fast path per group. */
TEST(Prepack, Grouped1x1MatchesIm2colRoute)
{
    forEachKernelTier([] {
        Rng rng(9);
        ConvLayer conv = makeConv(rng, 6, 8, 1, 1, 0, 4, /*groups=*/2);
        EXPECT_TRUE(conv.is1x1Passthrough());

        Tensor x(3, 6, 4, 4);
        Rng xr(10);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = float(xr.uniform(-1.0, 1.0));
        Tensor y = conv.forward(x, false);
        Tensor want = im2colRouteReference(conv, x);
        ASSERT_EQ(y.size(), want.size());
        for (std::size_t i = 0; i < y.size(); ++i)
            EXPECT_EQ(want[i], y[i]) << "i=" << i;
    });
}

// ------------------------------------- cache invalidation protocol

/**
 * Forward, SGD-step, forward again: the second forward must use the
 * post-step weights, i.e. the packed caches must notice the update.
 * Cross-check against a twin network built from the same seed whose
 * weights are overwritten to the post-step values before its FIRST
 * forward (so its caches are built fresh from those weights). Runs
 * on every conv route, so the winograd transform panels are held to
 * the protocol alongside the packed GEMM panels.
 */
TEST(Prepack, SgdStepInvalidatesPackedCaches)
{
    Rng xr(22);
    Tensor x(1, 1, 16, 16);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = float(xr.uniform(-1.0, 1.0));

    forEachKernelTier([&] {
        for (const std::optional<ConvAlgo> &route : networkConvRoutes()) {
            SCOPED_TRACE(convRouteName(route));
            Rng rng_a(21);
            Network a = makeMiniInception(rng_a);
            pinConvRoute(a, route);

            // Warm a's packed caches, then train one step.
            (void)a.forward(x, false);
            Tensor logits = a.forward(x, true);
            a.backward(logits); // any gradient signal will do
            SgdOptimizer opt(SgdConfig{});
            opt.step(a.params());
            Tensor after = a.forward(x, false);

            // Twin: identical architecture, weights forced to a's
            // post-step values before any forward, so no stale cache
            // can exist.
            Rng rng_b(21);
            Network b = makeMiniInception(rng_b);
            pinConvRoute(b, route);
            auto pa = a.params();
            auto pb = b.params();
            ASSERT_EQ(pa.size(), pb.size());
            for (std::size_t i = 0; i < pa.size(); ++i) {
                ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size());
                pb[i]->value = pa[i]->value;
                pb[i]->markUpdated();
            }
            Tensor expect = b.forward(x, false);
            ASSERT_EQ(after.size(), expect.size());
            for (std::size_t i = 0; i < after.size(); ++i)
                EXPECT_EQ(expect[i], after[i]) << "i=" << i;
        }
    });
}

/**
 * deserializeWeights must also bump the generation counters: save,
 * perturb, reload, and the next forward must be bitwise equal to the
 * pre-perturbation output even though the perturbed forward warmed
 * the packed caches with different weights. Runs on every conv
 * route.
 */
TEST(Prepack, DeserializeInvalidatesPackedCaches)
{
    Rng xr(32);
    Tensor x(2, 1, 16, 16);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = float(xr.uniform(-1.0, 1.0));

    forEachKernelTier([&] {
        for (const std::optional<ConvAlgo> &route : networkConvRoutes()) {
            SCOPED_TRACE(convRouteName(route));
            Rng rng(31);
            Network net = makeMiniAlexNet(rng);
            pinConvRoute(net, route);

            Tensor before = net.forward(x, false);
            const std::vector<std::uint8_t> snap = serializeWeights(net);

            for (Param *p : net.params()) {
                for (std::size_t i = 0; i < p->value.size(); ++i)
                    p->value[i] += 0.25f;
                p->markUpdated();
            }
            Tensor perturbed = net.forward(x, false); // warms caches anew
            bool differs = false;
            for (std::size_t i = 0; i < before.size() && !differs; ++i)
                differs = before[i] != perturbed[i];
            ASSERT_TRUE(differs);

            ASSERT_TRUE(deserializeWeights(net, snap));
            Tensor restored = net.forward(x, false);
            for (std::size_t i = 0; i < before.size(); ++i)
                EXPECT_EQ(before[i], restored[i]) << "i=" << i;
        }
    });
}

/** Hand-edits that follow the markUpdated protocol are picked up. */
TEST(Prepack, MarkUpdatedRefreshesNextForward)
{
    forEachKernelTier([] {
        Rng rng(41);
        ConvLayer conv = makeConv(rng, 3, 5, 1, 1, 0, 6);
        Tensor x(1, 3, 6, 6);
        Rng xr(42);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = float(xr.uniform(-1.0, 1.0));

        Tensor y0 = conv.forward(x, false);
        Param *w = conv.params()[0];
        const Tensor saved = w->value;
        for (std::size_t i = 0; i < w->value.size(); ++i)
            w->value[i] = -w->value[i];
        w->markUpdated();
        Tensor y1 = conv.forward(x, false);
        bool differs = false;
        for (std::size_t i = 0; i < y0.size() && !differs; ++i)
            differs = y0[i] != y1[i];
        EXPECT_TRUE(differs);

        w->value = saved;
        w->markUpdated();
        Tensor y2 = conv.forward(x, false);
        for (std::size_t i = 0; i < y0.size(); ++i)
            EXPECT_EQ(y0[i], y2[i]) << "i=" << i;
    });
}

// --------------------------------------- scratch reuse correctness

/**
 * Alternating perforated and full-resolution forwards on the same
 * layer exercises the grow-only scratch pool: a perforated pass
 * shrinks the live prefix of the im2col buffer, the following full
 * pass must still be bitwise identical to a cold layer's output.
 */
TEST(Prepack, AlternatingPerforationKeepsFullPassBitwise)
{
    Tensor x(2, 3, 8, 8);
    Rng xr(52);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = float(xr.uniform(-1.0, 1.0));

    Rng rng_probe(51);
    const ConvSpec spec = makeConv(rng_probe, 3, 6, 3, 1, 1, 8).spec();
    // The perforated passes always run im2col; the full passes run
    // each eligible route on the scratch they left behind.
    forEachKernelTier([&] {
        for (ConvAlgo algo : eligibleConvAlgos(spec)) {
            Rng rng_a(51);
            ConvLayer conv = makeConv(rng_a, 3, 6, 3, 1, 1, 8);
            conv.setAlgo(algo);
            Rng rng_b(51);
            ConvLayer cold = makeConv(rng_b, 3, 6, 3, 1, 1, 8);
            cold.setAlgo(algo);

            const Tensor want = cold.forward(x, false);
            for (int round = 0; round < 3; ++round) {
                conv.setComputedPositions(conv.fullPositions() / 4);
                (void)conv.forward(x, false);
                conv.setComputedPositions(0); // back to full
                Tensor full = conv.forward(x, false);
                ASSERT_EQ(full.size(), want.size());
                for (std::size_t i = 0; i < full.size(); ++i)
                    EXPECT_EQ(want[i], full[i])
                        << convAlgoName(algo) << " round=" << round
                        << " i=" << i;
            }
        }
    });
}

} // namespace
} // namespace pcnn
