/**
 * @file
 * Tests for inference ReLU folding and the fused SGEMM epilogues
 * behind it. The folding contract (DESIGN.md §5e): at inference, the
 * compiled graph's fuse-relu pass runs a Conv/Fc layer followed by a
 * ReLU layer as the producer's fused-epilogue forward and drops the
 * ReLU op; the result is BITWISE identical to the unfused pair
 * (tests/unfused_reference.hh), because the epilogue clamps exactly
 * the sums the separate ReLU pass would have seen. Training-mode
 * forwards never fold (the ReLU layer must cache its mask for
 * backward).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>

#include "common/random.hh"
#include "conv_algo_pin.hh"
#include "kernel_tier_sweep.hh"
#include "nn/conv_layer.hh"
#include "nn/fc_layer.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/relu_layer.hh"
#include "tensor/tensor.hh"
#include "unfused_reference.hh"

namespace pcnn {
namespace {

ConvSpec
convSpec(std::size_t in_c, std::size_t out_c, std::size_t kernel,
         std::size_t stride, std::size_t pad, std::size_t hw)
{
    ConvSpec s;
    s.name = "c";
    s.inC = in_c;
    s.outC = out_c;
    s.kernel = kernel;
    s.stride = stride;
    s.pad = pad;
    s.inH = hw;
    s.inW = hw;
    return s;
}

Tensor
randomInput(std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::uint64_t seed)
{
    Tensor x(n, c, h, w);
    Rng rng(seed);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = float(rng.uniform(-1.0, 1.0));
    return x;
}

void
expectBitwise(const Tensor &want, const Tensor &got,
              const std::string &what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(want[i], got[i]) << what << " i=" << i;
}

/** Folded vs. unfolded conv+relu on one pinned algorithm, per tier. */
void
checkConvReluFold(ConvAlgo algo, std::size_t kernel,
                  std::size_t pad)
{
    forEachKernelTier([&] {
        Rng rng(7 + std::size_t(algo));
        Network net("t", Shape{1, 4, 8, 8});
        net.add<ConvLayer>(convSpec(4, 6, kernel, 1, pad, 8), rng);
        net.add<ReluLayer>("relu0");
        net.convLayers()[0]->setAlgo(algo);

        const Tensor x = randomInput(2, 4, 8, 8, 11);
        const Tensor unfolded = unfusedReference(net, x);
        const Tensor folded = net.forward(x, false);
        expectBitwise(unfolded, folded, convAlgoName(algo));

        // The clamp really ran: a ReLU'd output has no negatives.
        for (std::size_t i = 0; i < folded.size(); ++i)
            ASSERT_GE(folded[i], 0.0f) << "i=" << i;
    });
}

TEST(Fusion, ConvReluFoldBitwiseIm2col)
{
    checkConvReluFold(ConvAlgo::Im2col, 3, 1);
}

TEST(Fusion, ConvReluFoldBitwiseDirect1x1)
{
    checkConvReluFold(ConvAlgo::Direct1x1, 1, 0);
}

TEST(Fusion, ConvReluFoldBitwiseWinograd)
{
    // Winograd computes the same sums pre-clamp in its own order, so
    // folded-vs-unfolded is bitwise *within* the winograd route too.
    checkConvReluFold(ConvAlgo::Winograd, 3, 1);
}

TEST(Fusion, FcReluFoldBitwise)
{
    forEachKernelTier([] {
        Rng rng(21);
        Network net("t", Shape{1, 3, 4, 4});
        net.add<FcLayer>("fc0", 3 * 4 * 4, 10, rng);
        net.add<ReluLayer>("relu0");

        const Tensor x = randomInput(3, 3, 4, 4, 22);
        const Tensor unfolded = unfusedReference(net, x);
        const Tensor folded = net.forward(x, false);
        expectBitwise(unfolded, folded, "fc");
        for (std::size_t i = 0; i < folded.size(); ++i)
            ASSERT_GE(folded[i], 0.0f);
    });
}

/**
 * Fold one zoo network's pairs on one route and compare against the
 * unfolded chain. Folded and unfolded forwards run the same
 * algorithm on every layer, so the comparison is bitwise on every
 * route: cost-model dispatch (std::nullopt), or one algorithm pinned
 * on every eligible conv the way a plan would. Runs on every tier.
 */
void
checkZooFold(bool inception, std::size_t seed, std::size_t batch,
             const std::optional<ConvAlgo> &route)
{
    forEachKernelTier([&] {
        Rng rng(seed);
        Network net = inception ? makeMiniInception(rng) : makeMiniVgg(rng);
        EXPECT_EQ(pinConvRoute(net, route) > 0, route.has_value());
        const Tensor x = randomInput(batch, 1, 16, 16, seed + 1);
        expectBitwise(unfusedReference(net, x), net.forward(x, false),
                      net.name() + " " + convRouteName(route));
    });
}

/**
 * A folded pair inside a whole network: MiniVgg has conv+relu and
 * fc+relu pairs plus pooling between them. Pinning the algorithm on
 * every eligible conv keeps the comparison bitwise end to end.
 */
TEST(Fusion, MiniVggFoldedVsUnfoldedBitwiseOnExactRoute)
{
    checkZooFold(false, 31, 2, ConvAlgo::Im2col);
    checkZooFold(false, 31, 2, ConvAlgo::Winograd);
}

/**
 * Same end-to-end check under cost-model dispatch: both forwards
 * dispatch each conv to the same algorithm, so still bitwise.
 */
TEST(Fusion, MiniVggFoldedVsUnfoldedAutoDispatch)
{
    checkZooFold(false, 35, 2, std::nullopt);
}

/** Inception branch chains fold their conv+relu pairs too. */
TEST(Fusion, MiniInceptionFoldedVsUnfoldedBitwise)
{
    for (const std::optional<ConvAlgo> &route : networkConvRoutes())
        checkZooFold(true, 41, 1, route);
}

/**
 * Training-mode forwards never fold: the ReLU layers must see the
 * pre-activation values and cache their masks. Network's training
 * forward is the plain layer chain, so it is bitwise equal to the
 * same chain driven by hand, and backward through the (unfolded)
 * ReLU layers produces identical gradients on both networks.
 */
TEST(Fusion, TrainingNeverFolds)
{
    forEachKernelTier([] {
        Rng rng_a(51);
        Network a = makeMiniVgg(rng_a);
        Rng rng_b(51);
        Network b = makeMiniVgg(rng_b);
        const Tensor x = randomInput(2, 1, 16, 16, 52);

        const Tensor la = a.forward(x, true);
        Tensor lb = x;
        for (std::size_t i = 0; i < b.size(); ++i)
            lb = b.layer(i).forward(lb, true);
        expectBitwise(lb, la, "train forward");

        a.backward(la);
        b.backward(lb);
        auto pa = a.params();
        auto pb = b.params();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
            ASSERT_EQ(pa[i]->grad.size(), pb[i]->grad.size());
            for (std::size_t j = 0; j < pa[i]->grad.size(); ++j)
                ASSERT_EQ(pa[i]->grad[j], pb[i]->grad[j])
                    << "param " << i << " j=" << j;
        }
    });
}

} // namespace
} // namespace pcnn
