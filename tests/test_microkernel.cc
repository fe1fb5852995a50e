/**
 * @file
 * Micro-kernel tier dispatch and cache-blocked SGEMM contracts
 * (DESIGN.md §5g): per-tier bitwise determinism across thread counts,
 * cross-tier numerical agreement within explicit budgets, the
 * narrow-N portable fallback, blocking overrides, and the detection /
 * dispatch plumbing itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/parallel.hh"
#include "common/random.hh"
#include "kernel_tier_sweep.hh"
#include "tensor/microkernel.hh"
#include "tensor/tensor_ops.hh"
#include "tolerance.hh"

namespace pcnn {
namespace {

std::vector<float>
randomVec(std::size_t n, Rng &rng, double lo = -1.0, double hi = 1.0)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = float(rng.uniform(lo, hi));
    return v;
}

/** Run sgemm at the current tier/blocking with `threads` lanes. */
std::vector<float>
runSgemm(std::size_t m, std::size_t n, std::size_t k,
         const std::vector<float> &a, const std::vector<float> &b,
         std::size_t threads, const Epilogue &epi = {})
{
    setThreadCount(threads);
    std::vector<float> c(m * n, 0.0f);
    sgemm(false, false, m, n, k, a.data(), b.data(), c.data(), 0.0f,
          epi);
    return c;
}

/** Reference O(mnk) product with double accumulation. */
std::vector<float>
naiveGemm(std::size_t m, std::size_t n, std::size_t k,
          const std::vector<float> &a, const std::vector<float> &b)
{
    std::vector<float> c(m * n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p)
                acc += double(a[i * k + p]) * double(b[p * n + j]);
            c[i * n + j] = float(acc);
        }
    }
    return c;
}

// Odd in every dimension: remainders against every tier's mr/nr and
// against the small blocking below, so full tiles, edge tiles, and
// partial Kc chunks all execute.
constexpr std::size_t kM = 53, kN = 67, kK = 41;

// Small enough that the 53x67 problem spans several Kc chunks, Mc
// blocks, and Nc panels (the full hierarchy, not one block).
const GemmBlocking kTinyBlocking{16, 24, 32, 0};

TEST(Microkernel, SupportedTiersNeverEmptyPortableFirst)
{
    const std::vector<KernelTier> tiers = supportedKernelTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), KernelTier::Portable);
    for (KernelTier t : tiers)
        EXPECT_TRUE(kernelTierSupported(t));
    EXPECT_EQ(bestKernelTier(), tiers.back());
    EXPECT_TRUE(kernelTierSupported(activeKernelTier()));
}

TEST(Microkernel, TierNamesRoundTrip)
{
    for (KernelTier t :
         {KernelTier::Portable, KernelTier::Neon, KernelTier::Avx2,
          KernelTier::Avx512}) {
        KernelTier parsed;
        ASSERT_TRUE(parseKernelTier(kernelTierName(t), parsed));
        EXPECT_EQ(parsed, t);
    }
    KernelTier t;
    EXPECT_FALSE(parseKernelTier("", t));
    EXPECT_FALSE(parseKernelTier("auto", t));
    EXPECT_FALSE(parseKernelTier("AVX2 ", t));
}

TEST(Microkernel, MicroKernelShapesWithinEdgeScratchBound)
{
    for (KernelTier t : supportedKernelTiers()) {
        const MicroKernel &mk = microKernelFor(t);
        EXPECT_EQ(mk.tier, t);
        EXPECT_GE(mk.mr, 1u);
        EXPECT_GE(mk.nr, 1u);
        EXPECT_LE(mk.mr, kMaxMicroMR);
        EXPECT_LE(mk.nr, kMaxMicroNR);
        EXPECT_NE(mk.full, nullptr);
        EXPECT_NE(mk.edge, nullptr);
    }
}

TEST(Microkernel, DefaultBlockingAlignedAndNonzero)
{
    for (KernelTier t : supportedKernelTiers()) {
        const MicroKernel &mk = microKernelFor(t);
        const GemmBlocking blk = defaultBlocking(t);
        EXPECT_GE(blk.kc, 1u);
        EXPECT_GE(blk.mc, mk.mr);
        EXPECT_GE(blk.nc, mk.nr);
        EXPECT_EQ(blk.mc % mk.mr, 0u);
        EXPECT_EQ(blk.nc % mk.nr, 0u);
    }
}

// The load-bearing contract: at a fixed tier and blocking, results
// are bitwise identical for every thread count, with odd M/N/K
// remainders in play.
TEST(Microkernel, EveryTierBitwiseAcrossThreadCounts)
{
    DispatchStateGuard guard;
    Rng rng(7);
    const auto a = randomVec(kM * kK, rng);
    const auto b = randomVec(kK * kN, rng);
    for (KernelTier tier : supportedKernelTiers()) {
        SCOPED_TRACE(kernelTierName(tier));
        setKernelTier(tier);
        setBlocking(kTinyBlocking);
        const auto c1 = runSgemm(kM, kN, kK, a, b, 1);
        const auto c2 = runSgemm(kM, kN, kK, a, b, 2);
        const auto c4 = runSgemm(kM, kN, kK, a, b, 4);
        EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(),
                                 c1.size() * sizeof(float)));
        EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(),
                                 c1.size() * sizeof(float)));
    }
}

// Same contract with the fused bias+ReLU epilogue in the store pass.
TEST(Microkernel, EveryTierBitwiseAcrossThreadsWithEpilogue)
{
    DispatchStateGuard guard;
    Rng rng(11);
    const auto a = randomVec(kM * kK, rng);
    const auto b = randomVec(kK * kN, rng);
    const auto bias = randomVec(kM, rng);
    Epilogue epi;
    epi.op = EpilogueOp::BiasRelu;
    epi.bias = bias.data();
    for (KernelTier tier : supportedKernelTiers()) {
        SCOPED_TRACE(kernelTierName(tier));
        setKernelTier(tier);
        setBlocking(kTinyBlocking);
        const auto c1 = runSgemm(kM, kN, kK, a, b, 1, epi);
        const auto c4 = runSgemm(kM, kN, kK, a, b, 4, epi);
        EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(),
                                 c1.size() * sizeof(float)));
    }
}

// Every tier is *correct* against an O(mnk) double-accumulated
// reference, under a deliberately weird (unaligned to any tier)
// blocking override.
TEST(Microkernel, EveryTierMatchesNaiveReference)
{
    DispatchStateGuard guard;
    Rng rng(13);
    const auto a = randomVec(kM * kK, rng);
    const auto b = randomVec(kK * kN, rng);
    const auto want = naiveGemm(kM, kN, kK, a, b);
    for (KernelTier tier : supportedKernelTiers()) {
        SCOPED_TRACE(kernelTierName(tier));
        setKernelTier(tier);
        setBlocking(GemmBlocking{13, 19, 23, 3});
        const auto got = runSgemm(kM, kN, kK, a, b, 2);
        EXPECT_TRUE(allClose(want, got, 1e-4));
    }
}

// Cross-tier agreement, "almost bitwise" flavor: on positive data
// (no cancellation) every tier stays within a small ULP envelope of
// the portable kernel despite FMA contraction and different Kc
// association.
TEST(Microkernel, TiersAgreeWithPortableWithinUlps)
{
    DispatchStateGuard guard;
    Rng rng(17);
    const auto a = randomVec(kM * kK, rng, 0.5, 1.5);
    const auto b = randomVec(kK * kN, rng, 0.5, 1.5);
    setKernelTier(KernelTier::Portable);
    setBlocking(kTinyBlocking);
    const auto want = runSgemm(kM, kN, kK, a, b, 1);
    for (KernelTier tier : supportedKernelTiers()) {
        if (tier == KernelTier::Portable)
            continue;
        SCOPED_TRACE(kernelTierName(tier));
        setKernelTier(tier);
        setBlocking(kTinyBlocking);
        const auto got = runSgemm(kM, kN, kK, a, b, 1);
        EXPECT_TRUE(allCloseUlp(want.data(), got.data(), want.size(),
                                64));
    }
}

// Cross-tier agreement, mixed-sign flavor: cancellation voids a
// tight ULP bound, so the budget is relative with an absolute floor.
TEST(Microkernel, TiersAgreeWithPortableRelative)
{
    DispatchStateGuard guard;
    Rng rng(19);
    const auto a = randomVec(kM * kK, rng);
    const auto b = randomVec(kK * kN, rng);
    setKernelTier(KernelTier::Portable);
    const auto want = runSgemm(kM, kN, kK, a, b, 1);
    for (KernelTier tier : supportedKernelTiers()) {
        SCOPED_TRACE(kernelTierName(tier));
        setKernelTier(tier);
        const auto got = runSgemm(kM, kN, kK, a, b, 1);
        EXPECT_TRUE(allClose(want, got, 1e-4, 1e-3));
    }
}

// Products narrower than the active tier's register tile (winograd
// tile-GEMMs, narrow FC heads) fall back to the portable kernel, so
// their bits match the portable tier exactly — on every tier.
TEST(Microkernel, NarrowNFallsBackToPortableBitwise)
{
    DispatchStateGuard guard;
    Rng rng(23);
    const std::size_t m = 40, k = 33;
    for (KernelTier tier : supportedKernelTiers()) {
        const std::size_t narrow = microKernelFor(tier).nr - 1;
        const auto a = randomVec(m * k, rng);
        const auto b = randomVec(k * narrow, rng);
        setKernelTier(KernelTier::Portable);
        const auto want = runSgemm(m, narrow, k, a, b, 1);
        SCOPED_TRACE(kernelTierName(tier));
        setKernelTier(tier);
        const auto got = runSgemm(m, narrow, k, a, b, 1);
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(float)));
    }
}

// Edge tiles run each cell through the full kernel's exact chain, so
// a product with row and column remainders equals, cell for cell, the
// same product zero-padded to whole register tiles (where only the
// full kernel runs). Every m mod mr and n mod nr remainder is covered
// on every tier, with n >= nr so the narrow-N fallback stays out, and
// K spans three Kc chunks so the c + acc store runs once per chunk.
TEST(Microkernel, EdgeTilesMatchFullTileBitwise)
{
    DispatchStateGuard guard;
    setThreadCount(1);
    Rng rng(31);
    const std::size_t k = 37;
    struct Case
    {
        float beta;
        EpilogueOp op;
    };
    const Case cases[] = {{0.0f, EpilogueOp::None},
                          {1.0f, EpilogueOp::None},
                          {0.0f, EpilogueOp::Bias},
                          {1.0f, EpilogueOp::BiasRelu}};
    for (KernelTier tier : supportedKernelTiers()) {
        const MicroKernel &mk = microKernelFor(tier);
        setKernelTier(tier);
        setBlocking(kTinyBlocking);
        for (std::size_t rm = 0; rm < mk.mr; ++rm) {
            for (std::size_t rn = 0; rn < mk.nr; ++rn) {
                const std::size_t m = 2 * mk.mr + rm, n = mk.nr + rn;
                const std::size_t mp = rm == 0 ? m : m + mk.mr - rm;
                const std::size_t np = rn == 0 ? n : n + mk.nr - rn;
                const auto a = randomVec(m * k, rng);
                const auto b = randomVec(k * n, rng);
                const auto c0 = randomVec(m * n, rng);
                const auto bias = randomVec(m, rng);
                std::vector<float> ap(mp * k, 0.0f), bp(k * np, 0.0f),
                    cp0(mp * np, 0.0f), biasp(mp, 0.0f);
                std::copy(a.begin(), a.end(), ap.begin());
                std::copy(bias.begin(), bias.end(), biasp.begin());
                for (std::size_t p = 0; p < k; ++p)
                    std::copy_n(b.data() + p * n, n, bp.data() + p * np);
                for (std::size_t i = 0; i < m; ++i)
                    std::copy_n(c0.data() + i * n, n,
                                cp0.data() + i * np);
                for (const Case &cs : cases) {
                    SCOPED_TRACE(::testing::Message()
                                 << kernelTierName(tier) << " m=" << m
                                 << " n=" << n << " beta=" << cs.beta
                                 << " op=" << int(cs.op));
                    Epilogue epi, epip;
                    epi.op = epip.op = cs.op;
                    if (cs.op != EpilogueOp::None) {
                        epi.bias = bias.data();
                        epip.bias = biasp.data();
                    }
                    std::vector<float> c = c0, cp = cp0;
                    sgemm(false, false, m, n, k, a.data(), b.data(),
                          c.data(), cs.beta, epi);
                    sgemm(false, false, mp, np, k, ap.data(), bp.data(),
                          cp.data(), cs.beta, epip);
                    std::size_t diff = 0;
                    for (std::size_t i = 0; i < m; ++i)
                        diff += std::memcmp(c.data() + i * n,
                                            cp.data() + i * np,
                                            n * sizeof(float)) != 0;
                    ASSERT_EQ(diff, 0u) << "rows differ from the padded "
                                           "product";
                }
            }
        }
    }
}

// The prepacked hot path dispatches through the same tier with the
// same accumulation order: bitwise identical to plain sgemm per tier.
TEST(Microkernel, PrepackedBitwiseIdenticalPerTier)
{
    DispatchStateGuard guard;
    Rng rng(29);
    const auto a = randomVec(kM * kK, rng);
    const auto b = randomVec(kK * kN, rng);
    PackedPanel panel;
    packWeights(false, kK, kN, b.data(), panel);
    for (KernelTier tier : supportedKernelTiers()) {
        SCOPED_TRACE(kernelTierName(tier));
        setKernelTier(tier);
        setThreadCount(2);
        std::vector<float> plain(kM * kN, 0.0f), packed(kM * kN, 0.0f);
        sgemm(false, false, kM, kN, kK, a.data(), b.data(),
              plain.data());
        sgemmPrepacked(kM, kN, kK, a.data(), panel, packed.data());
        EXPECT_EQ(0, std::memcmp(plain.data(), packed.data(),
                                 plain.size() * sizeof(float)));
    }
}

// setKernelTier/setBlocking pins are visible and resettable.
TEST(Microkernel, PinAndResetDispatchState)
{
    DispatchStateGuard guard;
    EXPECT_FALSE(kernelTierPinned());
    EXPECT_FALSE(blockingPinned());
    setKernelTier(KernelTier::Portable);
    EXPECT_TRUE(kernelTierPinned());
    EXPECT_EQ(activeKernelTier(), KernelTier::Portable);
    const GemmBlocking blk{48, 40, 64, 4};
    setBlocking(blk);
    EXPECT_TRUE(blockingPinned());
    EXPECT_TRUE(activeBlocking() == blk);
    resetKernelTier();
    resetBlocking();
    EXPECT_FALSE(kernelTierPinned());
    EXPECT_FALSE(blockingPinned());
    EXPECT_EQ(activeKernelTier(), bestKernelTier());
}

} // namespace
} // namespace pcnn
