#include "nn/conv_spec.hh"

#include "common/logging.hh"
#include "tensor/winograd.hh"

namespace pcnn {

const char *
convAlgoName(ConvAlgo a)
{
    switch (a) {
    case ConvAlgo::Im2col:
        return "im2col";
    case ConvAlgo::Direct1x1:
        return "direct1x1";
    case ConvAlgo::Winograd:
        return "winograd";
    }
    return "invalid";
}

ConvGeom
ConvSpec::geom() const
{
    pcnn_assert(groups >= 1 && inC % groups == 0 && outC % groups == 0,
                "layer ", name, ": channels not divisible by groups");
    return ConvGeom{inC, inH, inW, kernel, stride, pad};
}

double
ConvSpec::flopsPerImage() const
{
    // Eq. 1, applied per group: each group's GEMM is
    // (N_f/g) x (S_f^2 N_c/g) x (W_o H_o), and there are g of them.
    const double m = double(outC) / double(groups);
    const double k =
        double(kernel) * double(kernel) * double(inC) / double(groups);
    const double n = double(outH()) * double(outW());
    return 2.0 * m * k * n * double(groups);
}

GemmShape
ConvSpec::gemmShape(std::size_t batch,
                    std::size_t positions_per_image) const
{
    const std::size_t full = outH() * outW();
    const std::size_t pos =
        positions_per_image == 0 ? full : positions_per_image;
    pcnn_assert(pos <= full, "layer ", name, ": ", pos,
                " computed positions exceed output grid ", full);
    GemmShape g;
    g.m = outC / groups;
    g.k = kernel * kernel * (inC / groups);
    g.n = pos * batch;
    return g;
}

std::size_t
ConvSpec::weightCount() const
{
    return outC * (inC / groups) * kernel * kernel + outC;
}

bool
ConvSpec::algoEligible(ConvAlgo a) const
{
    switch (a) {
    case ConvAlgo::Im2col:
        return true;
    case ConvAlgo::Direct1x1:
        return kernel == 1 && stride == 1 && pad == 0;
    case ConvAlgo::Winograd:
        return winogradApplicable(geom());
    }
    return false;
}

std::size_t
ConvSpec::winogradTiles() const
{
    return winogradTileRows(outH()) * winogradTileCols(outW());
}

GemmShape
ConvSpec::winogradGemmShape(std::size_t batch) const
{
    GemmShape g;
    g.m = winogradTiles() * batch;
    g.n = outC / groups;
    g.k = inC / groups;
    return g;
}

double
ConvSpec::winogradTransformElems(std::size_t batch) const
{
    const double per_group = 16.0 * double(winogradTiles()) *
                             (double(inC) + double(outC)) /
                             double(groups);
    return double(batch) *
           (per_group * double(groups) +
            double(inputSizePerImage()) +
            double(outputSizePerImage()));
}

ConvAlgo
selectConvAlgo(const ConvSpec &spec)
{
    // A 1x1 channel mixer is the im2col GEMM minus the im2col pass:
    // strictly cheaper whenever it applies.
    if (spec.algoEligible(ConvAlgo::Direct1x1))
        return ConvAlgo::Direct1x1;
    if (!spec.algoEligible(ConvAlgo::Winograd))
        return ConvAlgo::Im2col;

    // im2col vs winograd. A pure MAC-count model (winograd replaces
    // 36 MACs per 2x2 output tile with 16) mispredicts badly on the
    // CPU substrate, because the two lowerings sit in different
    // efficiency regimes; the per-algorithm conv-layer sweep in
    // BENCH_pr4.json shows three of them:
    //
    //  - Small output grids (few SGEMM columns): im2col's narrow-N
    //    GEMM amortizes its panel packing poorly and the expansion
    //    pass is pure overhead, while winograd's handful of tiles
    //    transform out of L1. Winograd wins 1.4-1.8x.
    //  - Deep inputs: the 2.25x MAC saving dominates everything
    //    else. Winograd wins 1.5-3.5x.
    //  - In between, im2col's single deep-K GEMM runs near peak out
    //    of cache and winograd's 16 shallow tile-GEMMs plus strided
    //    transforms cannot keep up: im2col wins up to 1.8x.
    //
    // The thresholds below are the calibrated regime boundaries;
    // they are intentionally coarse (the measured landscape is not a
    // smooth function of the shape), and shallow inputs never take
    // winograd — the transforms outweigh a K <= 8 tile-GEMM.
    const std::size_t in_cg = spec.inC / spec.groups;
    const std::size_t pos = spec.outH() * spec.outW();

    constexpr std::size_t kWinoMinDepth = 8;   // K floor, channels
    constexpr std::size_t kWinoSmallGrid = 128; // positions/group
    constexpr std::size_t kWinoDeepDepth = 64; // channels

    if (in_cg < kWinoMinDepth)
        return ConvAlgo::Im2col;
    if (pos <= kWinoSmallGrid || in_cg >= kWinoDeepDepth)
        return ConvAlgo::Winograd;
    return ConvAlgo::Im2col;
}

} // namespace pcnn
