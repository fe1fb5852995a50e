/**
 * @file
 * Inference-path query kept for the benchmark binary.
 *
 * Conv algorithm and precision are per-layer state only
 * (ConvLayer::setAlgo, ConvLayer/FcLayer::setQuantized), set from the
 * offline plan and by the accuracy tuner (DESIGN.md §5e, §5i). ReLU
 * folding is not a switch either: the compiled graph's fuse-relu
 * pass (DESIGN.md §5j) always folds a ReLU into its Conv/Fc producer
 * at inference, bitwise identical to the unfused pair.
 */

#ifndef PCNN_NN_FUSION_HH
#define PCNN_NN_FUSION_HH

namespace pcnn {

/**
 * Always true: every inference forward runs the compiled graph
 * (DESIGN.md §5j); there is no other inference path. Kept because
 * the benchmark binary (perfbench/src/main.cc) still reports and
 * checks it.
 */
constexpr bool
graphEnabled()
{
    return true;
}

} // namespace pcnn

#endif // PCNN_NN_FUSION_HH
