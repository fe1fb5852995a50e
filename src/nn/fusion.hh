/**
 * @file
 * Process-wide inference-fusion and algorithm-dispatch controls
 * (DESIGN.md §5e).
 *
 * Process-wide switches steer the inference hot path:
 *
 *  - Forced conv algorithm: PCNN_CONV_ALGO=im2col|direct1x1|winograd
 *    (or setForcedConvAlgo()) overrides both the offline plan's
 *    per-layer choice and the cost model, wherever the forced
 *    algorithm is eligible for the layer geometry. `auto` / unset
 *    restores normal dispatch.
 *
 *  - Forced quantization: PCNN_QUANTIZE=1 (or setQuantizeForced())
 *    routes every Conv/Fc inference forward through the int8 path
 *    regardless of per-layer flags — the quantized analogue of the
 *    tier/algorithm forcing legs in CI. Training forwards are never
 *    quantized.
 *
 * Both are plain process-wide toggles, not per-network state: they
 * exist for benchmarking and testing, and the hot path reads them
 * without synchronization (set them before running inference).
 *
 * ReLU folding is not a switch: the compiled graph's fuse-relu pass
 * (DESIGN.md §5j) always folds a ReLU into its Conv/Fc producer at
 * inference, bitwise identical to the unfused pair.
 */

#ifndef PCNN_NN_FUSION_HH
#define PCNN_NN_FUSION_HH

#include "nn/conv_spec.hh"

namespace pcnn {

/**
 * Forced conv algorithm override, if active: returns true and sets
 * `out`. Seeded from PCNN_CONV_ALGO on first use.
 */
bool forcedConvAlgo(ConvAlgo &out);

/** Force every eligible conv layer onto `algo`. */
void setForcedConvAlgo(ConvAlgo algo);

/** Drop the forced algorithm; dispatch returns to plan/cost-model. */
void clearForcedConvAlgo();

/** True when every inference forward is forced onto the int8 path. */
bool quantizeForced();

/** Force (or un-force) int8 inference process-wide. */
void setQuantizeForced(bool on);

/** Restore the PCNN_QUANTIZE environment default. */
void clearQuantizeForced();

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
