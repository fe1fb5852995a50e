/**
 * @file
 * The unfused inference reference the compiled-graph parity tests
 * compare against: every top-level layer's own forwardInto, in
 * network order, at inference — no graph, no ReLU fusion, no arena.
 * Inception layers run their branch chains the same way internally.
 */

#ifndef PCNN_TESTS_UNFUSED_REFERENCE_HH
#define PCNN_TESTS_UNFUSED_REFERENCE_HH

#include "nn/network.hh"

namespace pcnn {

/**
 * Run `net` layer by layer, ping-ponging activations between `a`
 * and `b` and writing the logits into `out` (the same buffer
 * discipline the training chain uses).
 */
inline void
unfusedForward(Network &net, const Tensor &x, Tensor &out, Tensor &a,
               Tensor &b)
{
    const Tensor *cur = &x;
    Tensor *nxt = &a;
    for (std::size_t i = 0; i < net.size(); ++i) {
        Tensor *dst = i + 1 == net.size() ? &out : nxt;
        net.layer(i).forwardInto(*cur, false, *dst);
        nxt = dst == &a ? &b : &a;
        cur = dst;
    }
}

/** Logits of the unfused layer chain. */
inline Tensor
unfusedReference(Network &net, const Tensor &x)
{
    Tensor a, b, out;
    unfusedForward(net, x, out, a, b);
    return out;
}

} // namespace pcnn

#endif // PCNN_TESTS_UNFUSED_REFERENCE_HH
