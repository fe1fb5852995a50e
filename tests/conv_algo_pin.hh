/**
 * @file
 * Per-layer conv-algorithm pinning for the route-sweeping tests.
 *
 * The conv algorithm is per-layer plan state (ConvLayer::setAlgo,
 * applied by the executor from an offline plan). Tests that must
 * cover every route loop over the algorithms a geometry admits, and
 * whole-network tests pin every eligible conv onto one algorithm the
 * way a plan would, leaving the other convs on the cost model.
 */

#ifndef PCNN_TESTS_CONV_ALGO_PIN_HH
#define PCNN_TESTS_CONV_ALGO_PIN_HH

#include <optional>
#include <string>
#include <vector>

#include "nn/conv_layer.hh"
#include "nn/network.hh"

namespace pcnn {

/** Every algorithm eligible for `spec`, in enum order. */
inline std::vector<ConvAlgo>
eligibleConvAlgos(const ConvSpec &spec)
{
    std::vector<ConvAlgo> out;
    for (ConvAlgo a :
         {ConvAlgo::Im2col, ConvAlgo::Direct1x1, ConvAlgo::Winograd})
        if (spec.algoEligible(a))
            out.push_back(a);
    return out;
}

/**
 * The routes a whole-network test sweeps: cost-model dispatch
 * (std::nullopt), then im2col and winograd pinned wherever eligible.
 */
inline std::vector<std::optional<ConvAlgo>>
networkConvRoutes()
{
    return {std::nullopt, ConvAlgo::Im2col, ConvAlgo::Winograd};
}

/** "auto" for cost-model dispatch, else the algorithm's name. */
inline std::string
convRouteName(const std::optional<ConvAlgo> &route)
{
    return route ? convAlgoName(*route) : "auto";
}

/**
 * Pin every conv of `net` (inception branches included) whose
 * geometry admits `route` onto it; std::nullopt pins nothing.
 * Returns how many convs were pinned.
 */
inline std::size_t
pinConvRoute(Network &net, const std::optional<ConvAlgo> &route)
{
    std::size_t pinned = 0;
    if (!route)
        return pinned;
    for (ConvLayer *c : net.convLayers())
        if (c->spec().algoEligible(*route)) {
            c->setAlgo(*route);
            ++pinned;
        }
    return pinned;
}

} // namespace pcnn

#endif // PCNN_TESTS_CONV_ALGO_PIN_HH
