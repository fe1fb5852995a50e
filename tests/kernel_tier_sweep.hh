/**
 * @file
 * Kernel-tier sweeping for the tests that reach SGEMM or qgemm
 * dispatch.
 *
 * The kernel tier is dispatch state: the setKernelTier() pin (the
 * per-host tune cache, tests), else the widest tier the host runs.
 * Tests run their body once per supported tier, so the portable
 * fallback every host can execute is covered wherever the hardware
 * would dispatch AVX2 or AVX-512.
 */

#ifndef PCNN_TESTS_KERNEL_TIER_SWEEP_HH
#define PCNN_TESTS_KERNEL_TIER_SWEEP_HH

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.hh"
#include "tensor/microkernel.hh"

namespace pcnn {

/** Drop tier and blocking pins and reset the thread count on exit. */
struct DispatchStateGuard
{
    DispatchStateGuard() = default;
    DispatchStateGuard(const DispatchStateGuard &) = delete;
    DispatchStateGuard &operator=(const DispatchStateGuard &) = delete;

    ~DispatchStateGuard()
    {
        resetKernelTier();
        resetBlocking();
        setThreadCount(0);
    }
};

/**
 * Run `fn` once per supportedKernelTiers() entry, portable first,
 * with that tier pinned and named in every failure message.
 */
template <typename Fn>
void
forEachKernelTier(Fn &&fn)
{
    DispatchStateGuard guard;
    for (KernelTier tier : supportedKernelTiers()) {
        SCOPED_TRACE(std::string("kernel tier ") + kernelTierName(tier));
        setKernelTier(tier);
        fn();
    }
}

} // namespace pcnn

#endif // PCNN_TESTS_KERNEL_TIER_SWEEP_HH
