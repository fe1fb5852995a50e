/**
 * @file
 * Per-thread allocation counters (DESIGN.md §5h).
 *
 * When the build enables PCNN_COUNT_ALLOCS (the dev preset does; the
 * sanitizer presets leave the sanitizers' own operator new in place),
 * alloc_count.cc replaces the global operator new/delete family with
 * malloc-backed versions that bump thread-local counters. The
 * counters make the zero-steady-state-allocation invariant a
 * *measured* property:
 *
 *  - ScopedAllocCount probes a region of the calling thread:
 *    prepacked e2e forward and the serving engine's post-warmup
 *    batches must report 0 (tests/test_allocprobe.cc and
 *    tests/test_multitenant.cc assert it, bench_e2e_models publishes
 *    it per row);
 *  - tools/pcnn_analyze proves the same property statically for
 *    PCNN_HOT_PATH-tagged functions — the runtime probe is the
 *    cross-check that the static whitelist stays honest.
 *
 * Counters are per-thread on purpose: concurrent producer threads
 * (request submitters, promise plumbing) allocate freely while a
 * worker's forward loop must not, and a process-wide counter could
 * not tell the two apart.
 */

#ifndef PCNN_COMMON_ALLOC_COUNT_HH
#define PCNN_COMMON_ALLOC_COUNT_HH

#include <cstdint>

namespace pcnn {

/** True when the build replaces operator new with counting hooks. */
bool allocCountingEnabled();

/**
 * Allocations observed on the calling thread since it started.
 * Always 0 when !allocCountingEnabled().
 */
std::uint64_t threadAllocCount();

/** Deallocations observed on the calling thread. */
std::uint64_t threadFreeCount();

/**
 * Counts allocator traffic of the calling thread between
 * construction and the allocs()/frees() calls. Usage:
 *
 *   ScopedAllocCount probe;
 *   net.forwardInto(x, false, y);   // steady-state: must not allocate
 *   PCNN_CHECK_EQ(probe.allocs(), 0u, ...);
 *
 * Only this thread's traffic is counted: pool worker lanes are
 * invisible to the probe, so serving workers (which run with a lane
 * limit of 1) and single-thread tests get exact numbers, while
 * multi-lane probes still catch every allocation the dispatching
 * thread itself performs.
 */
class ScopedAllocCount
{
  public:
    ScopedAllocCount();

    /** Allocations on this thread since construction. */
    std::uint64_t allocs() const;

    /** Deallocations on this thread since construction. */
    std::uint64_t frees() const;

  private:
    std::uint64_t a0;
    std::uint64_t f0;
};

} // namespace pcnn

#endif // PCNN_COMMON_ALLOC_COUNT_HH
