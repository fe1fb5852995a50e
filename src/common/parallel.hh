/**
 * @file
 * Deterministic CPU thread pool for the functional substrate.
 *
 * Every CPU hot path (SGEMM, im2col, layer batch loops, the offline
 * compiler's candidate sweeps) fans work out through parallelFor().
 * The partition is *static*: [0, n) is split into threadCount()
 * contiguous chunks whose boundaries depend only on n and the
 * configured thread count — never on timing — and every output cell
 * is written by exactly one chunk with an unchanged per-cell
 * accumulation order. Results are therefore bitwise identical across
 * thread counts, which keeps every bench reproducible (DESIGN.md §5).
 *
 * The pool is sized by the PCNN_THREADS environment variable
 * (default: std::thread::hardware_concurrency). Nested parallelFor
 * calls execute inline on the calling worker, so composed parallel
 * code (e.g. a batch-parallel conv layer whose SGEMM is itself
 * parallel) cannot deadlock or oversubscribe.
 *
 * Inter-op composition: threads that are themselves replicas of a
 * concurrent server (serve/ worker threads) install a per-thread
 * ScopedLaneLimit so the PCNN_THREADS budget is *partitioned* across
 * them instead of multiplied. threadCount() reports the capped value
 * on such a thread, and a limit of 1 makes every parallelFor run
 * inline with no pool traffic at all. Because results are bitwise
 * identical across lane counts, partitioning never changes outputs.
 */

#ifndef PCNN_COMMON_PARALLEL_HH
#define PCNN_COMMON_PARALLEL_HH

#include <cstddef>
#include <type_traits>
#include <utility>

namespace pcnn {

/**
 * Chunk body: half-open index range plus the executing lane id.
 *
 * A non-owning callable reference (two raw pointers), not a
 * std::function: parallelFor sits on the inference hot path, and a
 * std::function built from a lambda whose captures exceed the
 * small-buffer optimization heap-allocates on every call —
 * measurable per-layer allocator traffic that the zero-steady-state-
 * allocation invariant (DESIGN.md §5h) forbids. The referenced
 * callable must outlive the call, which parallelFor guarantees by
 * executing synchronously.
 */
class ParallelBody
{
  public:
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::remove_cv_t<std::remove_reference_t<F>>,
                  ParallelBody>>>
    ParallelBody(F &&f) // NOLINT: implicit by design, like function_ref
        : obj(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call([](void *o, std::size_t begin, std::size_t end,
                  std::size_t tid) {
              (*static_cast<std::remove_reference_t<F> *>(o))(
                  begin, end, tid);
          })
    {
    }

    void
    operator()(std::size_t begin, std::size_t end,
               std::size_t tid) const
    {
        call(obj, begin, end, tid);
    }

  private:
    void *obj;
    void (*call)(void *, std::size_t, std::size_t, std::size_t);
};

/**
 * Configured worker-lane count (>= 1). First call reads PCNN_THREADS
 * (clamped to [1, 256]); a value that is unset, 0 or not a plain
 * digit string (a sign or a leading blank included) falls back to
 * hardware_concurrency.
 */
std::size_t threadCount();

/**
 * Override the lane count at run time (used by tests and benches to
 * compare thread counts inside one process). n == 0 restores the
 * PCNN_THREADS / hardware default. Must not be called from inside a
 * parallelFor body.
 */
void setThreadCount(std::size_t n);

/**
 * True while the calling thread is executing a parallelFor body;
 * further parallelFor calls from it run inline (serial).
 */
bool inParallelRegion();

/**
 * Lane id of the calling thread: 0 on the main thread, the worker's
 * lane otherwise. Always < threadCount(). Useful for indexing
 * per-lane scratch from code that may run inside a region.
 */
std::size_t currentLane();

/**
 * Run fn over the static partition of [0, n): lane t receives
 * [n*t/T, n*(t+1)/T) where T = threadCount(). Blocks until every
 * chunk has finished; rethrows the first chunk exception. Runs inline
 * when n <= 1, T == 1, or the caller is already inside a region.
 */
void parallelFor(std::size_t n, const ParallelBody &fn);

/**
 * RAII per-thread cap on the lanes parallelFor may use from the
 * calling thread (inter-op/intra-op composition, DESIGN.md §5f):
 * while alive, threadCount() returns min(pool lanes, n) on this
 * thread and dispatches partition work accordingly. A limit of 1
 * makes every parallelFor from this thread run inline. n == 0 means
 * "no cap". Limits nest (the innermost wins until destroyed) and
 * never affect other threads.
 */
class ScopedLaneLimit
{
  public:
    explicit ScopedLaneLimit(std::size_t n);
    ~ScopedLaneLimit();

    ScopedLaneLimit(const ScopedLaneLimit &) = delete;
    ScopedLaneLimit &operator=(const ScopedLaneLimit &) = delete;

  private:
    std::size_t prev;
};

} // namespace pcnn

#endif // PCNN_COMMON_PARALLEL_HH
