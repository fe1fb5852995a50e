#include "common/parallel.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/mutex.hh"

namespace pcnn {

namespace {

thread_local std::size_t tls_lane = 0;
thread_local bool tls_in_region = false;
/// per-thread lane cap installed by ScopedLaneLimit; 0 = uncapped
thread_local std::size_t tls_lane_limit = 0;

std::size_t
defaultThreads()
{
    // strtoul alone would accept a sign or leading blanks and wrap
    // "-1" to ULONG_MAX; only a plain digit string is a lane count.
    const char *env = std::getenv("PCNN_THREADS");
    if (env && *env >= '0' && *env <= '9') {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (*end == '\0' && v >= 1)
            return std::min<std::size_t>(v, 256);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Lazily-started worker pool. Lane 0 is the dispatching thread; lanes
 * 1..T-1 are persistent workers woken per dispatch by a generation
 * counter. One dispatch is in flight at a time (dispatchMutex).
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    std::size_t
    lanes() PCNN_EXCLUDES(configMutex)
    {
        MutexLock lk(configMutex);
        return nLanes;
    }

    void
    resize(std::size_t n)
        PCNN_EXCLUDES(dispatchMutex, configMutex, stateMutex)
    {
        pcnn_assert(!tls_in_region,
                    "setThreadCount inside a parallel region");
        MutexLock dlk(dispatchMutex);
        MutexLock lk(configMutex);
        if (n == 0)
            n = defaultThreads();
        if (n == nLanes)
            return;
        stopWorkers();
        nLanes = n;
    }

    void
    run(std::size_t n, const ParallelBody &fn)
        PCNN_EXCLUDES(dispatchMutex, configMutex, stateMutex)
    {
        // A lane cap of 1 short-circuits before touching any shared
        // pool state: capped serving workers pay zero contention.
        std::size_t lanes_now;
        if (tls_lane_limit == 1) {
            lanes_now = 1;
        } else {
            MutexLock lk(configMutex);
            lanes_now = nLanes;
            if (tls_lane_limit != 0)
                lanes_now = std::min(lanes_now, tls_lane_limit);
        }
        if (tls_in_region || lanes_now == 1 || n <= 1) {
            // Inline (possibly nested) execution on the calling lane.
            const bool outer = !tls_in_region;
            tls_in_region = true;
            try {
                fn(0, n, tls_lane);
            } catch (...) {
                tls_in_region = !outer;
                throw;
            }
            tls_in_region = !outer;
            return;
        }

        MutexLock dlk(dispatchMutex);
        // nLanes belongs to configMutex: re-read it under its own
        // lock (dispatchMutex excludes resize(), so the value stays
        // stable for the whole dispatch) and re-apply the per-thread
        // cap to the fresh value.
        std::size_t lanes;
        {
            MutexLock clk(configMutex);
            lanes = nLanes;
        }
        if (tls_lane_limit != 0)
            lanes = std::max<std::size_t>(
                1, std::min(lanes, tls_lane_limit));
        ensureWorkers(lanes);
        {
            MutexLock slk(stateMutex);
            job = &fn;
            jobSize = n;
            jobLanes = lanes;
            pendingLanes = lanes - 1;
            firstError = nullptr;
            ++generation;
        }
        wake.notifyAll();

        // Lane 0 executes its own chunk while the workers run theirs.
        std::exception_ptr mainError;
        try {
            runChunk(fn, n, lanes, 0);
        } catch (...) {
            mainError = std::current_exception();
            tls_in_region = false;
        }

        UniqueLock lk(stateMutex);
        while (pendingLanes != 0)
            done.wait(lk, stateMutex);
        job = nullptr;
        if (mainError)
            std::rethrow_exception(mainError);
        if (firstError)
            std::rethrow_exception(firstError);
    }

  private:
    Pool() = default;

    ~Pool()
    {
        MutexLock dlk(dispatchMutex);
        stopWorkers();
    }

    static void
    runChunk(const ParallelBody &fn, std::size_t n, std::size_t lanes,
             std::size_t lane)
    {
        const std::size_t begin = n * lane / lanes;
        const std::size_t end = n * (lane + 1) / lanes;
        if (begin >= end)
            return;
        tls_in_region = true;
        fn(begin, end, lane);
        tls_in_region = false;
    }

    void
    ensureWorkers(std::size_t lanes_now)
        PCNN_REQUIRES(dispatchMutex) PCNN_EXCLUDES(stateMutex)
    {
        if (workers.size() + 1 == lanes_now)
            return;
        for (std::size_t lane = workers.size() + 1; lane < lanes_now;
             ++lane) {
            workers.emplace_back([this, lane] { workerLoop(lane); });
        }
    }

    void
    stopWorkers()
        PCNN_REQUIRES(dispatchMutex) PCNN_EXCLUDES(stateMutex)
    {
        {
            MutexLock lk(stateMutex);
            stopping = true;
            ++generation;
        }
        wake.notifyAll();
        for (auto &w : workers)
            w.join();
        workers.clear();
        MutexLock lk(stateMutex);
        stopping = false;
    }

    void
    workerLoop(std::size_t lane) PCNN_EXCLUDES(stateMutex)
    {
        tls_lane = lane;
        std::uint64_t seen = 0;
        UniqueLock lk(stateMutex);
        for (;;) {
            while (!stopping && generation == seen)
                wake.wait(lk, stateMutex);
            seen = generation;
            if (stopping)
                return;
            const ParallelBody *fn = job;
            const std::size_t n = jobSize;
            const std::size_t lanes = jobLanes;
            if (fn == nullptr || lane >= lanes)
                continue;
            lk.unlock();
            std::exception_ptr err;
            try {
                runChunk(*fn, n, lanes, lane);
            } catch (...) {
                err = std::current_exception();
                tls_in_region = false;
            }
            lk.lock();
            if (err && !firstError)
                firstError = err;
            if (--pendingLanes == 0)
                done.notifyOne();
        }
    }

    // Serializes top-level dispatches from user threads; also the
    // capability guarding the worker vector (workers are started and
    // joined only while a dispatch or resize holds it).
    Mutex dispatchMutex;
    // Guards the configured lane count.
    Mutex configMutex;
    std::size_t nLanes PCNN_GUARDED_BY(configMutex) =
        defaultThreads();
    std::vector<std::thread> workers PCNN_GUARDED_BY(dispatchMutex);

    // Dispatch state, guarded by stateMutex.
    Mutex stateMutex;
    CondVar wake, done;
    std::uint64_t generation PCNN_GUARDED_BY(stateMutex) = 0;
    bool stopping PCNN_GUARDED_BY(stateMutex) = false;
    const ParallelBody *job PCNN_GUARDED_BY(stateMutex) = nullptr;
    std::size_t jobSize PCNN_GUARDED_BY(stateMutex) = 0;
    std::size_t jobLanes PCNN_GUARDED_BY(stateMutex) = 0;
    std::size_t pendingLanes PCNN_GUARDED_BY(stateMutex) = 0;
    std::exception_ptr firstError PCNN_GUARDED_BY(stateMutex);
};

} // namespace

std::size_t
threadCount()
{
    if (tls_lane_limit == 1)
        return 1;
    const std::size_t base = Pool::instance().lanes();
    if (tls_lane_limit != 0)
        return std::max<std::size_t>(1,
                                     std::min(base, tls_lane_limit));
    return base;
}

ScopedLaneLimit::ScopedLaneLimit(std::size_t n) : prev(tls_lane_limit)
{
    // Nesting composes as the tighter of the two caps: a region that
    // was already limited must not widen inside.
    if (n == 0)
        return;
    tls_lane_limit = prev == 0 ? n : std::min(prev, n);
}

ScopedLaneLimit::~ScopedLaneLimit()
{
    tls_lane_limit = prev;
}

void
setThreadCount(std::size_t n)
{
    Pool::instance().resize(n);
}

bool
inParallelRegion()
{
    return tls_in_region;
}

std::size_t
currentLane()
{
    return tls_lane;
}

void
parallelFor(std::size_t n, const ParallelBody &fn)
{
    if (n == 0)
        return;
    // pcnn-analyze: allow(hot-path-alloc): the name-level call graph
    // would merge every ::run overload at this edge; Pool dispatch
    // itself is steady-state alloc-free — workers are spawned once by
    // ensureWorkers and the body travels by non-owning function ref —
    // and the runtime probe (test_allocprobe, PCNN_THREADS 1/2/4)
    // verifies that end to end.
    Pool::instance().run(n, fn);
}

} // namespace pcnn
