/**
 * @file
 * Shared pieces of the perfbench binary: options, sample summaries,
 * the result report and the span tracer.
 *
 * The benchmark measures the inference path from outside: every timing
 * brackets a call into a public function of one layer (common, tensor,
 * nn, nn/graph, serve), so the numbers hold for any implementation
 * behind those functions.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "serve/multi_engine.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from a to b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Seconds since t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// set the workload up, print "ready" and exit (set-up timing)
    bool setupOnly = false;
    std::string traceOut; ///< span file written at exit (trace runs)
    std::string tuneCache; ///< host tune cache the run loads
};

/** Median, p99 and max of a sample, with its size. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    double mean = 0.0;
};

/** Summarize a sample (linear-interpolated percentiles; 0s when empty). */
Summary summarize(std::vector<double> v);

/** Linear-interpolated percentile q in [0, 1] of a sample (0 when empty). */
double quantile(std::vector<double> v, double q);

/// Length of one timing window in seconds.
constexpr double kWindowS = 1.0;

/** Whole timing windows in `span` seconds, at least one. */
inline std::size_t
windowsIn(double span)
{
    return span >= 2.0 * kWindowS ? static_cast<std::size_t>(span / kWindowS)
                                  : 1;
}

/** A sample stamped with its time offset into the measured span. */
struct Stamped
{
    double t = 0.0; ///< seconds since the span started
    double v = 0.0;
};

/**
 * Summaries of the windows of [from, from + span) cut into
 * windowsIn(span) equal parts, in time order; empty windows are left
 * out.
 */
std::vector<Summary> perWindow(const std::vector<Stamped> &s, double from,
                               double span);

/**
 * Window-median summary: the span [from, from + span) is cut into
 * windowsIn(span) equal windows, each window's p50 and p99 are taken,
 * and the medians of those are reported. A stall of the shared host that
 * covers less than half the windows moves this by one window's worth
 * at most, where it would move a whole-run p99 arbitrarily far.
 */
struct Windowed
{
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t n = 0; ///< samples in the span
};

Windowed windowed(const std::vector<Stamped> &s, double from, double span);

/**
 * Median over windowsIn(span) equal windows of a rate: the summed
 * sample values of each window divided by the window's length (values
 * of 1 count events; other values weight them).
 */
double windowedRate(const std::vector<Stamped> &s, double from,
                    double span);

/**
 * Collects the run's results. metric() values form the final JSON
 * line (the end-to-end set untraced, the per-layer set traced);
 * every value, metric or not, is also printed on its own line as
 * "name value unit [n=...]" so a human reads the whole run.
 */
class Report
{
  public:
    /** A metric of the final JSON line. */
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t n = 0);

    /** A printed-only figure (context, workload-specific views). */
    void note(const std::string &name, double value,
              const std::string &unit, std::size_t n = 0);

    /** Print a free-form context line ("# ..."). */
    void line(const std::string &text);

    std::uint64_t attempted = 0; ///< operations sent to the program
    std::uint64_t failed = 0;    ///< operations with a wrong result

    /** Print the final JSON line. correct == (failed == 0). */
    void printResult() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> metrics;
};

/**
 * In-memory span recorder, used only from the benchmark's driving
 * thread. A span brackets one call into a layer; its parent is the
 * span that caused it and `request` ties the spans of one served
 * request together. Disabled tracers record nothing and cost one
 * branch per call site.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t kNoParent = 0xffffffffu;

    explicit Tracer(bool enabled);

    bool enabled() const { return on; }

    /** Record a finished span; returns its id (kNoParent when off). */
    std::uint32_t add(const char *name, const char *layer,
                      Clock::time_point start, Clock::time_point end,
                      std::uint32_t parent = kNoParent,
                      std::uint64_t request = 0);

    /** Set the end of a span recorded open; kNoParent is ignored. */
    void
    close(std::uint32_t id, Clock::time_point end)
    {
        if (id != kNoParent)
            spans[id].end = end;
    }

    /** Number of spans recorded. */
    std::size_t size() const { return spans.size(); }

    /**
     * Self time per layer in seconds: each span's duration minus the
     * part of it its children cover, summed by layer name.
     */
    std::vector<std::pair<std::string, double>> selfTimeByLayer() const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        const char *layer;
        Clock::time_point start;
        Clock::time_point end;
        std::uint32_t parent;
        std::uint64_t request;
    };
    bool on;
    Clock::time_point origin;
    std::vector<Span> spans;
};

/** Runs `fn`, recording it as a span; returns its duration in s. */
template <typename F>
double
timed(Tracer &tr, const char *name, const char *layer, F &&fn,
      std::uint32_t parent = Tracer::kNoParent)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    tr.add(name, layer, t0, t1, parent);
    return secondsBetween(t0, t1);
}

/**
 * Tell run.py the workload is set up: print the line "ready" and
 * flush. run.py times set-up from spawning the process to this line.
 */
void reportReady();

/** Median of a small sample (copied). */
double median(std::vector<double> v);

/** True when two tensors hold the same floats, bit for bit. */
inline bool
sameBits(const pcnn::Tensor &a, const pcnn::Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** The three zoo networks, in workload round-robin order. */
extern const char *const kZooNets[3];

/** zoo_forward: closed-loop whole-network forwards. */
void runZooForward(const Options &opts, Report &rep, Tracer &tr);

/** tenant_mix: open-loop multi-tenant traffic. */
void runTenant(const Options &opts, Report &rep, Tracer &tr);

/** Per-layer probes shared by every traced run. */
void runLayerProbes(const Options &opts, Report &rep, Tracer &tr);

/** Serving metrics of a workload that serves nothing (all zero). */
void reportNoServing(Report &rep);

/** Build zoo network `i` (fixed weights) ready to serve batch <= 16. */
pcnn::Network makeZooNet(std::size_t i);

/** Engine workers: one core stays with the load generator. */
std::size_t tenantWorkers();

/** Register the serving zoo (fixed weights, batch and replica caps). */
void registerTenantZoo(pcnn::ModelRegistry &reg);

/**
 * Engine configuration of tenant_mix: nproc - 1 one-lane workers, one
 * replica per worker for every model, no scaler thread.
 */
pcnn::MultiEngineConfig tenantEngineConfig();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
