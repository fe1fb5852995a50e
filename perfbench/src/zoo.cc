/**
 * @file
 * zoo_forward: one closed-loop caller running whole-network forwards.
 * MiniAlexNet, MiniVgg and MiniInception take turns, each running one
 * batch-16 and one batch-1 Network::forwardInto per turn, so the
 * tensor kernels and the compiled-graph executor do all the work and
 * the serving layer none.
 *
 * The caller runs on one intra-op lane. At full lanes the forward
 * time is set by how the host schedules the pool's lanes: on a 4-vCPU
 * VM, five 5 s runs in a row read 2008, 1107, 460, 390 and 507
 * batch-16 img/s, while one lane reads within 10%. The full-lane
 * behaviour is measured per layer (parallel.lane_speedup, traced
 * runs), and every measured forward is checked bitwise against a
 * full-lane forward of the same input.
 */

#include <vector>

#include "bench.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/model_zoo.hh"

namespace perfbench {

using pcnn::Network;
using pcnn::Tensor;

const char *const kZooNets[3] = {"MiniAlexNet", "MiniVgg", "MiniInception"};

namespace {

constexpr std::size_t kBatches[2] = {16, 1};
constexpr std::size_t kInputs = 8; ///< distinct inputs per net and batch

/** Inputs and their full-lane logits for one net and batch. */
struct Case
{
    std::vector<Tensor> in;
    std::vector<Tensor> ref;
};

/// Percentile of each net's forward times behind the gated figures.
constexpr double kGatedQ = 0.01;

/**
 * Closed-loop forward times of one measuring phase, in seconds, per
 * net in kZooNets order.
 *
 * The gated figures take each net's 1st-percentile forward time. A
 * 4-vCPU Xeon VM ran one thread at two speeds about 1.7x apart
 * (batch-1 MiniAlexNet took about 0.11 or 0.18 ms), switching every
 * few seconds, with a share of slow seconds that changed from run to
 * run, so the run median flipped between the two speeds. The host
 * only ever adds time to a forward of fixed work: the fast tail is the
 * program's own cost, and a 30 s run has about a hundred forwards per
 * net below it.
 */
struct Phase
{
    std::vector<double> b16S[3];
    std::vector<double> b1S[3];
    std::uint64_t forwards = 0;
    std::uint64_t mismatches = 0;

    /** Mean over the nets of each one's percentile-q batch-1 time. */
    double
    b1Time(double q) const
    {
        double sum = 0.0;
        for (const std::vector<double> &v : b1S)
            sum += quantile(v, q);
        return sum / 3.0;
    }

    /**
     * Batch-16 images per second of forward time when every net runs
     * at its percentile-q forward time.
     */
    double
    imgPerS(double q) const
    {
        double sum = 0.0;
        for (const std::vector<double> &v : b16S)
            sum += quantile(v, q);
        return sum > 0.0 ? 3.0 * 16.0 / sum : 0.0;
    }
};

/** Forward times recorded over the three nets. */
std::size_t
samples(const std::vector<double> (&s)[3])
{
    return s[0].size() + s[1].size() + s[2].size();
}

Phase
measure(std::vector<Network> &nets, const std::vector<Case> (&cases)[2],
        double seconds, std::uint64_t seed, Tracer &tr)
{
    Phase ph;
    pcnn::Rng pick(seed * 7 + 3);
    Tensor out;
    const Clock::time_point t0 = Clock::now();
    const std::uint32_t phase = tr.add("closed_loop", "bench", t0, t0);
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
        for (std::size_t n = 0; n < nets.size(); ++n) {
            for (std::size_t b = 0; b < 2; ++b) {
                const Case &c = cases[b][n];
                const std::size_t i = pick.below(kInputs);
                const double s = timed(
                    tr, "Network::forwardInto", "graph",
                    [&] { nets[n].forwardInto(c.in[i], false, out); },
                    phase);
                (b == 0 ? ph.b16S : ph.b1S)[n].push_back(s);
                ++ph.forwards;
                if (!sameBits(out, c.ref[i]))
                    ++ph.mismatches;
            }
        }
    }
    tr.close(phase, Clock::now());
    return ph;
}

} // namespace

Network
makeZooNet(std::size_t i)
{
    pcnn::Rng weights(42 + i);
    Network net = i == 0   ? pcnn::makeMiniAlexNet(weights)
                  : i == 1 ? pcnn::makeMiniVgg(weights)
                           : pcnn::makeMiniInception(weights);
    net.ensureCompiledGraph(16);
    // Warm both batch sizes: packs the weight panels and grows every
    // grow-only buffer before anything is timed.
    const pcnn::Shape &s = net.inputShape();
    Tensor out;
    for (std::size_t b : kBatches)
        net.forwardInto(Tensor(pcnn::Shape{b, s.c, s.h, s.w}), false, out);
    return net;
}

void
runZooForward(const Options &opts, Report &rep, Tracer &tr)
{
    rep.line("closed loop, 1 caller x 1 lane, fp32; references at " +
             std::to_string(pcnn::threadCount()) + " lanes");

    // Set-up on the lane count the measured forwards use: nets built,
    // graphs compiled, panels packed by one warm forward per batch
    // size. One-lane forwards never dispatch to the intra-op pool, so
    // its workers start later, with the first full-lane reference.
    std::vector<Network> nets;
    {
        pcnn::ScopedLaneLimit one(1);
        for (std::size_t i = 0; i < 3; ++i)
            nets.push_back(makeZooNet(i));
    }
    if (opts.setupOnly) {
        reportReady();
        return;
    }

    // Seeded inputs and their full-lane logits: every measured
    // 1-lane forward must match them bit for bit.
    pcnn::Rng inRng(opts.seed);
    std::vector<Case> cases[2];
    for (std::size_t b = 0; b < 2; ++b) {
        for (Network &net : nets) {
            const pcnn::Shape &s = net.inputShape();
            Case c;
            for (std::size_t i = 0; i < kInputs; ++i) {
                Tensor x(pcnn::Shape{kBatches[b], s.c, s.h, s.w});
                x.fillUniform(inRng, -1.0f, 1.0f);
                Tensor y;
                net.forwardInto(x, false, y);
                c.in.push_back(std::move(x));
                c.ref.push_back(std::move(y));
            }
            cases[b].push_back(std::move(c));
        }
    }

    const double span = opts.trace ? opts.seconds / 2.0 : opts.seconds;
    Tracer off(false);
    Phase plain, traced;
    {
        pcnn::ScopedLaneLimit one(1);
        plain = measure(nets, cases, span, opts.seed, off);
        if (opts.trace)
            traced = measure(nets, cases, span, opts.seed + 1, tr);
    }

    rep.attempted += plain.forwards + traced.forwards;
    rep.failed += plain.mismatches + traced.mismatches;
    rep.note("check.forwards", double(plain.forwards + traced.forwards),
             "count");
    rep.note("check.mismatches_vs_full_lanes",
             double(plain.mismatches + traced.mismatches), "count");

    const std::size_t n1 = samples(plain.b1S);
    const std::size_t n16 = samples(plain.b16S);
    rep.line("per-net percentiles of forward time, averaged over the "
             "three nets (batch 1) or summed into one img/s (batch 16)");
    rep.note("fwd_b1_p1_ms", plain.b1Time(kGatedQ) * 1e3, "ms", n1);
    rep.note("fwd_b1_p50_ms", plain.b1Time(0.50) * 1e3, "ms", n1);
    rep.note("fwd_b1_p99_ms", plain.b1Time(0.99) * 1e3, "ms", n1);
    rep.note("fwd_b16_img_s", plain.imgPerS(kGatedQ), "img/s", n16);
    rep.note("fwd_b16_img_s.p50", plain.imgPerS(0.50), "img/s", n16);
    if (!opts.trace) {
        rep.metric("latency_ms", plain.b1Time(kGatedQ) * 1e3, "ms", n1);
        rep.metric("throughput_per_s", plain.imgPerS(kGatedQ), "1/s", n16);
        return;
    }
    rep.metric("trace.overhead_share.latency_ms",
               traced.b1Time(kGatedQ) / plain.b1Time(kGatedQ) - 1.0,
               "ratio");
    rep.metric("trace.overhead_share.throughput_per_s",
               plain.imgPerS(kGatedQ) / traced.imgPerS(kGatedQ) - 1.0,
               "ratio");
    reportNoServing(rep);
}

} // namespace perfbench
