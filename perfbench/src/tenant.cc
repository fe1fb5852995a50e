/**
 * @file
 * tenant_mix: open-loop traffic through MultiTenantEngine from one
 * load-generating thread.
 *
 * Arrivals are drawn from the seed before the clock starts, at fixed
 * absolute rates (never calibrated from measured service time), and
 * each request is timed from its due time to the moment the generator
 * sees its future ready, so a stalled generator or engine shows as
 * latency of the requests behind the stall, and nothing the engine
 * reports about itself enters a latency. The generator never sleeps:
 * it polls every pending future on each pass of its loop, and the
 * pass period is printed beside the figures. The engine only ever
 * sees copies of pre-generated inputs.
 *
 * Poisson interactive arrivals over the Zipf three-model mix step
 * through rungs of 3000, 6000 and 12000 req/s (a third of the run
 * each); two 60-fps real-time streams and a 24-deep background window
 * run throughout. Every model keeps one replica per worker, so the
 * numbers measure scheduling, batching and admission rather than
 * autoscaler timing.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/random.hh"
#include "nn/model_zoo.hh"

namespace perfbench {

using pcnn::MultiTenantEngine;
using pcnn::SubmitStatus;
using pcnn::TaskClass;
using pcnn::Tensor;
using pcnn::TenantResult;

namespace {

constexpr std::size_t kMaxBatch = 4;
constexpr std::size_t kBackgroundWindow = 24;
constexpr std::size_t kInputsPerModel = 64;
/// bitwise-checked outputs per traffic run: ~400 scheduled arrivals
/// plus every 1024th background request
constexpr std::size_t kMaxSamples = 800;
/// Table II imperceptible bound for interactive requests
constexpr double kInteractiveBoundS = 0.1;
constexpr double kFrameS = 1.0 / 60.0;
constexpr double kRungHz[3] = {3000.0, 6000.0, 12000.0};
constexpr const char *kRungNames[3] = {"r3000", "r6000", "r12000"};
constexpr double kWarmupS = 1.0;

/// interactive mix, Zipf weights 1, 1/2, 1/3
constexpr const char *kMixModels[3] = {"MiniAlexNet/full", "MiniVgg/full",
                                       "MiniInception/p50"};
constexpr const char *kRealTimeModel = "MiniAlexNet/p50";
constexpr const char *kClassNames[3] = {"interactive", "real_time",
                                        "background"};
/// latency recorded for a refused or shed request: past every bound
constexpr double kMissS = 1e9;

/** One scheduled (interactive or real-time) arrival. */
struct Arrival
{
    double dueS = 0.0; ///< offset from the traffic start
    TaskClass cls = TaskClass::Interactive;
    std::size_t model = 0; ///< registry index
    std::size_t input = 0; ///< index into the model's input pool
    int rung = -1;         ///< tenant_mix rung, -1 elsewhere
};

/** Per-class outcome of one traffic run. */
struct ClassStats
{
    /// latency from due time of served requests, stamped with the due
    /// time's offset into the run
    std::vector<Stamped> latAt;
    std::vector<Stamped> goodAt; ///< due times of in-bound completions
    std::vector<double> queueS; ///< engine queue wait
    std::vector<double> batch;  ///< batch size each rode in
    std::uint64_t sent = 0, served = 0, refused = 0, shed = 0;
    std::uint64_t late = 0; ///< served after the class deadline
};

/** Per-rung interactive outcome (tenant_mix). */
struct RungStats
{
    std::vector<Stamped> latAt;
    std::vector<Stamped> goodAt; ///< due times of in-bound completions
    /// due times of refused and shed requests, with latency kMissS
    std::vector<Stamped> missAt;
    std::uint64_t sent = 0, refused = 0, shed = 0;
};

/** One sampled output, checked bitwise after the run. */
struct Sample
{
    std::size_t model = 0;
    std::size_t input = 0;
    Tensor logits;
    bool done = false;
};

/** Everything one traffic run measured. */
struct TrafficStats
{
    double windowS = 0.0;
    ClassStats cls[3];
    RungStats rung[3];
    std::vector<double> genLateS;
    std::vector<double> submitS; ///< traced runs only
    std::uint64_t polls = 0;     ///< passes of the generator loop
    double pollMaxS = 0.0;       ///< longest gap between two passes
    /// in-bound completions of every class inside the window, stamped
    /// with the time the generator saw them
    std::vector<Stamped> doneAt;
    /// per registry model: (batch, service seconds) of served requests
    std::vector<std::vector<std::pair<std::size_t, double>>> service;
    std::vector<Stamped> backgroundAt; ///< completions inside the window
    std::uint64_t failed = 0;         ///< broken future or wrong output
    std::uint64_t evicted = 0;
    std::vector<Sample> samples;
};

std::size_t
classIndex(TaskClass c)
{
    return static_cast<std::size_t>(c);
}

/** The values of a stamped sample. */
std::vector<double>
valuesOf(const std::vector<Stamped> &s)
{
    std::vector<double> v;
    v.reserve(s.size());
    for (const Stamped &x : s)
        v.push_back(x.v);
    return v;
}

/** The arrival schedule of one run, sorted by due time. */
std::vector<Arrival>
makeSchedule(double seconds, std::uint64_t seed,
             const std::size_t mix[3], std::size_t rtModel)
{
    pcnn::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
    const double w[3] = {1.0, 1.0 / 2.0, 1.0 / 3.0};
    const double wsum = w[0] + w[1] + w[2];
    const auto pickModel = [&] {
        double u = rng.uniform() * wsum;
        for (std::size_t m = 0; m < 2; ++m) {
            if (u < w[m])
                return mix[m];
            u -= w[m];
        }
        return mix[2];
    };
    const auto gap = [&](double hz) {
        return -std::log(1.0 - rng.uniform()) / hz;
    };

    std::vector<Arrival> out;
    for (int r = 0; r < 3; ++r) {
        const double end = seconds * double(r + 1) / 3.0;
        for (double t = seconds * double(r) / 3.0 + gap(kRungHz[r]);
             t < end; t += gap(kRungHz[r])) {
            Arrival a;
            a.dueS = t;
            a.model = pickModel();
            a.input = rng.below(kInputsPerModel);
            a.rung = r;
            out.push_back(a);
        }
    }
    for (int stream = 0; stream < 2; ++stream) {
        for (double t = kFrameS * 0.5 * stream; t < seconds;
             t += kFrameS) {
            Arrival a;
            a.dueS = t;
            a.cls = TaskClass::RealTime;
            a.model = rtModel;
            a.input = rng.below(kInputsPerModel);
            out.push_back(a);
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.dueS < b.dueS;
                     });
    return out;
}

/** A submitted request whose future is still pending. */
struct Pending
{
    std::future<TenantResult> fut;
    Clock::time_point due;
    TaskClass cls = TaskClass::Interactive;
    std::size_t model = 0;
    int rung = -1;
    int sample = -1;
    std::uint32_t span = Tracer::kNoParent;
};

/**
 * Drive one traffic run from the calling thread: scheduled arrivals
 * at their due times, the background window topped up throughout,
 * completions harvested as they land. Returns after every accepted
 * future has resolved.
 */
TrafficStats
driveTraffic(MultiTenantEngine &engine, pcnn::ModelRegistry &reg,
             const std::vector<Arrival> &sched, double seconds,
             const std::vector<std::vector<Tensor>> &inputs,
             const std::size_t mix[3], std::uint64_t seed, Tracer &tr)
{
    TrafficStats st;
    st.windowS = seconds;
    st.service.resize(reg.size());
    pcnn::Rng rng(seed * 31 + 5);
    const bool tracing = tr.enabled();

    const std::size_t stride =
        std::max<std::size_t>(1, sched.size() / (kMaxSamples / 2));
    std::vector<Pending> fg, bg;
    fg.reserve(4096);
    bg.reserve(kBackgroundWindow);

    const pcnn::TenantMetricsSnapshot before = engine.metrics();

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const std::uint32_t phase = tr.add("traffic", "bench", start, start);
    std::uint64_t requestId = 0;
    std::uint64_t bgSeen = 0;

    // `ready` is when the generator saw the future ready.
    const auto finish = [&](Pending &p, Clock::time_point ready) {
        ClassStats &cs = st.cls[classIndex(p.cls)];
        TenantResult r;
        try {
            r = p.fut.get();
        } catch (...) {
            ++st.failed;
            return;
        }
        tr.close(p.span, ready);
        if (r.shed) {
            ++cs.shed;
            if (p.rung >= 0) {
                ++st.rung[p.rung].shed;
                st.rung[p.rung].missAt.push_back(
                    {secondsBetween(start, p.due), kMissS});
            }
            return;
        }
        ++cs.served;
        const double lat = secondsBetween(p.due, ready);
        const double at = secondsBetween(start, p.due);
        cs.latAt.push_back({at, lat});
        cs.queueS.push_back(r.queueS);
        cs.batch.push_back(double(r.batchSize));
        st.service[p.model].emplace_back(r.batchSize,
                                         r.latencyS - r.queueS);
        const bool inBound =
            p.cls == TaskClass::Background ||
            lat <= pcnn::classRequirement(p.cls).imperceptibleS;
        if (!inBound)
            ++cs.late;
        if (lat <= kInteractiveBoundS)
            cs.goodAt.push_back({at, 1.0});
        if (ready <= end) {
            const double doneS = secondsBetween(start, ready);
            if (inBound)
                st.doneAt.push_back({doneS, 1.0});
            if (p.cls == TaskClass::Background)
                st.backgroundAt.push_back({doneS, 1.0});
        }
        if (p.rung >= 0) {
            RungStats &rs = st.rung[p.rung];
            rs.latAt.push_back({at, lat});
            if (lat <= kInteractiveBoundS)
                rs.goodAt.push_back({at, 1.0});
        }
        if (p.sample >= 0) {
            st.samples[p.sample].logits = std::move(r.logits);
            st.samples[p.sample].done = true;
        }
    };

    // Submit one request; refused ones are final immediately.
    const auto submit = [&](TaskClass cls, std::size_t model,
                            std::size_t input, Clock::time_point due,
                            int rung, bool sample,
                            std::vector<Pending> &into) {
        ClassStats &cs = st.cls[classIndex(cls)];
        ++cs.sent;
        if (rung >= 0)
            ++st.rung[rung].sent;
        Pending p;
        p.due = due;
        p.cls = cls;
        p.model = model;
        p.rung = rung;
        Tensor x = inputs[model][input];
        // Every foreground request gets spans; background ones, two
        // thirds of the traffic, one in 64, to keep the span file small.
        const bool spanned =
            tracing && (cls != TaskClass::Background || ++bgSeen % 64 == 0);
        const Clock::time_point call = Clock::now();
        if (spanned)
            p.span = tr.add("request", "serve", due, due, phase,
                            ++requestId);
        MultiTenantEngine::Submission sub =
            engine.submit(model, cls, std::move(x));
        if (tracing) {
            const Clock::time_point back = Clock::now();
            if (spanned)
                tr.add("MultiTenantEngine::submit", "serve", call, back,
                       p.span, requestId);
            st.submitS.push_back(secondsBetween(call, back));
        }
        if (sub.status != SubmitStatus::Accepted) {
            ++cs.refused;
            if (rung >= 0) {
                ++st.rung[rung].refused;
                st.rung[rung].missAt.push_back(
                    {secondsBetween(start, due), kMissS});
            }
            tr.close(p.span, call);
            return;
        }
        if (sample && st.samples.size() < kMaxSamples) {
            p.sample = int(st.samples.size());
            st.samples.push_back({model, input, Tensor(), false});
        }
        p.fut = std::move(sub.result);
        into.push_back(std::move(p));
    };

    const auto harvest = [&](std::vector<Pending> &v) {
        for (std::size_t i = 0; i < v.size();) {
            if (v[i].fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                finish(v[i], Clock::now());
                v[i] = std::move(v.back());
                v.pop_back();
            } else {
                ++i;
            }
        }
    };

    // One pass: submit what is due, collect what is ready, top up the
    // background window. The loop never sleeps, so a completion is
    // seen within one pass of landing.
    std::size_t next = 0;
    std::size_t bgCursor = 0;
    std::uint64_t bgSent = 0;
    Clock::time_point lastPass = Clock::now();
    for (;;) {
        Clock::time_point now = Clock::now();
        if (now >= start && now <= end) {
            ++st.polls;
            st.pollMaxS = std::max(st.pollMaxS, secondsBetween(lastPass, now));
        }
        lastPass = now;
        while (next < sched.size()) {
            const Arrival &a = sched[next];
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(a.dueS));
            if (due > now)
                break;
            st.genLateS.push_back(secondsBetween(due, now));
            submit(a.cls, a.model, a.input, due, a.rung,
                   next % stride == 0, fg);
            ++next;
            now = Clock::now();
        }
        harvest(fg);
        harvest(bg);
        // Top the window up; a refusal (full queue) ends this pass.
        while (now < end && now >= start && bg.size() < kBackgroundWindow) {
            const std::size_t m = mix[bgCursor++ % 3];
            const std::size_t before = bg.size();
            submit(TaskClass::Background, m,
                   rng.below(kInputsPerModel), now, -1,
                   bgSent++ % 1024 == 0, bg);
            now = Clock::now();
            if (bg.size() == before)
                break;
        }
        if (next == sched.size() && now >= end &&
            fg.empty() && bg.empty())
            break;
        std::this_thread::yield();
    }
    tr.close(phase, Clock::now());

    const pcnn::TenantMetricsSnapshot after = engine.metrics();
    st.evicted = after.backgroundEvicted - before.backgroundEvicted;
    return st;
}

/** Bitwise check of sampled served logits against the prototype. */
std::uint64_t
checkSamples(pcnn::ModelRegistry &reg, const TrafficStats &st,
             const std::vector<std::vector<Tensor>> &inputs,
             std::size_t &checked)
{
    std::uint64_t bad = 0;
    Tensor ref;
    for (const Sample &s : st.samples) {
        if (!s.done)
            continue; // shed: nothing served to check
        ++checked;
        reg.model(s.model).prototype().forwardInto(inputs[s.model][s.input],
                                                   false, ref);
        if (!sameBits(ref, s.logits))
            ++bad;
    }
    return bad;
}

/** Relative error of the engine's service estimate for one model. */
double
estimateError(const pcnn::Model &model,
              const std::vector<std::pair<std::size_t, double>> &obs)
{
    // Per batch size: median measured service vs the EWMA estimate,
    // weighted by how many requests rode at that size.
    double err = 0.0, weight = 0.0;
    for (std::size_t b = 1; b <= model.maxBatch(); ++b) {
        std::vector<double> v;
        for (const auto &[bs, s] : obs)
            if (bs == b)
                v.push_back(s);
        if (v.empty())
            continue;
        const double med = median(v);
        if (med <= 0.0)
            continue;
        err += double(v.size()) *
               (model.estimator().estS(b) - med) / med;
        weight += double(v.size());
    }
    return weight > 0.0 ? err / weight : 0.0;
}

/** End-to-end view of a traffic run, as the workload defines it. */
struct EndToEnd
{
    double p50Ms = 0.0;
    double throughput = 0.0;
    std::size_t n = 0;
};

/**
 * Highest rung meeting the 100 ms bound at p99, refused and shed
 * requests counted as misses, in the median of its windows; the
 * window-median in-bound completion rate of that rung is the capacity
 * figure (0 when no rung passes). Rungs above 12000 req/s are not
 * offered, so the figure tops out there.
 */
double
maxInteractiveRps(const TrafficStats &st)
{
    const double rungS = st.windowS / 3.0;
    for (int r = 2; r >= 0; --r) {
        const RungStats &rs = st.rung[r];
        std::vector<Stamped> outcomes = rs.latAt;
        outcomes.insert(outcomes.end(), rs.missAt.begin(), rs.missAt.end());
        const Windowed w = windowed(outcomes, rungS * r, rungS);
        if (w.n > 0 && w.p99 <= kInteractiveBoundS)
            return windowedRate(rs.goodAt, rungS * r, rungS);
    }
    return 0.0;
}

EndToEnd
endToEnd(const TrafficStats &st)
{
    EndToEnd e;
    // The 3000 and 6000 rungs, the first two thirds of the run. Both
    // stay below the knee when the host runs slow, so their median
    // interactive latency is service time plus scheduling; the 12000
    // rung queues once the host slows and is printed only.
    const Windowed w =
        windowed(st.cls[classIndex(TaskClass::Interactive)].latAt, 0.0,
                 st.windowS * 2.0 / 3.0);
    e.p50Ms = w.p50 * 1e3;
    e.n = w.n;
    // In-bound completions of every class per second. The background
    // window keeps the workers busy whatever the rung, so this is set
    // by how fast the engine serves, not by the offered rates.
    e.throughput = windowedRate(st.doneAt, 0.0, st.windowS);
    return e;
}

/** Print the named end-to-end figures of a run, gated or not. */
void
noteEndToEnd(Report &rep, const TrafficStats &st)
{
    const ClassStats &in = st.cls[classIndex(TaskClass::Interactive)];
    const ClassStats &rt = st.cls[classIndex(TaskClass::RealTime)];
    const ClassStats &bgs = st.cls[classIndex(TaskClass::Background)];
    const EndToEnd e = endToEnd(st);
    rep.note("bench.poll_us.mean",
             st.polls ? st.windowS / double(st.polls) * 1e6 : 0.0, "us",
             st.polls);
    rep.note("bench.poll_us.max", st.pollMaxS * 1e6, "us", st.polls);
    rep.note("interactive_p50_ms", e.p50Ms, "ms", e.n);
    rep.note("completed_rps", e.throughput, "req/s", st.doneAt.size());
    for (int r = 0; r < 3; ++r) {
        const double rungS = st.windowS / 3.0;
        rep.note(std::string("completed_rps.") + kRungNames[r],
                 windowedRate(st.doneAt, rungS * r, rungS),
                 "req/s");
    }
    rep.note("goodput_rps", double(in.goodAt.size()) / st.windowS, "req/s",
             in.sent);
    rep.note("max_interactive_rps", maxInteractiveRps(st), "req/s",
             in.sent);
    for (int r = 0; r < 3; ++r) {
        const double rungS = st.windowS / 3.0;
        const Windowed w =
            windowed(st.rung[r].latAt, rungS * r, rungS);
        rep.note(std::string("interactive_p50_ms.") + kRungNames[r],
                 w.p50 * 1e3, "ms", w.n);
        rep.note(std::string("interactive_p99_ms.") + kRungNames[r],
                 w.p99 * 1e3, "ms", w.n);
    }
    const std::uint64_t missed = rt.refused + rt.shed + rt.late;
    rep.note("realtime_miss_share",
             rt.sent ? double(missed) / double(rt.sent) : 0.0, "ratio",
             rt.sent);
    const Summary rts = summarize(valuesOf(rt.latAt));
    rep.note("realtime_p99_ms", rts.p99 * 1e3, "ms", rts.n);
    rep.note("background_rps",
             windowedRate(st.backgroundAt, 0.0, st.windowS),
             "req/s", bgs.sent);
    for (std::size_t c = 0; c < 3; ++c) {
        const ClassStats &cs = st.cls[c];
        const std::string k = std::string("requests.") + kClassNames[c];
        rep.note(k + ".sent", double(cs.sent), "count");
        rep.note(k + ".served", double(cs.served), "count");
        rep.note(k + ".refused_shed", double(cs.refused + cs.shed),
                 "count");
    }
}

/** Per-layer serving metrics of a traced run. */
void
reportServing(Report &rep, pcnn::ModelRegistry *reg,
              const TrafficStats &st)
{
    const Summary sub = summarize(st.submitS);
    rep.metric("serve.submit_us.p50", sub.p50 * 1e6, "us", sub.n);
    rep.metric("serve.submit_us.p99", sub.p99 * 1e6, "us", sub.n);
    const Summary late = summarize(st.genLateS);
    rep.metric("bench.gen_late_ms.p99", late.p99 * 1e3, "ms", late.n);
    rep.metric("bench.gen_late_ms.max", late.max * 1e3, "ms", late.n);
    for (std::size_t c = 0; c < 3; ++c) {
        const ClassStats &cs = st.cls[c];
        const std::string cn = kClassNames[c];
        const Summary q = summarize(cs.queueS);
        rep.metric("serve.queue_wait_ms." + cn + ".p50", q.p50 * 1e3, "ms",
                   q.n);
        rep.metric("serve.queue_wait_ms." + cn + ".p99", q.p99 * 1e3, "ms",
                   q.n);
        rep.metric("serve.batch_mean." + cn, summarize(cs.batch).mean,
                   "count", cs.batch.size());
        rep.metric("serve.refused." + cn, double(cs.refused), "count");
        rep.metric("serve.shed." + cn, double(cs.shed), "count");
        if (c != classIndex(TaskClass::Background))
            rep.metric("serve.late_share." + cn,
                       cs.served ? double(cs.late) / double(cs.served)
                                 : 0.0,
                       "ratio", cs.served);
    }
    const ClassStats &rt = st.cls[classIndex(TaskClass::RealTime)];
    const Summary rts = summarize(valuesOf(rt.latAt));
    rep.metric("serve.realtime_p99_ms", rts.p99 * 1e3, "ms", rts.n);
    const Windowed iw =
        windowed(st.cls[classIndex(TaskClass::Interactive)].latAt, 0.0,
                 st.windowS);
    rep.metric("serve.interactive_p99_ms", iw.p99 * 1e3, "ms", iw.n);
    rep.metric("serve.background_rps",
               windowedRate(st.backgroundAt, 0.0, st.windowS),
               "1/s", st.backgroundAt.size());
    rep.metric("serve.evicted", double(st.evicted), "count");

    const char *models[4] = {kMixModels[0], kMixModels[1], kMixModels[2],
                             kRealTimeModel};
    for (const char *name : models) {
        std::string key = name;
        std::replace(key.begin(), key.end(), '/', '-');
        std::vector<double> svc;
        double err = 0.0;
        if (reg != nullptr) {
            const std::size_t m = reg->indexOf(name);
            for (const auto &o : st.service[m])
                svc.push_back(o.second);
            err = estimateError(reg->model(m), st.service[m]);
        }
        const Summary s = summarize(svc);
        rep.metric("serve.service_ms." + key + ".p50", s.p50 * 1e3, "ms",
                   s.n);
        rep.metric("serve.estimate_error." + key, err, "ratio", s.n);
    }
    for (int r = 0; r < 3; ++r) {
        const RungStats &rs = st.rung[r];
        const Summary s = summarize(valuesOf(rs.latAt));
        const std::string rn = kRungNames[r];
        rep.metric("serve.rung_p50_ms." + rn, s.p50 * 1e3, "ms", s.n);
        rep.metric("serve.rung_p99_ms." + rn, s.p99 * 1e3, "ms", s.n);
        rep.metric("serve.rung_failed_share." + rn,
                   rs.sent ? double(rs.refused + rs.shed) / double(rs.sent)
                           : 0.0,
                   "ratio", rs.sent);
    }
}

} // namespace

std::size_t
tenantWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;
}

void
registerTenantZoo(pcnn::ModelRegistry &reg)
{
    pcnn::Rng weights(42);
    pcnn::registerMiniZoo(reg, weights, kMaxBatch, tenantWorkers());
}

pcnn::MultiEngineConfig
tenantEngineConfig()
{
    pcnn::MultiEngineConfig cfg;
    cfg.workers = tenantWorkers();
    cfg.lanesPerWorker = 1;
    cfg.initialReplicas = cfg.workers;
    return cfg;
}

void
reportNoServing(Report &rep)
{
    reportServing(rep, nullptr, TrafficStats{});
}

void
runTenant(const Options &opts, Report &rep, Tracer &tr)
{
    const pcnn::MultiEngineConfig cfg = tenantEngineConfig();
    rep.line("engine " + std::to_string(cfg.workers) + " workers x " +
             std::to_string(cfg.lanesPerWorker) +
             " lanes, 1 load generator, max batch " +
             std::to_string(kMaxBatch));

    // Set-up: zoo registered (prototypes built, schedules compiled),
    // engine started (replicas cloned and warmed).
    auto reg = std::make_unique<pcnn::ModelRegistry>();
    registerTenantZoo(*reg);
    auto engine = std::make_unique<MultiTenantEngine>(*reg, cfg);
    if (opts.setupOnly) {
        reportReady();
        engine->stop();
        return;
    }

    std::size_t mix[3];
    for (std::size_t m = 0; m < 3; ++m)
        mix[m] = reg->indexOf(kMixModels[m]);
    const std::size_t rtModel = reg->indexOf(kRealTimeModel);

    pcnn::Rng inRng(opts.seed);
    std::vector<std::vector<Tensor>> inputs(reg->size());
    for (std::size_t m = 0; m < reg->size(); ++m) {
        const pcnn::Shape &s = reg->model(m).inputShape();
        for (std::size_t i = 0; i < kInputsPerModel; ++i) {
            Tensor t(pcnn::Shape{1, s.c, s.h, s.w});
            t.fillUniform(inRng, -1.0f, 1.0f);
            inputs[m].push_back(std::move(t));
        }
    }

    // Untraced runs measure the whole window; traced runs split it
    // into an untraced half and a traced half of the same schedule
    // so the difference is the tracing overhead.
    const double span = opts.trace ? opts.seconds / 2.0 : opts.seconds;
    Tracer off(false);
    // Unmeasured warm-up traffic: every replica serves and the service
    // estimates settle before the clock starts.
    const TrafficStats warm = driveTraffic(
        *engine, *reg,
        makeSchedule(kWarmupS, opts.seed + 2, mix, rtModel),
        kWarmupS, inputs, mix, opts.seed + 2, off);
    const std::vector<Arrival> sched =
        makeSchedule(span, opts.seed, mix, rtModel);
    TrafficStats plain = driveTraffic(*engine, *reg, sched, span, inputs,
                                      mix, opts.seed, off);
    TrafficStats traced;
    if (opts.trace)
        traced = driveTraffic(*engine, *reg, sched, span, inputs, mix,
                              opts.seed + 1, tr);
    engine->stop();

    std::size_t checked = 0;
    std::uint64_t sent = 0, bad = 0;
    std::uint64_t broken = warm.failed + plain.failed + traced.failed;
    const TrafficStats *runs[] = {&warm, &plain, &traced};
    for (const TrafficStats *st : runs) {
        bad += checkSamples(*reg, *st, inputs, checked);
        for (const ClassStats &cs : st->cls)
            sent += cs.sent;
    }
    rep.note("check.bitwise_samples", double(checked), "count");
    rep.note("check.mismatches", double(bad), "count");
    rep.note("check.broken_futures", double(broken), "count");
    rep.attempted += sent;
    rep.failed += bad + broken;

    noteEndToEnd(rep, plain);
    const EndToEnd e = endToEnd(plain);
    if (!opts.trace) {
        rep.metric("latency_ms", e.p50Ms, "ms", e.n);
        rep.metric("throughput_per_s", e.throughput, "1/s",
                   plain.doneAt.size());
        return;
    }
    const EndToEnd t = endToEnd(traced);
    rep.metric("trace.overhead_share.latency_ms", t.p50Ms / e.p50Ms - 1.0,
               "ratio");
    rep.metric("trace.overhead_share.throughput_per_s",
               e.throughput / t.throughput - 1.0, "ratio");
    reportServing(rep, reg.get(), traced);
}

} // namespace perfbench
