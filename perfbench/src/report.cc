/**
 * @file
 * Sample summaries, the result report and the span tracer.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hh"
#include "pcnn/runtime/histogram.hh"

namespace perfbench {

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.p50 = pcnn::percentileOfSorted(v, 0.50);
    s.p99 = pcnn::percentileOfSorted(v, 0.99);
    s.max = v.back();
    double sum = 0.0;
    for (double x : v)
        sum += x;
    s.mean = sum / double(v.size());
    return s;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return pcnn::percentileOfSorted(v, q);
}

std::vector<Summary>
perWindow(const std::vector<Stamped> &s, double from, double span)
{
    const std::size_t windows = windowsIn(span);
    std::vector<std::vector<double>> w(windows);
    for (const Stamped &x : s) {
        const double k = (x.t - from) / span * double(windows);
        if (k >= 0.0 && k < double(windows))
            w[static_cast<std::size_t>(k)].push_back(x.v);
    }
    std::vector<Summary> out;
    for (std::vector<double> &v : w)
        if (!v.empty())
            out.push_back(summarize(std::move(v)));
    return out;
}

Windowed
windowed(const std::vector<Stamped> &s, double from, double span)
{
    Windowed out;
    std::vector<double> p50, p99;
    for (const Summary &w : perWindow(s, from, span)) {
        p50.push_back(w.p50);
        p99.push_back(w.p99);
        out.n += w.n;
    }
    out.p50 = median(p50);
    out.p99 = median(p99);
    return out;
}

double
windowedRate(const std::vector<Stamped> &s, double from, double span)
{
    if (span <= 0.0)
        return 0.0;
    const std::size_t windows = windowsIn(span);
    std::vector<double> sum(windows, 0.0);
    for (const Stamped &x : s) {
        const double k = (x.t - from) / span * double(windows);
        if (k >= 0.0 && k < double(windows))
            sum[static_cast<std::size_t>(k)] += x.v;
    }
    for (double &r : sum)
        r /= span / double(windows);
    return median(sum);
}

double
median(std::vector<double> v)
{
    return summarize(std::move(v)).p50;
}

namespace {

void
printLine(const std::string &name, double value, const std::string &unit,
          std::size_t n)
{
    if (n > 0)
        std::printf("%-44s %14.6g %-6s n=%zu\n", name.c_str(), value,
                    unit.c_str(), n);
    else
        std::printf("%-44s %14.6g %s\n", name.c_str(), value,
                    unit.c_str());
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t n)
{
    // JSON has no inf/nan; a non-finite metric is a benchmark bug.
    if (!std::isfinite(value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     name.c_str());
        value = -1.0;
        ++failed;
    }
    metrics.push_back({name, value, unit});
    printLine(name, value, unit, n);
}

void
Report::note(const std::string &name, double value,
             const std::string &unit, std::size_t n)
{
    printLine(name, value, unit, n);
}

void
Report::line(const std::string &text)
{
    std::printf("# %s\n", text.c_str());
}

void
Report::printResult() const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

Tracer::Tracer(bool enabled) : on(enabled), origin(Clock::now())
{
    if (on)
        spans.reserve(1u << 17);
}

std::uint32_t
Tracer::add(const char *name, const char *layer, Clock::time_point start,
            Clock::time_point end, std::uint32_t parent,
            std::uint64_t request)
{
    if (!on)
        return kNoParent;
    spans.push_back({name, layer, start, end, parent, request});
    return static_cast<std::uint32_t>(spans.size() - 1);
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimeByLayer() const
{
    // Children grouped by parent; a parent's covered time is the
    // union of its children's intervals clipped to the parent.
    std::vector<std::vector<std::uint32_t>> kids(spans.size());
    for (std::uint32_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != kNoParent)
            kids[spans[i].parent].push_back(i);

    std::map<std::string, double> self;
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (std::uint32_t k : kids[i])
            iv.emplace_back(std::max(spans[k].start, s.start),
                            std::min(spans[k].end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (const auto &[a, b] : iv) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += secondsBetween(from, b);
                reach = b;
            }
        }
        self[s.layer] += secondsBetween(s.start, s.end) - covered;
    }
    return {self.begin(), self.end()};
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(
            f,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,"
            "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}",
            i == 0 ? "" : ",\n", s.name, s.layer,
            secondsBetween(origin, s.start) * 1e6,
            secondsBetween(s.start, s.end) * 1e6, i,
            s.parent == kNoParent ? -1LL : (long long)s.parent,
            static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
reportReady()
{
    std::printf("ready\n");
    std::fflush(stdout);
}

} // namespace perfbench
