#include "pcnn/offline/host_tuner.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "common/tags.hh"
#include "common/random.hh"
#include "nn/model_zoo.hh"

namespace pcnn {

namespace {

// Caps a hostile cache file cannot exceed: blocking dimensions far
// beyond any cache hierarchy, prefetch distances beyond any K, cache
// sizes beyond any machine. Values outside these are parse errors.
constexpr std::size_t kBlockCap = 1u << 24;
constexpr std::size_t kPrefetchCap = 4096;
constexpr std::size_t kCacheCap = std::size_t(1) << 40;

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (std::uint8_t(ch) >= 0x20) {
            out += ch;
        }
        // control characters (none occur in cpuinfo strings) dropped
    }
    out += '"';
}

/**
 * Strict scanner for the flat tune-cache document. Same hostile-input
 * stance as plan_io's Reader: any deviation — truncation, unknown
 * escape, non-digit where a number belongs — fails the whole parse
 * rather than guessing.
 */
class JsonScan
{
  public:
    explicit JsonScan(const std::string &text)
        : s(text)
    {
    }

    bool
    lit(char c)
    {
        ws();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    str(std::string &out)
    {
        if (!lit('"'))
            return false;
        out.clear();
        while (pos < s.size() && s[pos] != '"') {
            char ch = s[pos++];
            if (ch == '\\') {
                if (pos >= s.size())
                    return false;
                ch = s[pos++];
                if (ch != '"' && ch != '\\')
                    return false; // only the escapes we ever write
            } else if (std::uint8_t(ch) < 0x20) {
                return false; // raw control char (incl. newline)
            }
            out += ch;
        }
        return pos < s.size() && s[pos++] == '"';
    }

    bool
    uint(std::uint64_t &out)
    {
        ws();
        if (pos >= s.size() || s[pos] < '0' || s[pos] > '9')
            return false;
        out = 0;
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
            const std::uint64_t digit = std::uint64_t(s[pos] - '0');
            if (out > (std::numeric_limits<std::uint64_t>::max() -
                       digit) / 10)
                return false; // overflow
            out = out * 10 + digit;
            ++pos;
        }
        return true;
    }

    bool
    done()
    {
        ws();
        return pos == s.size();
    }

  private:
    void
    ws()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    const std::string &s;
    std::size_t pos = 0;
};

/** RAII save/restore of the kernel dispatch state across a sweep. */
class DispatchGuard
{
  public:
    DispatchGuard()
        : tierPinned(kernelTierPinned()), tier(activeKernelTier()),
          blkPinned(blockingPinned()), blk(activeBlocking())
    {
    }

    ~DispatchGuard()
    {
        if (tierPinned)
            setKernelTier(tier);
        else
            resetKernelTier();
        if (blkPinned)
            setBlocking(blk);
        else
            resetBlocking();
    }

    DispatchGuard(const DispatchGuard &) = delete;
    DispatchGuard &operator=(const DispatchGuard &) = delete;

  private:
    bool tierPinned;
    KernelTier tier;
    bool blkPinned;
    GemmBlocking blk;
};

/** One sweep shape with its operand buffers, filled once. */
struct ShapeBuffers
{
    GemmShape g;
    std::vector<float> a, b, c;
};

std::vector<ShapeBuffers>
makeBuffers(const std::vector<GemmShape> &shapes)
{
    Rng rng(0x705e);
    std::vector<ShapeBuffers> bufs;
    bufs.reserve(shapes.size());
    for (const GemmShape &g : shapes) {
        ShapeBuffers sb;
        sb.g = g;
        sb.a.resize(g.m * g.k);
        sb.b.resize(g.k * g.n);
        sb.c.resize(g.m * g.n);
        for (float &v : sb.a)
            v = float(rng.uniform(-1.0, 1.0));
        for (float &v : sb.b)
            v = float(rng.uniform(-1.0, 1.0));
        bufs.push_back(std::move(sb));
    }
    return bufs;
}

/** Minimum across `reps` of the total wall time over the shape set. */
double
timeShapeSet(std::vector<ShapeBuffers> &bufs, std::size_t reps)
{
    using Clock = std::chrono::steady_clock;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (ShapeBuffers &sb : bufs)
            sgemm(false, false, sb.g.m, sb.g.n, sb.g.k, sb.a.data(),
                  sb.b.data(), sb.c.data());
        const std::chrono::duration<double> dt = Clock::now() - t0;
        best = std::min(best, dt.count());
    }
    return best;
}

const ConvSpec &
convByName(const NetDescriptor &d, const char *name)
{
    for (const ConvSpec &c : d.convs)
        if (c.name == name)
            return c;
    pcnn_assert(false, "host tuner: ", d.name, " has no layer ", name);
    return d.convs.front(); // unreachable
}

} // namespace

HostTuneConfig
HostTuneConfig::forThisHost()
{
    HostTuneConfig cfg;
    cfg.cpuModel = cpuFeatures().model;
    cfg.features = cpuFeatures().str();
    cfg.l1d = cacheInfo().l1d;
    cfg.l2 = cacheInfo().l2;
    cfg.l3 = cacheInfo().l3;
    cfg.tier = bestKernelTier();
    cfg.blocking = defaultBlocking(cfg.tier);
    return cfg;
}

bool
HostTuneConfig::matchesThisHost() const
{
    return cpuModel == cpuFeatures().model &&
           features == cpuFeatures().str();
}

std::string
hostTuneCachePath()
{
    if (const char *env = std::getenv("PCNN_TUNE_CACHE");
        env != nullptr && *env != '\0')
        return env;
    if (const char *home = std::getenv("HOME");
        home != nullptr && *home != '\0')
        return std::string(home) + "/.cache/pcnn/hosttune-v1.json";
    return "hosttune-v1.json";
}

std::string
serializeHostTune(const HostTuneConfig &cfg)
{
    std::string out = "{\n";
    const auto num = [&](const char *key, std::uint64_t v,
                         bool last = false) {
        out += "  \"";
        out += key;
        out += "\": ";
        out += std::to_string(v);
        out += last ? "\n" : ",\n";
    };
    const auto str = [&](const char *key, const std::string &v) {
        out += "  \"";
        out += key;
        out += "\": ";
        appendJsonString(out, v);
        out += ",\n";
    };
    num("version", std::uint64_t(cfg.version));
    str("cpu_model", cfg.cpuModel);
    str("features", cfg.features);
    num("l1d", cfg.l1d);
    num("l2", cfg.l2);
    num("l3", cfg.l3);
    str("tier", kernelTierName(cfg.tier));
    num("kc", cfg.blocking.kc);
    num("mc", cfg.blocking.mc);
    num("nc", cfg.blocking.nc);
    num("prefetch", cfg.blocking.prefetch, true);
    out += "}\n";
    return out;
}

bool
parseHostTune(const std::string &text, HostTuneConfig &out,
              std::string &err)
{
    const auto fail = [&](const std::string &why) {
        err = why;
        return false;
    };

    JsonScan sc(text);
    if (!sc.lit('{'))
        return fail("not a JSON object");

    // Exactly these keys, each exactly once, in any order.
    std::string cpu_model, features, tier_name;
    std::uint64_t version = 0, l1d = 0, l2 = 0, l3 = 0;
    std::uint64_t kc = 0, mc = 0, nc = 0, prefetch = 0;
    bool seen[11] = {};
    const char *names[11] = {"version",  "cpu_model", "features",
                             "l1d",      "l2",        "l3",
                             "tier",     "kc",        "mc",
                             "nc",       "prefetch"};
    std::uint64_t *nums[11] = {&version, nullptr, nullptr, &l1d,
                               &l2,      &l3,     nullptr, &kc,
                               &mc,      &nc,     &prefetch};
    std::string *strs[11] = {nullptr,     &cpu_model, &features,
                             nullptr,     nullptr,    nullptr,
                             &tier_name,  nullptr,    nullptr,
                             nullptr,     nullptr};

    bool first = true;
    while (!sc.lit('}')) {
        if (!first && !sc.lit(','))
            return fail("missing ',' between members");
        first = false;
        std::string key;
        if (!sc.str(key))
            return fail("malformed member key");
        if (!sc.lit(':'))
            return fail("missing ':' after \"" + key + "\"");
        int idx = -1;
        for (int i = 0; i < 11; ++i)
            if (key == names[i])
                idx = i;
        if (idx < 0)
            return fail("unknown key \"" + key + "\"");
        if (seen[idx])
            return fail("duplicate key \"" + key + "\"");
        seen[idx] = true;
        if (nums[idx] != nullptr) {
            if (!sc.uint(*nums[idx]))
                return fail("key \"" + key +
                            "\" is not an unsigned integer");
        } else if (!sc.str(*strs[idx])) {
            return fail("key \"" + key + "\" is not a string");
        }
    }
    if (!sc.done())
        return fail("trailing content after the object");
    for (int i = 0; i < 11; ++i)
        if (!seen[i])
            return fail(std::string("missing key \"") + names[i] +
                        "\"");

    if (version != std::uint64_t(kHostTuneVersion))
        return fail("format version " + std::to_string(version) +
                    " (this build reads " +
                    std::to_string(kHostTuneVersion) + ")");
    KernelTier tier;
    if (!parseKernelTier(tier_name, tier))
        return fail("unknown tier \"" + tier_name + "\"");
    if (l1d > kCacheCap || l2 > kCacheCap || l3 > kCacheCap)
        return fail("cache size out of range");
    if (kc == 0 || kc > kBlockCap || mc == 0 || mc > kBlockCap ||
        nc == 0 || nc > kBlockCap)
        return fail("blocking value out of range");
    if (prefetch > kPrefetchCap)
        return fail("prefetch distance out of range");

    out.version = int(version);
    out.cpuModel = cpu_model;
    out.features = features;
    out.l1d = l1d;
    out.l2 = l2;
    out.l3 = l3;
    out.tier = tier;
    out.blocking = GemmBlocking{kc, mc, nc, prefetch};
    err.clear();
    return true;
}

bool
saveHostTune(const HostTuneConfig &cfg, const std::string &path)
{
    std::error_code ec;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec); // best effort
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    const std::string doc = serializeHostTune(cfg);
    f.write(doc.data(), std::streamsize(doc.size()));
    return static_cast<bool>(f);
}

PCNN_BINARY_READER
bool
loadHostTune(const std::string &path, HostTuneConfig &out,
             std::string &err)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        err = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    if (!parseHostTune(ss.str(), out, err))
        return false;
    if (!out.matchesThisHost()) {
        err = "host mismatch: cache is for \"" + out.cpuModel + "\" (" +
              out.features + "), this host is \"" +
              cpuFeatures().model + "\" (" + cpuFeatures().str() + ")";
        return false;
    }
    if (!kernelTierSupported(out.tier)) {
        err = std::string("tier ") + kernelTierName(out.tier) +
              " is not supported on this host";
        return false;
    }
    return true;
}

void
applyHostTune(const HostTuneConfig &cfg)
{
    setKernelTier(cfg.tier);
    setBlocking(cfg.blocking);
}

bool
applyHostTuneCacheOnce()
{
    static const bool applied = [] {
        // Refuse to flip tier/blocking once a GEMM has executed:
        // fp32 results computed before the flip (e.g. a prototype
        // forward taken as a bitwise reference) would differ from
        // everything computed after it. Processes that want the
        // tuned config must reach this hook before their first
        // forward; the serving engine's constructor does.
        if (gemmHasRun())
            return false;
        HostTuneConfig cfg;
        std::string err;
        if (!loadHostTune(hostTuneCachePath(), cfg, err))
            return false;
        applyHostTune(cfg);
        return true;
    }();
    return applied;
}

std::vector<GemmShape>
hostTuneShapes()
{
    std::vector<GemmShape> shapes;
    const auto add = [&](const GemmShape &g) {
        for (const GemmShape &h : shapes)
            if (h.m == g.m && h.n == g.n && h.k == g.k)
                return;
        shapes.push_back(g);
    };

    // Every distinct conv GEMM plus the FC tail of the trainable zoo
    // at serving batch 1.
    Rng rng(1);
    const NetDescriptor minis[] = {
        describe(makeMiniNet(MiniSize::Medium, rng)),
        describe(makeMiniAlexNet(rng)),
        describe(makeMiniVgg(rng)),
        describe(makeMiniInception(rng)),
    };
    for (const NetDescriptor &d : minis) {
        for (const ConvSpec &c : d.convs)
            add(c.gemmShape(1));
        for (const auto &[in_f, out_f] : d.fcs)
            add(GemmShape{1, out_f, in_f});
    }

    // The paper networks' large-K conv shapes — the BENCH_pr6 e2e
    // acceptance set.
    add(convByName(alexNet(), "CONV2").gemmShape(1));
    const NetDescriptor vgg = vgg16();
    add(convByName(vgg, "CONV2_1").gemmShape(1));
    add(convByName(vgg, "CONV3_1").gemmShape(1));
    return shapes;
}

HostTuneResult
autotuneHost(const HostTuneOptions &opts)
{
    DispatchGuard guard;
    HostTuneResult res;
    res.config = HostTuneConfig::forThisHost();

    std::vector<ShapeBuffers> bufs = makeBuffers(hostTuneShapes());
    const std::size_t reps = std::max<std::size_t>(1, opts.reps);

    KernelTier best_tier = KernelTier::Portable;
    GemmBlocking best_blk = defaultBlocking(best_tier);
    double best_s = std::numeric_limits<double>::infinity();

    const auto trial = [&](KernelTier tier, const GemmBlocking &blk) {
        setKernelTier(tier);
        setBlocking(blk);
        const double s = timeShapeSet(bufs, reps);
        res.trials.push_back(HostTuneTrial{tier, blk, s});
        if (s < best_s) {
            best_s = s;
            best_tier = tier;
            best_blk = blk;
        }
    };

    // Stage 1: race every supported tier at its cache-derived default.
    for (KernelTier t : supportedKernelTiers())
        trial(t, defaultBlocking(t));

    if (!opts.quick) {
        const MicroKernel &mk = microKernelFor(best_tier);
        const auto align_down = [](std::size_t v, std::size_t unit) {
            return std::max(unit, v - v % unit);
        };
        const auto race = [&](std::vector<GemmBlocking> cands) {
            for (const GemmBlocking &blk : cands)
                if (!(blk == best_blk))
                    trial(best_tier, blk);
        };

        // Stage 2: coordinate sweep of Kc, then Nc, then Mc, halving
        // and doubling around the incumbent.
        {
            std::vector<GemmBlocking> c;
            for (std::size_t kc :
                 {best_blk.kc / 2, best_blk.kc * 2}) {
                GemmBlocking b = best_blk;
                b.kc = std::clamp<std::size_t>(kc, 32, 1024);
                c.push_back(b);
            }
            race(std::move(c));
        }
        {
            std::vector<GemmBlocking> c;
            for (std::size_t nc :
                 {best_blk.nc / 2, best_blk.nc * 2}) {
                GemmBlocking b = best_blk;
                b.nc = align_down(nc, mk.nr);
                c.push_back(b);
            }
            race(std::move(c));
        }
        {
            std::vector<GemmBlocking> c;
            for (std::size_t mc :
                 {best_blk.mc / 2, best_blk.mc * 2}) {
                GemmBlocking b = best_blk;
                b.mc = align_down(mc, mk.mr);
                c.push_back(b);
            }
            race(std::move(c));
        }

        // Stage 3: software-prefetch distance on the winner.
        {
            std::vector<GemmBlocking> c;
            for (std::size_t pf : {std::size_t(2), std::size_t(4),
                                   std::size_t(8)}) {
                GemmBlocking b = best_blk;
                b.prefetch = pf;
                c.push_back(b);
            }
            race(std::move(c));
        }
    }

    res.config.tier = best_tier;
    res.config.blocking = best_blk;
    return res;
}

HostTuneResult
ensureHostTuned(const std::string &path, const HostTuneOptions &opts)
{
    {
        HostTuneConfig cfg;
        std::string err;
        if (loadHostTune(path, cfg, err)) {
            HostTuneResult res;
            res.config = cfg;
            res.fromCache = true;
            return res;
        }
    }
    HostTuneResult res = autotuneHost(opts);
    if (!saveHostTune(res.config, path))
        pcnn_warn("host tuner: cannot write tune cache ", path);
    return res;
}

} // namespace pcnn
