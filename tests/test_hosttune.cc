/**
 * @file
 * Per-host tune-cache contracts (pcnn/offline/host_tuner.hh): the
 * serialize/parse round trip, the hostile-input stance (truncated,
 * garbage, wrong-version, unknown-tier, out-of-range documents all
 * rejected with the defaults left in force), host-identity matching,
 * and the load-don't-resweep behavior of ensureHostTuned.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "pcnn/offline/host_tuner.hh"
#include "tensor/microkernel.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {
namespace {

/** Restore kernel dispatch state on scope exit. */
class DispatchStateGuard
{
  public:
    ~DispatchStateGuard()
    {
        resetKernelTier();
        resetBlocking();
    }
};

HostTuneConfig
sampleConfig()
{
    HostTuneConfig cfg = HostTuneConfig::forThisHost();
    cfg.blocking = GemmBlocking{96, 240, 320, 4};
    return cfg;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

TEST(HostTune, SerializeParseRoundTrip)
{
    const HostTuneConfig cfg = sampleConfig();
    HostTuneConfig back;
    std::string err;
    ASSERT_TRUE(parseHostTune(serializeHostTune(cfg), back, err))
        << err;
    EXPECT_EQ(back.version, cfg.version);
    EXPECT_EQ(back.cpuModel, cfg.cpuModel);
    EXPECT_EQ(back.features, cfg.features);
    EXPECT_EQ(back.l1d, cfg.l1d);
    EXPECT_EQ(back.l2, cfg.l2);
    EXPECT_EQ(back.l3, cfg.l3);
    EXPECT_EQ(back.tier, cfg.tier);
    EXPECT_TRUE(back.blocking == cfg.blocking);
}

TEST(HostTune, ParseRejectsTruncatedDocuments)
{
    const std::string doc = serializeHostTune(sampleConfig());
    HostTuneConfig out;
    std::string err;
    // Every proper prefix must fail cleanly, never crash or accept.
    for (std::size_t cut = 0; cut < doc.size();
         cut += 1 + cut / 8)
        EXPECT_FALSE(parseHostTune(doc.substr(0, cut), out, err))
            << "prefix of length " << cut << " accepted";
}

TEST(HostTune, ParseRejectsGarbage)
{
    HostTuneConfig out;
    std::string err;
    EXPECT_FALSE(parseHostTune("", out, err));
    EXPECT_FALSE(parseHostTune("not json at all", out, err));
    EXPECT_FALSE(parseHostTune("{}", out, err)); // all keys missing
    EXPECT_FALSE(parseHostTune("[1,2,3]", out, err));
    EXPECT_FALSE(parseHostTune("{\"version\": -1}", out, err));
    EXPECT_FALSE(parseHostTune(
        "{\"version\": 99999999999999999999999999}", out, err));
}

TEST(HostTune, ParseRejectsWrongVersion)
{
    std::string doc = serializeHostTune(sampleConfig());
    const std::string from = "\"version\": 1";
    doc.replace(doc.find(from), from.size(), "\"version\": 2");
    HostTuneConfig out;
    std::string err;
    EXPECT_FALSE(parseHostTune(doc, out, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(HostTune, ParseRejectsUnknownTier)
{
    HostTuneConfig cfg = sampleConfig();
    std::string doc = serializeHostTune(cfg);
    const std::string from =
        std::string("\"tier\": \"") + kernelTierName(cfg.tier) + "\"";
    doc.replace(doc.find(from), from.size(), "\"tier\": \"warp9\"");
    HostTuneConfig out;
    std::string err;
    EXPECT_FALSE(parseHostTune(doc, out, err));
    EXPECT_NE(err.find("tier"), std::string::npos) << err;
}

TEST(HostTune, ParseRejectsDuplicateUnknownAndTrailing)
{
    const std::string doc = serializeHostTune(sampleConfig());
    HostTuneConfig out;
    std::string err;
    // Duplicate member.
    std::string dup = doc;
    dup.insert(dup.find("\"version\""), "\"version\": 1,\n  ");
    EXPECT_FALSE(parseHostTune(dup, out, err));
    // Unknown member.
    std::string unknown = doc;
    unknown.insert(unknown.find("\"version\""), "\"bogus\": 1,\n  ");
    EXPECT_FALSE(parseHostTune(unknown, out, err));
    // Trailing content after the object.
    EXPECT_FALSE(parseHostTune(doc + "x", out, err));
}

TEST(HostTune, ParseRejectsOutOfRangeValues)
{
    HostTuneConfig out;
    std::string err;
    for (const char *from_to : {"\"kc\": 0", "\"mc\": 0", "\"nc\": 0",
                                "\"prefetch\": 1000000",
                                "\"kc\": 999999999"}) {
        std::string doc = serializeHostTune(sampleConfig());
        const std::string key =
            std::string(from_to).substr(0, std::string(from_to).find(':'));
        const std::size_t at = doc.find(key + ":");
        ASSERT_NE(at, std::string::npos);
        const std::size_t end = doc.find_first_of(",\n", at);
        doc.replace(at, end - at, from_to);
        EXPECT_FALSE(parseHostTune(doc, out, err)) << from_to;
    }
}

TEST(HostTune, SaveCreatesParentDirsAndLoadRoundTrips)
{
    const HostTuneConfig cfg = sampleConfig();
    const std::string path = tmpPath("nested/dirs/hosttune-v1.json");
    ASSERT_TRUE(saveHostTune(cfg, path));
    HostTuneConfig back;
    std::string err;
    ASSERT_TRUE(loadHostTune(path, back, err)) << err;
    EXPECT_EQ(back.tier, cfg.tier);
    EXPECT_TRUE(back.blocking == cfg.blocking);
}

TEST(HostTune, LoadRejectsMissingFile)
{
    HostTuneConfig out;
    std::string err;
    EXPECT_FALSE(
        loadHostTune(tmpPath("does-not-exist.json"), out, err));
    EXPECT_FALSE(err.empty());
}

TEST(HostTune, LoadRejectsForeignHost)
{
    HostTuneConfig cfg = sampleConfig();
    cfg.cpuModel = "Somebody Else's CPU @ 9.99GHz";
    const std::string path = tmpPath("foreign.json");
    ASSERT_TRUE(saveHostTune(cfg, path));
    HostTuneConfig out;
    std::string err;
    EXPECT_FALSE(loadHostTune(path, out, err));
    EXPECT_NE(err.find("host mismatch"), std::string::npos) << err;
}

TEST(HostTune, LoadRejectsUnsupportedTier)
{
    KernelTier unsupported = KernelTier::Portable;
    bool found = false;
    for (KernelTier t : {KernelTier::Neon, KernelTier::Avx2,
                         KernelTier::Avx512}) {
        if (!kernelTierSupported(t)) {
            unsupported = t;
            found = true;
            break;
        }
    }
    if (!found)
        GTEST_SKIP() << "every tier is supported on this host";
    HostTuneConfig cfg = sampleConfig();
    cfg.tier = unsupported;
    const std::string path = tmpPath("unsupported-tier.json");
    ASSERT_TRUE(saveHostTune(cfg, path));
    HostTuneConfig out;
    std::string err;
    EXPECT_FALSE(loadHostTune(path, out, err));
    EXPECT_NE(err.find("not supported"), std::string::npos) << err;
}

TEST(HostTune, CachePathHonorsEnvOverride)
{
    ASSERT_EQ(setenv("PCNN_TUNE_CACHE", "/tmp/my-tune.json", 1), 0);
    EXPECT_EQ(hostTuneCachePath(), "/tmp/my-tune.json");
    ASSERT_EQ(unsetenv("PCNN_TUNE_CACHE"), 0);
    EXPECT_NE(hostTuneCachePath().find("hosttune-v1.json"),
              std::string::npos);
}

TEST(HostTune, ApplyPinsTierAndBlocking)
{
    DispatchStateGuard guard;
    HostTuneConfig cfg = sampleConfig();
    cfg.tier = KernelTier::Portable; // supported everywhere
    ASSERT_TRUE(applyHostTune(cfg));
    EXPECT_TRUE(kernelTierPinned());
    EXPECT_TRUE(blockingPinned());
    EXPECT_EQ(activeKernelTier(), KernelTier::Portable);
    EXPECT_TRUE(activeBlocking() == cfg.blocking);
}

TEST(HostTune, TuneShapesNonEmptyAndDistinct)
{
    const std::vector<GemmShape> shapes = hostTuneShapes();
    ASSERT_FALSE(shapes.empty());
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        EXPECT_GT(shapes[i].m * shapes[i].n * shapes[i].k, 0u);
        for (std::size_t j = i + 1; j < shapes.size(); ++j)
            EXPECT_FALSE(shapes[i].m == shapes[j].m &&
                         shapes[i].n == shapes[j].n &&
                         shapes[i].k == shapes[j].k)
                << "duplicate shape at " << i << "," << j;
    }
}

// The headline contract: the first run sweeps and persists, the
// second run loads without re-sweeping, and both agree.
TEST(HostTune, CacheOnceDeclinesAfterFirstGemm)
{
    DispatchStateGuard guard;
    // A valid, host-matching cache sits at the default path...
    const std::string path = tmpPath("once/hosttune-v1.json");
    ASSERT_TRUE(saveHostTune(sampleConfig(), path));
    ASSERT_EQ(setenv("PCNN_TUNE_CACHE", path.c_str(), 1), 0);

    // ...but a GEMM has already run in this process, so the bitwise
    // value of fp32 results is committed to the current blocking.
    float a[4] = {1, 2, 3, 4}, b[4] = {5, 6, 7, 8}, c[4];
    sgemm(false, false, 2, 2, 2, a, b, c);
    ASSERT_TRUE(gemmHasRun());

    const GemmBlocking before = activeBlocking();
    const KernelTier tier = activeKernelTier();
    EXPECT_FALSE(applyHostTuneCacheOnce())
        << "cache applied after a GEMM already ran";
    EXPECT_TRUE(activeBlocking() == before);
    EXPECT_EQ(activeKernelTier(), tier);
    EXPECT_FALSE(blockingPinned());

    // The outcome latches: later calls must not re-try either.
    EXPECT_FALSE(applyHostTuneCacheOnce());
    ASSERT_EQ(unsetenv("PCNN_TUNE_CACHE"), 0);
}

TEST(HostTune, EnsureHostTunedSweepsOnceThenLoads)
{
    DispatchStateGuard guard;
    const std::string path = tmpPath("ensure/hosttune-v1.json");
    // TempDir() is stable across runs; drop any cache a previous
    // test invocation persisted so the first ensure really sweeps.
    std::filesystem::remove(path);
    HostTuneOptions opts;
    opts.quick = true;
    opts.reps = 1;

    const HostTuneResult first = ensureHostTuned(path, opts);
    EXPECT_FALSE(first.fromCache);
    EXPECT_FALSE(first.trials.empty());
    EXPECT_TRUE(first.config.matchesThisHost());
    EXPECT_TRUE(kernelTierSupported(first.config.tier));

    const HostTuneResult second = ensureHostTuned(path, opts);
    EXPECT_TRUE(second.fromCache);
    EXPECT_TRUE(second.trials.empty());
    EXPECT_EQ(second.config.tier, first.config.tier);
    EXPECT_TRUE(second.config.blocking == first.config.blocking);

    // The sweep must leave the dispatch state it found in place.
    EXPECT_FALSE(kernelTierPinned());
    EXPECT_FALSE(blockingPinned());
}

} // namespace
} // namespace pcnn
