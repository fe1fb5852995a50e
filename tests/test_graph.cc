/**
 * @file
 * Compiled-graph execution tests (DESIGN.md §5j).
 *
 * The contract under test has three legs:
 *
 *  1. Bitwise parity. The graph path invokes the same layer forwards
 *     in the same order on the same bytes as the unfused layer chain
 *     (tests/unfused_reference.hh), its fused ReLUs clamping exactly
 *     the sums a separate ReLU pass would see, so logits must be
 *     bitwise identical for every model-zoo network, batch size and
 *     kernel tier (fp32 / forced int8 / perforated) — at every
 *     PCNN_THREADS width (the .threads2 re-run covers that axis).
 *
 *  2. The static arena. One allocation per compiled graph, offsets
 *     respecting lifetimes, peak activation memory well below the
 *     layer chain's ping-pong + per-layer scratch sum, and zero
 *     allocator traffic in steady state.
 *
 *  3. Plan v4. A schedule round-trips through the plan file format,
 *     and hostile bytes — truncation, out-of-range offsets, edited
 *     lifetimes that alias live values, an undersized arena — are
 *     rejected by the hardened reader, never executed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/fusion.hh"
#include "nn/graph/compiled_graph.hh"
#include "nn/graph/graph_ir.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "pcnn/offline/compiler.hh"
#include "pcnn/offline/plan_io.hh"
#include "serve/multi_engine.hh"
#include "unfused_reference.hh"

namespace pcnn {
namespace {

/** Restores the quantization toggle when a test flips it. */
class ToggleGuard
{
  public:
    ~ToggleGuard() { clearQuantizeForced(); }
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

Network
zooNet(int which, unsigned seed)
{
    Rng rng(seed);
    switch (which) {
    case 0: return makeMiniVgg(rng);
    case 1: return makeMiniInception(rng);
    case 2: return makeMiniAlexNet(rng);
    default: return makeMiniNet(MiniSize::Medium, rng);
    }
}

constexpr int kZooCount = 4;

Tensor
zooInput(const Network &net, std::size_t n, unsigned seed)
{
    Rng rng(seed);
    Tensor x(Shape{n, net.inputShape().c, net.inputShape().h,
                   net.inputShape().w});
    x.fillUniform(rng, -1.0f, 1.0f);
    return x;
}

/** Unfused-chain logits vs. graph logits on one network and input. */
void
expectGraphParity(Network &net, const Tensor &x)
{
    const Tensor want = unfusedReference(net, x);
    Tensor graph;
    net.forwardInto(x, false, graph);
    EXPECT_TRUE(bitwiseEqual(want, graph))
        << net.name() << " n=" << x.shape().n
        << ": graph logits diverge from the unfused layer chain";
}

// ------------------------------------------------- bitwise parity

TEST(GraphParity, MatchesLegacyAcrossZooAndBatches)
{
    ToggleGuard guard;
    for (int z = 0; z < kZooCount; ++z) {
        Network net = zooNet(z, 11u + unsigned(z));
        for (std::size_t n : {std::size_t(1), std::size_t(3),
                              std::size_t(16)}) {
            const Tensor x = zooInput(net, n, 77u + unsigned(n));
            expectGraphParity(net, x);
        }
    }
}

TEST(GraphParity, MatchesLegacyUnderForcedInt8)
{
    ToggleGuard guard;
    setQuantizeForced(true);
    for (int z = 0; z < kZooCount; ++z) {
        Network net = zooNet(z, 41u + unsigned(z));
        for (std::size_t n : {std::size_t(1), std::size_t(3),
                              std::size_t(16)}) {
            const Tensor x = zooInput(net, n, 43u + unsigned(n));
            // Dynamic activation-quant params are batch-coupled, so
            // the compiler must fall back to batch-wide execution.
            expectGraphParity(net, x);
            ASSERT_NE(net.compiledGraph(), nullptr);
            EXPECT_EQ(net.compiledGraph()->schedule().tiledOps, 0u)
                << net.name() << ": int8 schedules must not item-tile";
        }
    }
}

TEST(GraphParity, MatchesLegacyUnderPerforation)
{
    ToggleGuard guard;
    Network net = zooNet(0, 53u); // MiniVgg: conv-heavy
    for (ConvLayer *c : net.convLayers())
        c->setComputedPositions((c->fullPositions() + 1) / 2);
    const Tensor x = zooInput(net, 6, 59u);
    expectGraphParity(net, x);
}

TEST(GraphParity, ToggleFlipsRecompileNotCorrupt)
{
    // Flipping the quantization toggle between graph runs must
    // recompile (stale fingerprint) and keep matching the unfused
    // chain.
    ToggleGuard guard;
    Network net = zooNet(1, 61u); // MiniInception
    const Tensor x = zooInput(net, 4, 67u);
    expectGraphParity(net, x);
    const std::size_t compiles = net.graphCompileCount();
    setQuantizeForced(!quantizeForced());
    expectGraphParity(net, x);
    EXPECT_GT(net.graphCompileCount(), compiles);
    clearQuantizeForced();
    expectGraphParity(net, x);
}

TEST(GraphParity, RepeatRunsAreDeterministic)
{
    Network net = zooNet(2, 71u);
    const Tensor x = zooInput(net, 8, 73u);
    Tensor a, b;
    net.forwardInto(x, false, a);
    net.forwardInto(x, false, b);
    EXPECT_TRUE(bitwiseEqual(a, b));
    EXPECT_EQ(net.graphCompileCount(), 1u);
}

// ------------------------------------------------- pass pipeline

TEST(GraphPasses, NamesInExecutionOrder)
{
    const std::vector<std::string> expected{
        "prune-dropout", "fuse-relu", "concat-elim", "dce"};
    EXPECT_EQ(graphPassNames(), expected);
}

TEST(GraphPasses, DropoutIsPruned)
{
    // MiniAlexNet carries dropout layers; inference dropout is an
    // identity copy, so no schedule op may reference one.
    Network net = zooNet(2, 79u);
    const GraphSchedule s = buildGraphSchedule(net, 4);
    for (const GraphOp &op : s.ops)
        EXPECT_NE(op.layerKind, "dropout");
    EXPECT_TRUE(validateGraphSchedule(s));
}

TEST(GraphPasses, FusedReluOpsAppearWhenFoldingOn)
{
    // MiniVgg: every ReLU directly follows a conv or fc, so the
    // fuse-relu pass folds all of them into their producers.
    Network net = zooNet(0, 83u);
    const GraphSchedule s = buildGraphSchedule(net, 4);
    std::size_t fusedOps = 0;
    for (const GraphOp &op : s.ops) {
        fusedOps += op.exec == GraphOpExec::LayerFusedRelu ? 1 : 0;
        EXPECT_NE(op.layerKind, "relu") << "unfused " << op.layerName;
    }
    EXPECT_EQ(fusedOps, 5u);
}

TEST(GraphPasses, InceptionConcatStagingIsEliminatedWhenTiled)
{
    Network net = zooNet(1, 89u); // MiniInception
    const GraphSchedule s = buildGraphSchedule(net, 16);
    EXPECT_GT(s.tiledOps, 0u);
    for (const GraphOp &op : s.ops)
        EXPECT_NE(int(op.exec), int(GraphOpExec::CopyWindow))
            << "tiled inception branches must write their concat "
               "windows directly";
}

// ------------------------------------------------- the arena plan

TEST(GraphArena, PeakMemoryDropsAtLeast30Percent)
{
    // The acceptance criterion: peak steady activation memory on
    // MiniVgg and MiniInception at batch 16 drops >= 30% vs. the
    // unfused layer chain's ping-pong buffers + per-layer scratch.
    // Fresh networks per path so neither measurement carries the
    // other's buffers.
    for (int z : {0, 1}) {
        Network chain = zooNet(z, 97u + unsigned(z));
        Network graph = zooNet(z, 97u + unsigned(z));
        const Tensor x = zooInput(chain, 16, 101u);
        Tensor out, a, b;
        unfusedForward(chain, x, out, a, b);
        unfusedForward(chain, x, out, a, b);
        std::size_t chainBytes =
            (a.capacityFloats() + b.capacityFloats()) * sizeof(float);
        for (std::size_t i = 0; i < chain.size(); ++i)
            chainBytes += chain.layer(i).steadyStateScratchBytes();
        graph.forwardInto(x, false, out);
        graph.forwardInto(x, false, out);
        const std::size_t graphBytes = graph.steadyMemoryBytes();
        EXPECT_LE(double(graphBytes), 0.70 * double(chainBytes))
            << chain.name() << ": arena " << graphBytes
            << " bytes vs layer chain " << chainBytes;
    }
}

TEST(GraphArena, ScheduleSurvivesValidation)
{
    for (int z = 0; z < kZooCount; ++z) {
        Network net = zooNet(z, 103u + unsigned(z));
        for (std::size_t b : {std::size_t(1), std::size_t(16)}) {
            const GraphSchedule s = buildGraphSchedule(net, b);
            EXPECT_TRUE(validateGraphSchedule(s))
                << net.name() << " b=" << b;
            EXPECT_EQ(s.batch, b);
            EXPECT_GT(s.arenaFloats, 0u);
        }
    }
}

TEST(GraphArena, SteadyStateRunsAreAllocationFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "PCNN_COUNT_ALLOCS disabled in this build";
    for (int z = 0; z < kZooCount; ++z) {
        Network net = zooNet(z, 107u + unsigned(z));
        const Tensor x16 = zooInput(net, 16, 109u);
        const Tensor x1 = zooInput(net, 1, 113u);
        Tensor out16, out1;
        net.forwardInto(x16, false, out16);
        net.forwardInto(x16, false, out16);
        net.forwardInto(x1, false, out1);
        {
            ScopedAllocCount probe;
            net.forwardInto(x16, false, out16);
            EXPECT_EQ(probe.allocs(), 0u)
                << net.name() << " batch 16 steady state";
        }
        {
            ScopedAllocCount probe;
            net.forwardInto(x1, false, out1);
            EXPECT_EQ(probe.allocs(), 0u)
                << net.name() << " batch 1 steady state";
        }
        EXPECT_EQ(net.graphCompileCount(), 1u) << net.name();
    }
}

// ------------------------------------------------- plan format v4

/** A v4 plan for MiniVgg with an attached schedule + the network. */
struct PlanFixture
{
    Network net;
    CompiledPlan plan;

    explicit PlanFixture(std::size_t batch = 4)
        : net(zooNet(0, 127u))
    {
        const OfflineCompiler compiler(jetsonTx1());
        plan = compiler.compileAtBatch(describe(net), batch);
        attachGraphSchedule(plan, net);
    }
};

TEST(GraphPlanV4, RoundTripPreservesSchedule)
{
    PlanFixture fx;
    ASSERT_TRUE(fx.plan.schedule.has_value());
    const auto bytes = serializePlan(fx.plan);
    ASSERT_GE(bytes.size(), 9u);
    EXPECT_EQ(bytes[8], 4u); // v4 discriminated by the version byte

    const auto loaded = deserializePlan(bytes);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_TRUE(loaded->schedule.has_value());
    const GraphSchedule &a = *fx.plan.schedule;
    const GraphSchedule &b = *loaded->schedule;
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.arenaFloats, b.arenaFloats);
    EXPECT_EQ(a.tiledOps, b.tiledOps);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
        EXPECT_EQ(int(a.ops[i].exec), int(b.ops[i].exec));
        EXPECT_EQ(a.ops[i].layer, b.ops[i].layer);
        EXPECT_EQ(a.ops[i].input, b.ops[i].input);
        EXPECT_EQ(a.ops[i].output, b.ops[i].output);
        EXPECT_EQ(a.ops[i].chanOff, b.ops[i].chanOff);
        EXPECT_EQ(a.ops[i].chanCount, b.ops[i].chanCount);
        EXPECT_EQ(a.ops[i].tiled, b.ops[i].tiled);
        EXPECT_EQ(a.ops[i].layerKind, b.ops[i].layerKind);
        EXPECT_EQ(a.ops[i].layerName, b.ops[i].layerName);
    }
    for (std::size_t i = 0; i < a.values.size(); ++i) {
        EXPECT_EQ(a.values[i].offset, b.values[i].offset);
        EXPECT_EQ(a.values[i].extent, b.values[i].extent);
        EXPECT_EQ(a.values[i].def, b.values[i].def);
        EXPECT_EQ(a.values[i].lastUse, b.values[i].lastUse);
    }
}

TEST(GraphPlanV4, AdoptedScheduleMatchesLegacyBitwise)
{
    PlanFixture fx;
    const auto bytes = serializePlan(fx.plan);
    const auto loaded = deserializePlan(bytes);
    ASSERT_TRUE(loaded.has_value() && loaded->schedule.has_value());

    // attachGraphSchedule pinned fx.net to the plan's tier choices;
    // the adopted schedule must reproduce the pinned unfused chain.
    fx.net.adoptGraphSchedule(*loaded->schedule);
    const Tensor x = zooInput(fx.net, fx.plan.batch, 131u);
    const Tensor want = unfusedReference(fx.net, x);
    Tensor graph;
    fx.net.forwardInto(x, false, graph);
    EXPECT_TRUE(bitwiseEqual(want, graph));
    // Adoption counts as the one compile; running must not add more.
    EXPECT_EQ(fx.net.graphCompileCount(), 1u);
}

TEST(GraphPlanV4, OlderVersionsStillLoadWithoutSchedule)
{
    PlanFixture fx;
    for (std::uint8_t v : {std::uint8_t(2), std::uint8_t(3)}) {
        const auto bytes = serializePlan(fx.plan, v);
        const auto loaded = deserializePlan(bytes);
        ASSERT_TRUE(loaded.has_value()) << "version " << int(v);
        EXPECT_FALSE(loaded->schedule.has_value());
    }
}

TEST(GraphPlanV4, V4WithoutScheduleLoads)
{
    PlanFixture fx;
    fx.plan.schedule.reset();
    const auto loaded = deserializePlan(serializePlan(fx.plan));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_FALSE(loaded->schedule.has_value());
}

TEST(GraphPlanV4, TruncatedScheduleIsRejected)
{
    PlanFixture fx;
    const auto bytes = serializePlan(fx.plan);
    // Chop anywhere inside the schedule section: every prefix must
    // come back nullopt, never crash or half-parse.
    const auto noSched = serializePlan(fx.plan, 3);
    for (std::size_t cut = noSched.size() + 1; cut < bytes.size();
         cut += 7) {
        const std::vector<std::uint8_t> trunc(bytes.begin(),
                                              bytes.begin() +
                                                  std::ptrdiff_t(cut));
        EXPECT_FALSE(deserializePlan(trunc).has_value())
            << "cut at " << cut << " of " << bytes.size();
    }
}

TEST(GraphPlanV4, OutOfRangeArenaOffsetIsRejected)
{
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    // Push one non-output value past the end of the arena.
    for (GraphValue &v : s.values)
        if (!v.isOutput) {
            v.offset = s.arenaFloats;
            break;
        }
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

TEST(GraphPlanV4, UndersizedArenaIsRejected)
{
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    ASSERT_GT(s.arenaFloats, 1u);
    s.arenaFloats -= 1; // smaller than the max offset + extent
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

TEST(GraphPlanV4, EditedLifetimesAreRejected)
{
    // Shortening a lifetime is the classic aliasing attack: two
    // simultaneously-live values end up sharing bytes. The reader
    // recomputes lifetimes from the op list and must refuse the
    // mismatch.
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    for (GraphValue &v : s.values)
        if (!v.isOutput && v.lastUse > v.def) {
            v.lastUse = v.def;
            break;
        }
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

TEST(GraphPlanV4, OverlappingLiveValuesAreRejected)
{
    // Same bytes for two values whose recomputed lifetimes overlap
    // (a producer and its consumer are always simultaneously live).
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    int first = -1;
    bool tampered = false;
    for (std::size_t v = 0; v < s.values.size() && !tampered; ++v) {
        if (s.values[v].isOutput)
            continue;
        if (first < 0) {
            first = int(v);
            continue;
        }
        const GraphValue &a = s.values[std::size_t(first)];
        GraphValue &b = s.values[v];
        if (a.def <= b.lastUse && b.def <= a.lastUse) {
            b.offset = a.offset; // force address overlap
            tampered = true;
        }
    }
    ASSERT_TRUE(tampered);
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

TEST(GraphPlanV4, ScheduleBatchMismatchIsRejected)
{
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    fx.plan.batch += 1; // splice: plan header batch != schedule batch
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

// ------------------------------------------------- serving

TEST(GraphServe, OneArenaPerReplicaAndBitwiseResults)
{
    ModelRegistry reg;
    ModelConfig mc;
    mc.name = "incep";
    mc.maxBatch = 4;
    mc.maxReplicas = 2;
    ASSERT_EQ(reg.registerModel(zooNet(1, 137u), std::move(mc)),
              RegisterStatus::Registered); // MiniInception
    Model &model = reg.model(0);
    const Tensor probe = zooInput(model.prototype(), 1, 139u);
    const Tensor want = unfusedReference(model.prototype(), probe);

    // A replica adopts the registration-time schedule: exactly one
    // compile, i.e. one arena allocation, taken before it serves,
    // and no recompile for any batch up to the ceiling.
    {
        Network replica = model.makeReplica(1);
        EXPECT_EQ(replica.graphCompileCount(), 1u);
        ASSERT_NE(replica.compiledGraph(), nullptr);
        EXPECT_EQ(replica.compiledGraph()->arenaBytes(),
                  model.replicaArenaBytes());
        EXPECT_GT(model.replicaArenaBytes(), 0u);
        Tensor out;
        replica.forwardInto(zooInput(model.prototype(), 3, 141u), false,
                            out);
        replica.forwardInto(probe, false, out);
        EXPECT_TRUE(bitwiseEqual(out, want));
        EXPECT_EQ(replica.graphCompileCount(), 1u)
            << "replica recompiled while serving";
    }

    MultiEngineConfig cfg;
    cfg.workers = 2;
    cfg.initialReplicas = 2;
    MultiTenantEngine engine(reg, cfg);
    EXPECT_EQ(engine.liveArenaBytes(), 2 * model.replicaArenaBytes());
    std::vector<std::future<TenantResult>> futs;
    for (int i = 0; i < 12; ++i) {
        auto sub = engine.submit(0, TaskClass::Interactive, probe);
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futs.push_back(std::move(sub.result));
    }
    for (auto &f : futs)
        EXPECT_TRUE(bitwiseEqual(f.get().logits, want))
            << "served logits diverge from the unfused chain";
    engine.stop();
    // A recompile would allocate a new arena inside a probed forward.
    EXPECT_EQ(engine.metrics().steadyAllocs, 0u);
}

} // namespace
} // namespace pcnn
