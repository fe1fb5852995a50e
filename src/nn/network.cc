#include "nn/network.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/tags.hh"
#include "nn/graph/compiled_graph.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {

Network::Network(std::string name, Shape input_shape)
    : netName(std::move(name)), inShape(input_shape)
{
    inShape.n = 1;
}

// Defined where CompiledGraph is complete (unique_ptr member).
// Moving a Network keeps the compiled graph valid: it holds raw
// layer pointers and the layers themselves live behind unique_ptrs
// whose pointees do not move.
Network::Network(Network &&) noexcept = default;
Network &Network::operator=(Network &&) noexcept = default;
Network::~Network() = default;

void
Network::ensureCompiledGraph(std::size_t batch)
{
    batch = std::max<std::size_t>(batch, 1);
    if (graph && !graph->staleFor(batch, graphQuantFingerprint(*this)))
        return;
    // pcnn-analyze: allow(hot-path-alloc): grow-only recompile —
    // happens on first use or a config flip, never in steady state.
    const std::size_t cap =
        std::max(batch, graph ? graph->batchCapacity() : 0);
    // Destroy the stale graph first: its destructor detaches the
    // conv scratch pool, which must not run after the new graph has
    // installed its own.
    graph.reset();
    graph = CompiledGraph::compile(*this, cap);
    ++graphCompiles;
}

void
Network::adoptGraphSchedule(const GraphSchedule &s)
{
    graph.reset(); // see ensureCompiledGraph on destruction order
    graph = CompiledGraph::adopt(*this, s);
    ++graphCompiles;
}

void
Network::clearCompiledGraph()
{
    graph.reset();
}

std::size_t
Network::steadyMemoryBytes() const
{
    std::size_t total =
        (actA.capacityFloats() + actB.capacityFloats()) * sizeof(float);
    for (const auto &l : layers)
        total += l->steadyStateScratchBytes();
    if (graph)
        total += graph->arenaBytes() + graph->scratchPoolBytes();
    return total;
}

Tensor
Network::forward(const Tensor &x, bool train)
{
    Tensor out;
    forwardInto(x, train, out);
    return out;
}

PCNN_HOT_PATH
void
Network::forwardInto(const Tensor &x, bool train, Tensor &out)
{
    PCNN_CHECK(x.shape().c == inShape.c && x.shape().h == inShape.h &&
                   x.shape().w == inShape.w,
               netName, ": input ", x.shape().str(),
               " mismatches expected ", inShape.str());
    PCNN_CHECK(!layers.empty(), netName, ": empty network");
    PCNN_CHECK(&out != &x, netName,
               ": forwardInto output must not alias the input");
    // Inference runs the compiled graph (DESIGN.md §5j): the
    // static-arena schedule with ReLUs fused into their producers.
    // Training takes the plain layer chain (backward needs every
    // layer's own caches and stochastic behaviour, the ReLUs their
    // masks).
    if (!train) {
        // pcnn-analyze: allow(hot-path-alloc): compile-on-first-use;
        // the graph is cached and steady-state forwards re-use it.
        ensureCompiledGraph(x.shape().n);
        // pcnn-analyze: allow(hot-path-alloc): CompiledGraph::run is
        // itself a tagged hot-path root; the name-based call graph
        // would otherwise drag in every other run() in the tree.
        graph->run(x, out);
        return;
    }
    // Activations ping-pong between two persistent per-network
    // buffers (the last layer writes straight into `out`).
    const Tensor *cur = &x;
    Tensor *nxt = &actA;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        Tensor *dst = i + 1 == layers.size() ? &out : nxt;
        layers[i]->forwardInto(*cur, train, *dst);
        nxt = dst == &actA ? &actB : &actA;
        cur = dst;
    }
}

Tensor
Network::predict(const Tensor &x)
{
    return softmax(forward(x, false));
}

Tensor
Network::backward(const Tensor &dlogits)
{
    PCNN_CHECK(!layers.empty(), netName, ": empty network");
    Tensor g = dlogits;
    for (auto it = layers.rbegin(); it != layers.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

std::vector<Param *>
Network::params()
{
    std::vector<Param *> out;
    for (auto &l : layers)
        for (Param *p : l->params())
            out.push_back(p);
    return out;
}

void
Network::zeroGrads()
{
    for (Param *p : params())
        p->zeroGrad();
}

double
Network::flopsPerImage() const
{
    double total = 0.0;
    Shape s = inShape;
    for (const auto &l : layers) {
        total += l->flopsPerImage(s);
        s = l->outputShape(s);
    }
    return total;
}

std::vector<ConvSpec>
Network::convSpecs() const
{
    std::vector<ConvSpec> out;
    out.reserve(convs.size());
    for (const ConvLayer *c : convs)
        out.push_back(c->spec());
    return out;
}

void
Network::clearPerforation()
{
    for (ConvLayer *c : convs)
        c->setComputedPositions(0);
}

void
Network::setQuantized(bool on)
{
    for (ConvLayer *c : convs)
        c->setQuantized(on);
    for (FcLayer *f : fcs)
        f->setQuantized(on);
}

Network
Network::cloneSharingWeights()
{
    Network replica(netName, inShape);
    for (auto &l : layers)
        replica.addLayer(l->cloneShared());
    return replica;
}

} // namespace pcnn
