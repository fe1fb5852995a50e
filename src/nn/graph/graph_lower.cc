/**
 * @file
 * Network -> GraphSchedule lowering and the optimization passes
 * (DESIGN.md §5j).
 *
 * Lowering walks the layer chain in order, inlining every top-level
 * inception module into its branch chains: each branch gets a staged
 * terminal value plus a CopyWindow op into the module's concat value,
 * reproducing InceptionLayer's per-branch ping-pong + concat copy
 * exactly.
 * The passes then rewrite the op list:
 *
 *  1. prune-dropout   — inference dropout is an identity copy;
 *                       consumers read the dropout's input directly.
 *  2. fuse-relu       — a ReLU whose sole producer opts into epilogue
 *                       fusion merges into that producer
 *                       (forwardFusedReluInto); bitwise identical
 *                       to the unfused pair.
 *  3. concat-elim     — a staged branch terminal with one producer
 *                       and one CopyWindow consumer is rewritten to
 *                       write its channel window of the concat value
 *                       directly; the staging value and the copy die.
 *  4. dce             — ops writing unread values, and the values
 *                       themselves, are swept; value ids compact.
 *
 * Item tiling is decided here too: when the compiled batch exceeds 1
 * and no conv/fc takes the int8 route (whose dynamic activation
 * quantization reads the whole batch tensor and is therefore not
 * item-separable), the longest prefix of item-separable layers runs
 * per batch item over per-item values. Every layer except the FC
 * tail qualifies: conv forwards fan out per (item, group), and
 * relu/pool/LRN are per-item by construction, so per-item execution
 * is bitwise identical to the batch call. Values that cross from the
 * tiled prefix into the batch-wide tail are flipped to batch-wide
 * and written per item at their item offset.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hh"
#include "nn/fusion.hh"
#include "nn/graph/compiled_graph.hh"
#include "nn/graph/graph_internal.hh"
#include "nn/inception_layer.hh"
#include "nn/network.hh"

namespace pcnn {

namespace {

/** True when `kind` runs item-by-item with bitwise-equal results. */
bool
separableKind(const std::string &kind)
{
    return kind == "conv" || kind == "relu" || kind == "maxpool" ||
           kind == "avgpool" || kind == "lrn" || kind == "dropout";
}

/** Item separability of a whole layer (inception: all inner layers). */
bool
itemSeparable(Layer &l)
{
    if (auto *inc = dynamic_cast<InceptionLayer *>(&l)) {
        for (const InceptionLayer::Branch &b : inc->branchList())
            for (const auto &inner : b)
                if (!separableKind(inner->kind()))
                    return false;
        return true;
    }
    return separableKind(l.kind());
}

/** Number of ops writing value `v`. */
std::size_t
writerCount(const GraphSchedule &s, int v)
{
    std::size_t n = 0;
    for (const GraphOp &op : s.ops)
        n += op.output == v ? 1 : 0;
    return n;
}

/** Number of ops reading value `v`. */
std::size_t
readerCount(const GraphSchedule &s, int v)
{
    std::size_t n = 0;
    for (const GraphOp &op : s.ops)
        n += op.input == v ? 1 : 0;
    return n;
}

/** Append a value for a per-item shape; returns its id. */
int
addValue(GraphSchedule &s, const Shape &item_shape, bool per_item)
{
    GraphValue v;
    v.c = item_shape.c;
    v.h = item_shape.h;
    v.w = item_shape.w;
    v.perItem = per_item;
    s.values.push_back(v);
    return int(s.values.size()) - 1;
}

/** Append a Layer op covering the whole output value. */
void
addLayerOp(GraphSchedule &s, std::size_t flat_idx, Layer &l, int in,
           int out, bool tiled)
{
    GraphOp op;
    op.exec = GraphOpExec::Layer;
    op.layer = flat_idx;
    op.input = in;
    op.output = out;
    op.chanOff = 0;
    op.chanCount = s.values[std::size_t(out)].c;
    op.tiled = tiled;
    op.layerKind = l.kind();
    op.layerName = l.name();
    s.ops.push_back(std::move(op));
}

/**
 * Pass 1: drop inference-mode dropout ops, rewiring consumers to the
 * dropout's input. A dropout producing the network output from the
 * network input has nothing to rewire into and stays (degenerate
 * single-layer nets; the identity copy is still correct).
 */
void
pruneDropout(GraphSchedule &s)
{
    for (std::size_t k = 0; k < s.ops.size();) {
        const GraphOp &op = s.ops[k];
        if (op.exec != GraphOpExec::Layer || op.layerKind != "dropout" ||
            (op.input == kGraphInputValue &&
             s.values[std::size_t(op.output)].isOutput)) {
            ++k;
            continue;
        }
        const int in = op.input;
        const int out = op.output;
        if (s.values[std::size_t(out)].isOutput)
            s.values[std::size_t(in)].isOutput = true;
        s.ops.erase(s.ops.begin() + long(k));
        for (GraphOp &o : s.ops)
            if (o.input == out)
                o.input = in;
    }
}

/**
 * Pass 2: merge a producer + adjacent ReLU pair into one fused op.
 * Conditions: adjacency, the producer opts in (canFuseRelu), and
 * single-producer/single-consumer ownership of the intermediate
 * value, which lowering guarantees and rewrites keep.
 */
void
fuseRelu(GraphSchedule &s, const std::vector<Layer *> &flat)
{
    for (std::size_t k = 0; k + 1 < s.ops.size();) {
        GraphOp &a = s.ops[k];
        const GraphOp &b = s.ops[k + 1];
        const bool eligible =
            a.exec == GraphOpExec::Layer &&
            flat[a.layer]->canFuseRelu() &&
            b.exec == GraphOpExec::Layer && b.layerKind == "relu" &&
            b.input == a.output && a.tiled == b.tiled &&
            !s.values[std::size_t(a.output)].isOutput &&
            writerCount(s, a.output) == 1 &&
            readerCount(s, a.output) == 1 &&
            writerCount(s, b.output) == 1;
        if (!eligible) {
            ++k;
            continue;
        }
        a.exec = GraphOpExec::LayerFusedRelu;
        a.output = b.output;
        a.chanOff = b.chanOff;
        a.chanCount = b.chanCount;
        s.ops.erase(s.ops.begin() + long(k) + 1);
    }
}

/**
 * Pass 3: inline a staged branch terminal into its concat window.
 * The producer must own the staging value outright and cover it
 * whole; the window write must be expressible as a contiguous
 * [1, chanCount, h, w] destination, which holds when the concat
 * value is per-item, the producer is tiled (per-item window of a
 * batch-wide value), or the batch is 1. A batch-wide non-tiled
 * producer would need a strided per-item destination no layer
 * forward can produce, so its copy stays — bitwise equal either way.
 */
void
concatElim(GraphSchedule &s)
{
    for (std::size_t k = 0; k < s.ops.size();) {
        const GraphOp cw = s.ops[k];
        if (cw.exec != GraphOpExec::CopyWindow ||
            cw.input == kGraphInputValue) {
            ++k;
            continue;
        }
        const GraphValue &sv = s.values[std::size_t(cw.input)];
        const GraphValue &cv = s.values[std::size_t(cw.output)];
        const bool windowable =
            cv.perItem || cw.tiled || s.batch == 1;
        if (!windowable || sv.isOutput || sv.c != cw.chanCount ||
            writerCount(s, cw.input) != 1 ||
            readerCount(s, cw.input) != 1) {
            ++k;
            continue;
        }
        // Find the sole producer; it must be a whole-value layer op.
        std::size_t pi = s.ops.size();
        for (std::size_t j = 0; j < s.ops.size(); ++j)
            if (s.ops[j].output == cw.input) {
                pi = j;
                break;
            }
        GraphOp &p = s.ops[pi];
        if (p.exec == GraphOpExec::CopyWindow || p.chanOff != 0 ||
            p.chanCount != sv.c || p.tiled != cw.tiled) {
            ++k;
            continue;
        }
        p.output = cw.output;
        p.chanOff = cw.chanOff;
        // chanCount already == sv.c, the window's width.
        s.ops.erase(s.ops.begin() + long(k));
        // k now indexes the next op; pi < k always (producers
        // precede their copy), so no index fixup is needed.
    }
}

/** Pass 4: drop ops writing unread non-output values; compact ids. */
void
deadCodeSweep(GraphSchedule &s)
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t k = 0; k < s.ops.size();) {
            const int out = s.ops[k].output;
            if (!s.values[std::size_t(out)].isOutput &&
                readerCount(s, out) == 0) {
                s.ops.erase(s.ops.begin() + long(k));
                changed = true;
            } else {
                ++k;
            }
        }
    }
    // Compact values to those still referenced.
    std::vector<int> remap(s.values.size(), -1);
    std::vector<GraphValue> kept;
    for (std::size_t v = 0; v < s.values.size(); ++v) {
        bool used = s.values[v].isOutput;
        for (const GraphOp &op : s.ops)
            used = used || op.input == int(v) || op.output == int(v);
        if (used) {
            remap[v] = int(kept.size());
            kept.push_back(s.values[v]);
        }
    }
    for (GraphOp &op : s.ops) {
        if (op.input != kGraphInputValue)
            op.input = remap[std::size_t(op.input)];
        op.output = remap[std::size_t(op.output)];
    }
    s.values = std::move(kept);
}

} // namespace

std::vector<std::string>
graphPassNames()
{
    return {"prune-dropout", "fuse-relu", "concat-elim", "dce"};
}

std::vector<Layer *>
flattenNetworkLayers(Network &net)
{
    std::vector<Layer *> flat;
    for (std::size_t i = 0; i < net.size(); ++i) {
        Layer &l = net.layer(i);
        if (auto *inc = dynamic_cast<InceptionLayer *>(&l)) {
            for (const InceptionLayer::Branch &b : inc->branchList())
                for (const auto &inner : b)
                    flat.push_back(inner.get());
        } else {
            flat.push_back(&l);
        }
    }
    return flat;
}

bool
graphQuantFingerprint(const Network &net)
{
    if (quantizeForced())
        return true;
    for (const ConvLayer *c : net.convLayers())
        if (c->quantizedEnabled())
            return true;
    for (const FcLayer *f : net.fcLayers())
        if (f->quantizedEnabled())
            return true;
    return false;
}

LoweredGraph
lowerAndOptimize(Network &net, std::size_t batch)
{
    PCNN_CHECK(net.size() > 0, net.name(),
               ": cannot compile an empty network");
    LoweredGraph g;
    GraphSchedule &s = g.sched;
    s.batch = std::max<std::size_t>(batch, 1);

    // Tiling decision: see the file comment. Batch-1 tiling would be
    // a no-op, and the int8 route's dynamic activation params couple
    // the batch (computeQuantParams over the whole input tensor), so
    // both fall back to batch-wide values.
    const bool tileable = s.batch > 1 && !graphQuantFingerprint(net);
    std::size_t tiled_layers = 0;
    if (tileable)
        while (tiled_layers < net.size() &&
               itemSeparable(net.layer(tiled_layers)))
            ++tiled_layers;

    // Emit ops in network order; per-item shapes throughout (n == 1).
    std::size_t flat_idx = 0;
    int cur = kGraphInputValue;
    Shape shape = net.inputShape();
    for (std::size_t i = 0; i < net.size(); ++i) {
        Layer &l = net.layer(i);
        const bool tiled = i < tiled_layers;
        auto *inc = dynamic_cast<InceptionLayer *>(&l);
        if (inc == nullptr) {
            const Shape out = l.outputShape(shape);
            const int v = addValue(s, out, tiled);
            addLayerOp(s, flat_idx++, l, cur, v, tiled);
            cur = v;
            shape = out;
            continue;
        }
        // Inception: branch chains over staged values, then a
        // CopyWindow per branch into the concat value — exactly the
        // InceptionLayer::forwardInto structure, ready for
        // concat-elim.
        const Shape out = inc->outputShape(shape);
        const int concat = addValue(s, out, tiled);
        std::size_t c_off = 0;
        for (const InceptionLayer::Branch &b : inc->branchList()) {
            int bcur = cur;
            Shape bshape = shape;
            for (const auto &inner : b) {
                const Shape bout = inner->outputShape(bshape);
                const int v = addValue(s, bout, tiled);
                addLayerOp(s, flat_idx++, *inner, bcur, v, tiled);
                bcur = v;
                bshape = bout;
            }
            GraphOp copy;
            copy.exec = GraphOpExec::CopyWindow;
            copy.input = bcur;
            copy.output = concat;
            copy.chanOff = c_off;
            copy.chanCount = bshape.c;
            copy.tiled = tiled;
            s.ops.push_back(std::move(copy));
            c_off += bshape.c;
        }
        cur = concat;
        shape = out;
    }
    s.values[std::size_t(cur)].isOutput = true;

    // Optimization passes (graphPassNames order).
    pruneDropout(s);
    fuseRelu(s, flattenNetworkLayers(net));
    concatElim(s);
    deadCodeSweep(s);

    // Boundary repair, after the passes so rewires are final: a
    // value read outside the tiled prefix (or the network output)
    // must hold the whole batch; its tiled writers then write per
    // item at the item's offset. (pruneDropout can move a tail
    // reader onto a formerly per-item trunk value — this flip is
    // what keeps that rewrite correct.)
    for (const GraphOp &op : s.ops)
        if (!op.tiled && op.input != kGraphInputValue)
            s.values[std::size_t(op.input)].perItem = false;
    for (GraphValue &v : s.values)
        if (v.isOutput)
            v.perItem = false;

    s.tiledOps = 0;
    for (const GraphOp &op : s.ops)
        s.tiledOps += op.tiled ? 1 : 0;
    g.flat = flattenNetworkLayers(net);
    return g;
}

GraphSchedule
buildGraphSchedule(Network &net, std::size_t batch)
{
    LoweredGraph g = lowerAndOptimize(net, batch);
    planGraphArena(g.sched);
    PCNN_CHECK(validateGraphSchedule(g.sched), net.name(),
               ": compiled graph schedule failed self-validation");
    return std::move(g.sched);
}

} // namespace pcnn
