#include "nn/inception_layer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nn/pool_layer.hh"
#include "nn/relu_layer.hh"

namespace pcnn {

InceptionLayer::InceptionLayer(std::string name,
                               std::vector<Branch> branch_list)
    : layerName(std::move(name)), branches(std::move(branch_list))
{
    pcnn_assert(!branches.empty(), "inception ", layerName,
                ": needs at least one branch");
    for (const Branch &b : branches) {
        pcnn_assert(!b.empty(), "inception ", layerName,
                    ": empty branch");
        for (const auto &layer : b)
            if (auto *conv = dynamic_cast<ConvLayer *>(layer.get()))
                convs.push_back(conv);
    }
}

std::unique_ptr<Layer>
InceptionLayer::cloneShared()
{
    // Replicate branch by branch; the ctor revalidates and rebuilds
    // the inner-conv index over the cloned layers.
    std::vector<Branch> cloned;
    cloned.reserve(branches.size());
    for (Branch &br : branches) {
        Branch cb;
        cb.reserve(br.size());
        for (auto &layer : br)
            cb.push_back(layer->cloneShared());
        cloned.push_back(std::move(cb));
    }
    auto c = std::make_unique<InceptionLayer>(layerName,
                                              std::move(cloned));
    return c;
}

std::unique_ptr<InceptionLayer>
InceptionLayer::standard(std::string name, std::size_t in_c,
                         std::size_t hw, std::size_t ch1,
                         std::size_t ch3r, std::size_t ch3,
                         std::size_t ch5r, std::size_t ch5,
                         std::size_t pool_proj, Rng &rng)
{
    auto conv = [&](const std::string &tag, std::size_t ic,
                    std::size_t oc, std::size_t k, std::size_t pad) {
        ConvSpec s;
        s.name = name + "/" + tag;
        s.inC = ic;
        s.outC = oc;
        s.kernel = k;
        s.stride = 1;
        s.pad = pad;
        s.inH = hw;
        s.inW = hw;
        return std::make_unique<ConvLayer>(s, rng);
    };
    auto relu = [&](const std::string &tag) {
        return std::make_unique<ReluLayer>(name + "/" + tag);
    };

    std::vector<Branch> branches;
    {
        Branch b;
        b.push_back(conv("1x1", in_c, ch1, 1, 0));
        b.push_back(relu("relu_1x1"));
        branches.push_back(std::move(b));
    }
    {
        Branch b;
        b.push_back(conv("3x3_reduce", in_c, ch3r, 1, 0));
        b.push_back(relu("relu_3x3_reduce"));
        b.push_back(conv("3x3", ch3r, ch3, 3, 1));
        b.push_back(relu("relu_3x3"));
        branches.push_back(std::move(b));
    }
    {
        Branch b;
        b.push_back(conv("5x5_reduce", in_c, ch5r, 1, 0));
        b.push_back(relu("relu_5x5_reduce"));
        b.push_back(conv("5x5", ch5r, ch5, 5, 2));
        b.push_back(relu("relu_5x5"));
        branches.push_back(std::move(b));
    }
    {
        Branch b;
        b.push_back(std::make_unique<MaxPoolLayer>(name + "/pool", 3,
                                                   1, 1));
        b.push_back(conv("pool_proj", in_c, pool_proj, 1, 0));
        b.push_back(relu("relu_pool_proj"));
        branches.push_back(std::move(b));
    }
    return std::make_unique<InceptionLayer>(std::move(name),
                                            std::move(branches));
}

Shape
InceptionLayer::branchOutputShape(std::size_t b, const Shape &in) const
{
    Shape s = in;
    for (const auto &layer : branches[b])
        s = layer->outputShape(s);
    return s;
}

Shape
InceptionLayer::outputShape(const Shape &in) const
{
    Shape first = branchOutputShape(0, in);
    std::size_t channels = first.c;
    for (std::size_t b = 1; b < branches.size(); ++b) {
        const Shape s = branchOutputShape(b, in);
        pcnn_assert(s.h == first.h && s.w == first.w, "inception ",
                    layerName, ": branch ", b,
                    " spatial size mismatch (", s.str(), " vs ",
                    first.str(), ")");
        channels += s.c;
    }
    return Shape{in.n, channels, first.h, first.w};
}

void
InceptionLayer::forwardInto(const Tensor &x, bool train, Tensor &y)
{
    const Shape out = outputShape(x.shape());
    // pcnn-analyze: allow(hot-path-alloc): grow-only output
    // buffer; capacity is reused once warm (DESIGN.md §5h).
    y.resize(out);

    std::size_t c_off = 0;
    const std::size_t plane = out.h * out.w;
    for (auto &branch : branches) {
        // Feed the shared input to each branch head by reference —
        // no per-branch copy of x. Branch activations ping-pong
        // between two persistent scratch tensors, so the whole block
        // allocates nothing once they have grown.
        const Tensor *cur = &x;
        Tensor *nxt = &actA;
        for (auto &layer : branch) {
            Tensor *dst = nxt;
            layer->forwardInto(*cur, train, *dst);
            nxt = dst == &actA ? &actB : &actA;
            cur = dst;
        }
        // Concatenate along channels.
        const Shape &bs = cur->shape();
        for (std::size_t n = 0; n < bs.n; ++n) {
            const float *src = cur->data() + n * bs.itemSize();
            float *dst =
                y.data() + (n * out.c + c_off) * plane;
            std::copy(src, src + bs.itemSize(), dst);
        }
        c_off += bs.c;
    }

    if (train) {
        lastInShape = x.shape();
        haveCache = true;
    }
}

Tensor
InceptionLayer::backward(const Tensor &dy)
{
    pcnn_assert(haveCache, "inception ", layerName,
                ": backward without forward(train)");
    const Shape out = outputShape(lastInShape);
    pcnn_assert(dy.shape() == out, "inception ", layerName,
                ": gradient shape mismatch");

    Tensor dx(lastInShape);
    const std::size_t plane = out.h * out.w;
    std::size_t c_off = 0;
    for (auto &branch : branches) {
        const Shape bs = branchOutputShape(
            std::size_t(&branch - branches.data()), lastInShape);

        // Slice this branch's share of dy.
        Tensor dyb(Shape{dy.shape().n, bs.c, bs.h, bs.w});
        for (std::size_t n = 0; n < dy.shape().n; ++n) {
            const float *src =
                dy.data() + (n * out.c + c_off) * plane;
            float *dst = dyb.data() + n * dyb.shape().itemSize();
            std::copy(src, src + dyb.shape().itemSize(), dst);
        }

        Tensor g = dyb;
        for (auto it = branch.rbegin(); it != branch.rend(); ++it)
            g = (*it)->backward(g);
        pcnn_assert(g.shape() == lastInShape, "inception ", layerName,
                    ": branch input-gradient shape mismatch");
        for (std::size_t i = 0; i < dx.size(); ++i)
            dx[i] += g[i];
        c_off += bs.c;
    }
    return dx;
}

std::size_t
InceptionLayer::steadyStateScratchBytes() const
{
    // Inner ping-pong staging plus whatever the branch layers hold.
    // Inference never touches actA/actB (the compiled graph inlines
    // the branches as arena writers), so on a serving replica these
    // stay at zero capacity.
    std::size_t total =
        (actA.capacityFloats() + actB.capacityFloats()) * sizeof(float);
    for (const Branch &branch : branches)
        for (const auto &layer : branch)
            total += layer->steadyStateScratchBytes();
    return total;
}

std::vector<Param *>
InceptionLayer::params()
{
    std::vector<Param *> out;
    for (auto &branch : branches)
        for (auto &layer : branch)
            for (Param *p : layer->params())
                out.push_back(p);
    return out;
}

double
InceptionLayer::flopsPerImage(const Shape &in) const
{
    double total = 0.0;
    for (const auto &branch : branches) {
        Shape s = in;
        for (const auto &layer : branch) {
            total += layer->flopsPerImage(s);
            s = layer->outputShape(s);
        }
    }
    return total;
}

} // namespace pcnn
