/**
 * @file
 * Sequential network container.
 */

#ifndef PCNN_NN_NETWORK_HH
#define PCNN_NN_NETWORK_HH

#include <memory>
#include <string>
#include <vector>

#include "nn/conv_layer.hh"
#include "nn/fc_layer.hh"
#include "nn/inception_layer.hh"
#include "nn/layer.hh"

namespace pcnn {

class CompiledGraph;
struct GraphSchedule;

/**
 * A feed-forward chain of layers ending in classifier logits.
 *
 * Owns its layers. Provides the hooks the P-CNN runtime needs:
 * direct access to the conv layers (for per-layer perforation
 * control) and batch entropy of the output distribution (the paper's
 * CNN_entropy accuracy surrogate).
 */
class Network
{
  public:
    /**
     * @param name network name, e.g. "MiniNet-M"
     * @param input_shape expected single-item input shape (n ignored)
     */
    Network(std::string name, Shape input_shape);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;
    // Out of line: the compiled-graph member's type is incomplete
    // here (unique_ptr needs it complete at destroy).
    Network(Network &&) noexcept;
    Network &operator=(Network &&) noexcept;
    ~Network();

    /** Append a pre-built layer (for composites built elsewhere). */
    Layer *
    addLayer(std::unique_ptr<Layer> layer)
    {
        Layer *raw = layer.get();
        layers.push_back(std::move(layer));
        registerLayer(raw);
        return raw;
    }

    /** Append a layer; returns a typed pointer for convenience. */
    template <typename L, typename... Args>
    L *
    add(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L *raw = layer.get();
        layers.push_back(std::move(layer));
        registerLayer(raw);
        return raw;
    }

  private:
    /** Index conv/fc layers (recursing into composites). */
    void
    registerLayer(Layer *raw)
    {
        if (auto *conv = dynamic_cast<ConvLayer *>(raw))
            convs.push_back(conv);
        if (auto *inception = dynamic_cast<InceptionLayer *>(raw)) {
            for (ConvLayer *c : inception->convLayers())
                convs.push_back(c);
        }
        if (auto *fc = dynamic_cast<FcLayer *>(raw))
            fcs.push_back(fc);
    }

  public:

    /** Network name. */
    const std::string &name() const { return netName; }

    /** Expected per-item input shape. */
    const Shape &inputShape() const { return inShape; }

    /** Number of layers. */
    std::size_t size() const { return layers.size(); }

    /** Layer access by position. */
    Layer &layer(std::size_t i) { return *layers.at(i); }

    /** Conv layers in network order (for perforation control). */
    const std::vector<ConvLayer *> &convLayers() const { return convs; }

    /** Fully connected layers in network order. */
    const std::vector<FcLayer *> &fcLayers() const { return fcs; }

    /**
     * Run the network and return classifier logits [n, k, 1, 1].
     * @param x input batch matching inputShape() except n
     * @param train enables training-mode caching in every layer
     */
    Tensor forward(const Tensor &x, bool train = false);

    /**
     * Run the network, writing the logits into `out` (resized as
     * needed). Inference runs the compiled graph (compiled on first
     * use, recompiled only for a larger batch or a flipped int8
     * fingerprint); training runs the layer chain over the network's
     * ping-pong activation scratch. Repeated calls with the same
     * `out` tensor reuse its buffer, so a steady-state inference
     * forward performs zero allocations (DESIGN.md §5h). `out` must
     * not alias `x`.
     */
    void forwardInto(const Tensor &x, bool train, Tensor &out);

    /** Softmax of forward(x): class probabilities. */
    Tensor predict(const Tensor &x);

    /**
     * Back-propagate d(logits) through the whole chain.
     * @pre forward(x, true) ran immediately before
     */
    Tensor backward(const Tensor &dlogits);

    /** All trainable parameters in network order. */
    std::vector<Param *> params();

    /** Zero every parameter gradient. */
    void zeroGrads();

    /** Total forward FLOPs for one image. */
    double flopsPerImage() const;

    /** Conv specs of this network (for the GPU-side models). */
    std::vector<ConvSpec> convSpecs() const;

    /** Reset all conv layers to unperforated execution. */
    void clearPerforation();

    /** Reset all conv/fc layers to the fp32 inference route. */
    void clearQuantization();

    /**
     * Replicate the network for a concurrent serving worker
     * (DESIGN.md §5f). The replica shares parameter storage and the
     * persistent packed/winograd panels with this network; per-forward
     * state (activations, scratch) is per-replica. Sharing freezes the
     * parameters of *both* networks permanently: any later SGD step,
     * weight load, or markUpdated() on either fails a PCNN_CHECK.
     *
     * Thread safety: run one warm-up forward on the prototype (to
     * materialize the panels the inference route needs) before any
     * other thread touches a replica; after that all replicas may run
     * forward() concurrently, and results are bitwise identical to
     * the prototype's.
     */
    Network cloneSharingWeights();

    /**
     * Compile (or recompile) the graph-dispatch schedule for batches
     * up to `batch` (DESIGN.md §5j). Inference forwardInto does this
     * lazily; calling it up front moves the one arena allocation out
     * of the hot path. No-op when a compatible graph exists.
     */
    void ensureCompiledGraph(std::size_t batch);

    /**
     * Adopt a deserialized plan-v4 schedule (offline compiler) as
     * this network's compiled graph; fails a PCNN_CHECK loudly when
     * the schedule does not match this network.
     */
    void adoptGraphSchedule(const GraphSchedule &s);

    /** Drop the compiled graph; the next inference recompiles. */
    void clearCompiledGraph();

    /** The active compiled graph, or nullptr. */
    const CompiledGraph *compiledGraph() const { return graph.get(); }

    /**
     * How many times a graph (and hence its arena) was compiled on
     * this network. Serving asserts exactly one per replica.
     */
    std::size_t graphCompileCount() const { return graphCompiles; }

    /**
     * Current bytes of steady-state working memory: training
     * ping-pong activation capacity, per-layer grow-only scratch,
     * and — when a graph is compiled — its arena and shared conv
     * scratch pool. Parameters and caller tensors excluded.
     */
    std::size_t steadyMemoryBytes() const;

  private:
    std::string netName;
    Shape inShape;
    std::vector<std::unique_ptr<Layer>> layers;
    std::vector<ConvLayer *> convs;
    std::vector<FcLayer *> fcs;
    /// training-forward ping-pong activation scratch; grow-only,
    /// per-network (replicas get their own via cloneSharingWeights)
    Tensor actA, actB;
    /// compiled-graph executable (every inference forward); never
    /// carried by cloneSharingWeights — each replica compiles its own
    std::unique_ptr<CompiledGraph> graph;
    std::size_t graphCompiles = 0; ///< arena allocations performed
};

} // namespace pcnn

#endif // PCNN_NN_NETWORK_HH
