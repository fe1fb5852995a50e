/**
 * @file
 * Executable form of a GraphSchedule (DESIGN.md §5j).
 *
 * CompiledGraph owns the one arena allocation a schedule's values
 * live in, the shared per-lane conv scratch pool (max across layers
 * instead of the per-layer sum), and the non-owning Tensor views that
 * let unchanged layer forwardInto() code write straight into arena
 * slices. Every inference Network::forwardInto runs through it;
 * results are bitwise identical to running the layers one by one
 * because the same layer methods run in the same order on the same
 * bytes (with each fused ReLU clamping exactly the sums the separate
 * ReLU pass would have seen).
 */

#ifndef PCNN_NN_GRAPH_COMPILED_GRAPH_HH
#define PCNN_NN_GRAPH_COMPILED_GRAPH_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv_layer.hh"
#include "nn/graph/graph_ir.hh"
#include "tensor/tensor.hh"

namespace pcnn {

class Network;
class Layer;

/**
 * Lower `net` into a flat op list (inception branches inlined, in
 * network order). The returned pointers borrow the network's layers.
 */
std::vector<Layer *> flattenNetworkLayers(Network &net);

/**
 * True when the next inference forward of any conv/fc layer in `net`
 * would take the int8 route (per-layer flag or the PCNN_QUANTIZE
 * force). Dynamic activation-quantization params are derived from
 * the whole input batch, which couples items together — the compiler
 * disables item tiling under this fingerprint, and Network uses it
 * to detect a stale compiled graph.
 */
bool graphQuantFingerprint(const Network &net);

/**
 * Run the pass pipeline over `net` and return the resulting
 * schedule without materializing an executable: lowering, dropout
 * pruning, ReLU fusion, concat elimination, dead-op sweep, then
 * lifetime analysis and arena offset assignment. This is what plan
 * v4 serializes (attachGraphSchedule in the offline compiler).
 */
GraphSchedule buildGraphSchedule(Network &net, std::size_t batch);

/** Names of the optimization passes, in execution order (docs/tests). */
std::vector<std::string> graphPassNames();

/** A compiled, executable inference schedule bound to a Network. */
class CompiledGraph
{
  public:
    /**
     * Compile `net` for batches up to `batch`. Performs the single
     * arena allocation; the per-lane conv scratch pool is installed
     * on every conv layer but its buffers grow lazily on first use,
     * exactly like per-layer scratch.
     */
    static std::unique_ptr<CompiledGraph> compile(Network &net,
                                                  std::size_t batch);

    /**
     * Materialize an executable from a deserialized plan-v4
     * schedule. Validates the schedule structurally and against the
     * live network (layer kinds/names and shapes) — a stale or
     * mismatched plan fails a PCNN_CHECK loudly, the same contract
     * as setAlgo on a stale per-layer pin.
     */
    static std::unique_ptr<CompiledGraph> adopt(Network &net,
                                                const GraphSchedule &s);

    ~CompiledGraph();

    CompiledGraph(const CompiledGraph &) = delete;
    CompiledGraph &operator=(const CompiledGraph &) = delete;

    /**
     * Execute the schedule. `x` must match the compiled input shape
     * with n <= batchCapacity(); `out` receives the logits exactly
     * as the unfused layer chain would produce them. Steady-state
     * calls are allocation-free.
     */
    void run(const Tensor &x, Tensor &out);

    /**
     * True when this graph no longer matches the run conditions:
     * a larger batch than compiled for, or a flipped quantization
     * fingerprint (which changes item tiling).
     */
    bool staleFor(std::size_t batch, bool any_quant) const
    {
        return batch > sched.batch || any_quant != quantSnap;
    }

    /** The schedule this executable realizes. */
    const GraphSchedule &schedule() const { return sched; }

    /** Compiled batch capacity. */
    std::size_t batchCapacity() const { return sched.batch; }

    /** Bytes of the single activation arena allocation. */
    std::size_t arenaBytes() const
    {
        return arena.capacity() * sizeof(float);
    }

    /** Current bytes of the shared per-lane conv scratch pool. */
    std::size_t scratchPoolBytes() const;

  private:
    CompiledGraph() = default;

    /** Shared post-schedule setup for compile() and adopt(). */
    static std::unique_ptr<CompiledGraph>
    materialize(Network &net, GraphSchedule schedule,
                std::vector<Layer *> flat);

    /** Execute op `k` for batch item `item` (0 for tail ops). */
    void execOp(std::size_t k, std::size_t item, const Tensor &x,
                Tensor &out, std::size_t n);

    GraphSchedule sched;
    std::vector<Layer *> flat; ///< borrowed from the Network
    ConvScratchPool pool;      ///< shared conv scratch (max, not sum)
    std::vector<float> arena;  ///< the one arena allocation
    std::vector<Tensor> valBind; ///< per-value view headers
    Tensor itemIn;  ///< per-item input window view
    Tensor dstHdr;  ///< per-op window destination view
    int outputValue = -1;
    /// output has one whole-channel batch-wide writer: it writes the
    /// caller's tensor directly, exactly like the chain's last layer
    bool directOut = false;
    bool quantSnap = false; ///< graphQuantFingerprint() at compile
};

} // namespace pcnn

#endif // PCNN_NN_GRAPH_COMPILED_GRAPH_HH
