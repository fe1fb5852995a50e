/**
 * @file
 * Local response normalization (AlexNet-style, across channels).
 */

#ifndef PCNN_NN_LRN_LAYER_HH
#define PCNN_NN_LRN_LAYER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hh"

namespace pcnn {

/**
 * Cross-channel LRN:
 *   y_c = x_c / (k + (alpha/n) * sum_{c' in window} x_{c'}^2)^beta
 * with the window of n channels centered on c (AlexNet Section 3.3).
 */
class LrnLayer : public Layer
{
  public:
    /**
     * @param name stable layer name
     * @param size channel window n (AlexNet: 5)
     * @param alpha scale (AlexNet: 1e-4)
     * @param beta exponent (AlexNet: 0.75)
     * @param k bias (AlexNet: 2)
     */
    LrnLayer(std::string name, std::size_t size = 5,
             double alpha = 1e-4, double beta = 0.75, double k = 2.0);

    std::string name() const override { return layerName; }
    std::string kind() const override { return "lrn"; }
    Shape outputShape(const Shape &in) const override { return in; }
    void forwardInto(const Tensor &x, bool train,
                     Tensor &y) override;
    Tensor backward(const Tensor &dy) override;

    std::unique_ptr<Layer>
    cloneShared() override
    {
        auto c = std::make_unique<LrnLayer>(*this);
        c->lastInput = Tensor();
        c->lastScale = Tensor();
        c->sumRow = std::vector<double>(); // never shared by replicas
        c->haveCache = false;
        return c;
    }

    std::size_t
    steadyStateScratchBytes() const override
    {
        return sumRow.capacity() * sizeof(double);
    }

  private:
    std::string layerName;
    std::size_t size;
    float alpha;
    float beta;
    float k;

    Tensor lastInput;
    Tensor lastScale; ///< the (k + alpha/n * sum) term per element
    /// grow-only h*w window sums of one output channel plane
    std::vector<double> sumRow;
    bool haveCache = false;
};

} // namespace pcnn

#endif // PCNN_NN_LRN_LAYER_HH
