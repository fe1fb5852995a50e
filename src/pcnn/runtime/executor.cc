#include "pcnn/runtime/executor.hh"

#include "common/logging.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {

Executor::Executor(Network &network, CompiledPlan plan, GpuSpec gpu,
                   TunerConfig tuner_cfg)
    : net(network), compiled(std::move(plan)), gpuSpec(gpu),
      tunerCfg(tuner_cfg), scheduler(std::move(gpu))
{
    pcnn_assert(net.convLayers().size() == compiled.layers.size(),
                "plan does not match the network");
    // Pin each conv layer to the plan's tuned algorithm; setAlgo
    // rejects an algorithm/geometry mismatch loudly (stale plan).
    // Plan-v3 precision selections ride along the same pinning.
    for (std::size_t i = 0; i < compiled.layers.size(); ++i) {
        net.convLayers()[i]->setAlgo(compiled.layers[i].kernel.algo);
        net.convLayers()[i]->setQuantized(
            compiled.layers[i].kernel.quantized);
    }
    // Plan-v4 schedules adopt after the pins above so the validation
    // inside adoption sees the network exactly as the plan configured
    // it. With a pre-v4 plan the network compiles its own schedule
    // lazily on the first inference.
    if (compiled.schedule)
        net.adoptGraphSchedule(*compiled.schedule);
    // Before tuning: a single exact level that always calibrates fine.
    TuningEntry exact;
    exact.positions.assign(compiled.layers.size(), 0);
    for (std::size_t i = 0; i < compiled.layers.size(); ++i)
        exact.positions[i] = net.convLayers()[i]->fullPositions();
    exact.predictedTimeS = compiled.latencyS();
    exact.entropy = 0.0;
    table.push(exact);
    calibrator.emplace(table, tunerCfg.entropyThreshold);
}

void
Executor::tune(const Tensor &tuning_inputs)
{
    const AccuracyTuner tuner(gpuSpec, tunerCfg);
    table = tuner.tuneNetwork(net, compiled, tuning_inputs);
    calibrator.emplace(table, tunerCfg.entropyThreshold);
    applyLevel(calibrator->currentLevel());
}

std::size_t
Executor::currentLevel() const
{
    return calibrator->currentLevel();
}

void
Executor::applyLevel(std::size_t level)
{
    const TuningEntry &e = table.entry(level);
    const auto &convs = net.convLayers();
    for (std::size_t i = 0; i < convs.size(); ++i) {
        convs[i]->setComputedPositions(e.positions[i]);
        // Entries with no precision axis (legacy tables, the pre-tune
        // exact level) leave the plan/profile quantization alone.
        if (!e.quant.empty())
            convs[i]->setQuantized(e.quant[i] != 0);
    }
}

InferenceResult
Executor::infer(const Tensor &batch)
{
    const std::size_t level = calibrator->currentLevel();
    applyLevel(level);

    InferenceResult r;
    r.tuningLevel = level;
    r.probs = softmax(net.forward(batch, false));
    r.predictions = argmaxRows(r.probs);
    r.entropy = batchEntropy(r.probs);

    // Simulated GPU cost of exactly this execution. The per-layer
    // achieved position counts come from the layers themselves (the
    // sampling grid may round the request).
    std::vector<std::size_t> positions(compiled.layers.size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        positions[i] = net.convLayers()[i]->computedPositions();
    const SimResult sim =
        scheduler.execute(compiled, pcnnPolicy(), &positions);
    r.simLatencyS = sim.timeS;
    r.energyJ = sim.energy.total();

    r.recalibrated = calibrator->observe(r.entropy);
    return r;
}

} // namespace pcnn
