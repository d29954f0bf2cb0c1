// Batch-planner ablation (beyond the paper's tables; supports Sec. 5.2 and
// Appendix A.3), two parts:
//
// 1. Prediction quality of (a) a single global curve fit vs (b) the DP plane
//    division, against ground-truth Alg. 2 probes on a held-out grid, plus
//    the speedup of predicting over probing. Expected shape: the DP
//    division's SSE is never worse than the global fit's (the paper proves
//    the DP optimal over guillotine divisions) and held-out relative error
//    stays in single-digit percents.
//
// 2. The bf16 serving variant: freeze one trained-shape model at fp32 and
//    bf16, measure the weight-footprint ratio and the accuracy delta against
//    the fp32 reference (argmax agreement + reconstruction-MSE ratio, the
//    same metrics serve/accuracy_gate.h enforces at registration). Hard
//    gates: agreement >= 0.99, MSE ratio <= 1.05, bf16 GEMM bytes <= 0.50x
//    fp32, and the fp32 variant stays bitwise identical to a plain freeze.
//    Emits BENCH_quant.json next to the part-1 document for the CI
//    regression gate.
#include <cmath>
#include <cstring>

#include "bench_common.h"
#include "core/batch_planner.h"
#include "serve/accuracy_gate.h"
#include "serve/frozen_model.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace rita {
namespace bench {
namespace {

void RunFitAblation(BenchJsonWriter* json) {
  auto csv_open = CsvWriter::Open("bench_table8_batch_planner.csv");
  RITA_CHECK(csv_open.ok());
  CsvWriter csv = csv_open.MoveValueOrDie();
  csv.WriteRow({"attention", "fit", "total_sse", "regions", "heldout_mean_rel_err"});

  for (attn::AttentionKind kind :
       {attn::AttentionKind::kGroup, attn::AttentionKind::kVanilla}) {
    core::EncoderShape shape;  // paper-sized encoder on the 16 GB device
    shape.kind = kind;
    core::MemoryModel model(shape);
    core::BatchPlannerOptions options;
    options.max_length = 10000;
    options.num_samples = 64;
    core::BatchPlanner planner(model, options);
    Rng rng(31);
    planner.Calibrate(&rng);

    // Single global fit vs the DP division on the same calibration samples.
    const core::FittedFunction global = core::FitBest(planner.calibration_samples());
    const core::PlaneDivision& division = planner.division();

    // Held-out grid evaluation.
    Rng heldout(77);
    double err_global = 0.0, err_dp = 0.0;
    const int kHeldout = 60;
    for (int i = 0; i < kHeldout; ++i) {
      const int64_t length = 5 + heldout.UniformInt(options.max_length - 5 + 1);
      const int64_t tokens = model.shape().Tokens(length);
      const int64_t groups = 1 + heldout.UniformInt(tokens);
      const double truth = static_cast<double>(planner.ProbeBatchSize(length, groups));
      const double pg = global.Predict(length, groups);
      const double pd = division.Predict(length, groups);
      err_global += std::fabs(pg - truth) / truth;
      err_dp += std::fabs(pd - truth) / truth;
    }
    err_global /= kHeldout;
    err_dp /= kHeldout;

    std::printf("%s attention:\n", attn::AttentionKindName(kind));
    std::printf("  %-18s sse %12.1f  regions %2d  held-out rel err %6.2f%%\n",
                "global fit", global.sse, 1, 100.0 * err_global);
    std::printf("  %-18s sse %12.1f  regions %2zu  held-out rel err %6.2f%%\n",
                "DP plane division", division.total_sse, division.regions.size(),
                100.0 * err_dp);
    RITA_CHECK(division.total_sse <= global.sse + 1e-6)
        << "DP must not lose to the single fit";
    csv.WriteValues(attn::AttentionKindName(kind), "global", global.sse, 1,
                    err_global);
    csv.WriteValues(attn::AttentionKindName(kind), "dp_division", division.total_sse,
                    division.regions.size(), err_dp);
    const std::string prefix = std::string(attn::AttentionKindName(kind));
    json->Add(prefix + "/heldout_rel_err/global", err_global, "ratio");
    json->Add(prefix + "/heldout_rel_err/dp_division", err_dp, "ratio");

    // Probe vs predict latency (why the learned function exists at all).
    Stopwatch probe_watch;
    for (int i = 0; i < 200; ++i) planner.ProbeBatchSize(8000, 64);
    const double probe_us = probe_watch.ElapsedSeconds() / 200.0 * 1e6;
    Stopwatch predict_watch;
    for (int i = 0; i < 200; ++i) planner.PredictBatchSize(8000, 64);
    const double predict_us = predict_watch.ElapsedSeconds() / 200.0 * 1e6;
    std::printf("  probe %.1fus vs predict %.1fus per query\n\n", probe_us, predict_us);
  }
  RITA_CHECK(csv.Close().ok());
}

// Part 2: the bf16 serving path end to end, at the paper's width (dim 64).
void RunQuantizedServing(const BenchScale& scale, const std::string& json_path) {
  std::printf("=== Quantized serving variant (bf16 vs fp32) ===\n\n");
  BenchJsonWriter json("quantized_serving");

  model::RitaConfig config;
  config.input_channels = 2;
  config.input_length = 240;
  config.window = 8;
  config.stride = 8;
  config.num_classes = 4;
  config.encoder.dim = 64;
  config.encoder.num_layers = 2;
  config.encoder.num_heads = 2;
  config.encoder.ffn_hidden = 128;
  config.encoder.dropout = 0.1f;
  config.encoder.attention.kind = attn::AttentionKind::kGroup;
  config.encoder.attention.group.num_groups = 8;
  Rng rng(101);
  model::RitaModel source(config, &rng);

  serve::FrozenModel fp32(source);
  serve::FrozenModel fp32_variant(source, Precision::kFp32);
  serve::FrozenModel bf16(source, Precision::kBf16);

  // The fp32 gate is bitwise, not accuracy-delta.
  Rng data_rng(55);
  Tensor probe = Tensor::RandNormal({4, 240, 2}, &data_rng);
  Tensor want = fp32.ClassLogits(probe);
  Tensor got = fp32_variant.ClassLogits(probe);
  RITA_CHECK(std::memcmp(want.data(), got.data(),
                         sizeof(float) * want.numel()) == 0)
      << "explicit fp32 variant diverges from a plain freeze";
  json.Add("quant/fp32/bitwise_identical", 1.0, "bool");

  // Accuracy delta vs the fp32 reference on a held-out batch, scored with
  // the same gate RegisterVariant-time checks use.
  const int64_t eval_batch = scale.quick ? 8 : 16;
  Tensor eval = Tensor::RandNormal({eval_batch, 240, 2}, &data_rng);
  serve::AccuracyDeltaReport report;
  const Status gate = serve::CheckAccuracyDelta(fp32, bf16, eval, {}, &report);
  RITA_CHECK(gate.ok()) << gate.ToString();
  std::printf("%8s %14s %12s %11s %11s\n", "variant", "weight-bytes",
              "bytes-ratio", "agreement", "mse-ratio");
  PrintRule(60);
  std::printf("%8s %14lld %11.4fx %11.4f %11.4f\n", "fp32",
              static_cast<long long>(fp32.WeightBytes()), 1.0, 1.0, 1.0);
  std::printf("%8s %14lld %11.4fx %11.4f %11.4f\n\n", "bf16",
              static_cast<long long>(bf16.WeightBytes()), bf16.QuantizedBytesRatio(),
              report.classification_agreement, report.reconstruction_mse_ratio);
  json.Add("quant/bf16/weight_bytes_ratio", bf16.QuantizedBytesRatio(), "ratio");
  json.Add("quant/bf16/agreement", report.classification_agreement, "ratio");
  json.Add("quant/bf16/mse_ratio", report.reconstruction_mse_ratio, "ratio");

  // CI gates (RITA_CHECK => non-zero exit): footprint and accuracy.
  RITA_CHECK_LE(bf16.QuantizedBytesRatio(), 0.50 + 1e-9)
      << "bf16 GEMM weight bytes exceed 0.50x fp32";
  RITA_CHECK_GE(report.classification_agreement, 0.99)
      << "bf16 argmax agreement below 0.99";
  RITA_CHECK_LE(report.reconstruction_mse_ratio, 1.05)
      << "bf16 reconstruction-MSE ratio above 1.05";

  RITA_CHECK(json.WriteTo(json_path)) << "failed to write " << json_path;
}

// BENCH_quant.json lands in the same directory as the --json document so the
// regression gate finds both under --run-dir.
std::string QuantJsonPath(const std::string& json_path) {
  if (json_path.empty()) return "";
  const size_t slash = json_path.find_last_of('/');
  if (slash == std::string::npos) return "BENCH_quant.json";
  return json_path.substr(0, slash + 1) + "BENCH_quant.json";
}

void Run(const BenchScale& scale) {
  std::printf("=== Batch planner ablation (Sec. 5.2 / Appendix A.3) ===\n\n");
  BenchJsonWriter json("table8_batch_planner");
  RunFitAblation(&json);
  RITA_CHECK(json.WriteTo(scale.json_path)) << "failed to write " << scale.json_path;
  RunQuantizedServing(scale, QuantJsonPath(scale.json_path));
  std::printf("series written to bench_table8_batch_planner.csv\n");
}

}  // namespace
}  // namespace bench
}  // namespace rita

int main(int argc, char** argv) {
  rita::bench::Run(rita::bench::ParseScale(argc, argv));
  return 0;
}
