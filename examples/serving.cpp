// Serving: train a small RITA classifier, freeze two checkpoints of it, and
// serve concurrent requests through the layered engine — admission
// (priorities, deadlines, split backpressure), scheduler (interactive
// overtakes bulk, EDF within class), content-hash result cache, and
// multi-model A/B multiplexing over one ModelRegistry. All traffic goes
// through the transport-agnostic serve::Client interface, and the final
// section swaps the in-process LocalClient for a dist::RemoteClient over a
// loopback replica server to show the backend is a drop-in choice. The
// README "Serving" walkthrough as a runnable program.
//
//   ./build/example_serving
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "dist/replica_server.h"
#include "dist/router.h"
#include "serve/client.h"
#include "serve/inference_engine.h"
#include "train/trainer.h"
#include "util/logging.h"

using namespace rita;  // NOLINT: example brevity

int main() {
  SetLogLevel(LogLevel::kWarning);

  // 1. A quickly-trained group-attention classifier on synthetic HAR data.
  data::HarOptions data_options;
  data_options.num_samples = 240;
  data_options.length = 80;
  data_options.num_classes = 6;
  data_options.seed = 7;
  data::TimeseriesDataset dataset = data::GenerateHar(data_options);
  Rng rng(1);
  data::SplitDataset split = data::TrainValSplit(dataset, 0.9, &rng);

  model::RitaConfig config;
  config.input_channels = split.train.channels();
  config.input_length = split.train.length();
  config.window = 5;
  config.stride = 5;
  config.num_classes = split.train.num_classes;
  config.encoder.dim = 32;
  config.encoder.num_layers = 2;
  config.encoder.num_heads = 2;
  config.encoder.ffn_hidden = 64;
  config.encoder.attention.kind = attn::AttentionKind::kGroup;
  config.encoder.attention.group.num_groups = 8;
  Rng model_rng(2);
  model::RitaModel model(config, &model_rng);

  // 2. Two frozen checkpoints of the same training run: "prod" after one
  //    epoch, "canary" after another — the A/B shape of multi-model serving.
  //    Freezing deep-copies the weights, so training on continues untouched.
  train::TrainOptions topts;
  topts.epochs = 1;
  topts.batch_size = 16;
  topts.adamw.lr = 2e-3f;
  train::Trainer trainer(&model, topts);
  trainer.TrainClassifier(split.train);
  serve::FrozenModel prod(model);
  trainer.TrainClassifier(split.train);  // one more epoch
  serve::FrozenModel canary(model);
  std::printf("trained: accuracy %.3f (fingerprints %016llx / %016llx)\n",
              trainer.EvalAccuracy(split.valid),
              static_cast<unsigned long long>(prod.Fingerprint()),
              static_cast<unsigned long long>(canary.Fingerprint()));

  // 3. One engine multiplexing both models over a shared ExecutionContext:
  //    2 executor workers, micro-batches up to 16, result cache on (default
  //    32 MiB budget).
  serve::ModelRegistry registry;
  const int64_t prod_id = registry.Register("prod", &prod);
  const int64_t canary_id = registry.Register("canary", &canary);
  ThreadPool pool(4);
  ExecutionContext context(&pool);
  serve::InferenceEngineOptions options;
  options.num_workers = 2;
  options.max_micro_batch = 16;
  options.context = &context;
  serve::InferenceEngine engine(&registry, options);

  // Everything below talks to `client`, the transport-agnostic interface.
  // Here it is an in-process adapter; section 9 runs the identical request
  // code against a replica fleet through dist::RemoteClient instead.
  serve::LocalClient local(&engine);
  serve::Client& client = local;

  // 4. Bulk re-scoring: four client threads fire the whole validation set as
  //    kBatch requests against "prod" — background traffic that yields to
  //    interactive requests but, thanks to aging, is never starved.
  const int64_t total = split.valid.size();
  std::vector<std::future<serve::InferenceResponse>> futures(total);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t i = c; i < total; i += 4) {
        serve::InferenceRequest request;
        request.series = split.valid.Sample(i).Reshape(
            {split.valid.length(), split.valid.channels()});
        request.task = serve::ServeTask::kClassify;
        request.priority = serve::Priority::kBatch;
        request.model_id = prod_id;
        futures[i] = client.Submit(std::move(request));
      }
    });
  }

  // 5. A latency-critical "alert" rides ahead of the bulk backlog: priority
  //    kInteractive (the default) plus a 50 ms deadline for the EDF sweep,
  //    routed to the canary model.
  serve::InferenceRequest alert;
  alert.series = split.valid.Sample(0).Reshape(
      {split.valid.length(), split.valid.channels()});
  alert.priority = serve::Priority::kInteractive;
  alert.deadline = serve::ServeClock::now() + std::chrono::milliseconds(50);
  alert.model_id = canary_id;
  serve::InferenceResponse alert_response = client.SubmitAndWait(std::move(alert));
  std::printf("alert answered in %.2f ms queue + %.2f ms compute (batch of %lld)\n",
              alert_response.queue_ms, alert_response.compute_ms,
              static_cast<long long>(alert_response.micro_batch));

  for (auto& t : clients) t.join();
  int64_t correct = 0;
  for (int64_t i = 0; i < total; ++i) {
    serve::InferenceResponse response = futures[i].get();
    if (!response.status.ok()) {
      std::printf("request %lld failed: %s\n", static_cast<long long>(i),
                  response.status.ToString().c_str());
      return 1;
    }
    int64_t argmax = 0;
    for (int64_t k = 1; k < response.output.numel(); ++k) {
      if (response.output.data()[k] > response.output.data()[argmax]) argmax = k;
    }
    correct += (argmax == split.valid.labels[i]) ? 1 : 0;
  }

  // 6. The result cache admits a request on its second sighting: the
  //    alert's first replay computes and is cached, the second hits. Frozen
  //    forwards are deterministic and batch-invariant, so the hit is
  //    bit-identical to the computed response — no forward runs at all.
  serve::InferenceResponse replayed;
  for (int pass = 0; pass < 2; ++pass) {
    serve::InferenceRequest replay;
    replay.series = split.valid.Sample(0).Reshape(
        {split.valid.length(), split.valid.channels()});
    replay.model_id = canary_id;
    replayed = client.SubmitAndWait(std::move(replay));
  }
  std::printf("alert replay: cache_hit=%d (identical logits, zero compute)\n",
              replayed.cache_hit ? 1 : 0);

  // 7. An embedding and an imputation request round out the task surface.
  serve::InferenceRequest embed;
  embed.series = split.valid.Sample(0).Reshape(
      {split.valid.length(), split.valid.channels()});
  embed.task = serve::ServeTask::kEmbed;
  serve::InferenceResponse embedding = client.SubmitAndWait(std::move(embed));

  serve::InferenceRequest impute;
  // Mask a timestamp with the library's sentinel (-1) and ask for the
  // reconstruction; output is the full [T, C] series.
  impute.series = split.valid.Sample(1).Reshape(
      {split.valid.length(), split.valid.channels()});
  for (int64_t ch = 0; ch < split.valid.channels(); ++ch) {
    impute.series.At({21, ch}) = -1.0f;
  }
  impute.task = serve::ServeTask::kReconstruct;
  serve::InferenceResponse imputed = client.SubmitAndWait(std::move(impute));
  std::printf("imputed t=21 ch0: %.3f (masked input)\n",
              imputed.output.At({21, 0}));

  // 8. Aggregate and per-model stats: the rejection split, cache counters
  //    and the instantaneous queue/in-flight snapshot. Client::Stats() is
  //    the transport-agnostic aggregate; per-model breakdowns stay on the
  //    engine (they are a backend diagnostic, not part of the client API).
  const serve::InferenceEngineStats stats = client.Stats();
  std::printf("served %llu requests in %llu micro-batches "
              "(max batch %lld, avg queue %.2f ms, %llu cache hits, "
              "%llu invalid + %llu backpressure rejections, queue depth %lld)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.batches),
              static_cast<long long>(stats.max_micro_batch), stats.AvgQueueMs(),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.rejected_invalid),
              static_cast<unsigned long long>(stats.rejected_backpressure),
              static_cast<long long>(stats.queue_depth));
  for (int64_t id = 0; id < registry.size(); ++id) {
    const serve::InferenceEngineStats per_model = engine.model_stats(id);
    std::printf("  model '%s': %llu completed, %llu cache hits\n",
                registry.name(id).c_str(),
                static_cast<unsigned long long>(per_model.completed),
                static_cast<unsigned long long>(per_model.cache_hits));
  }
  std::printf("serving accuracy %.3f, embedding dim %lld\n",
              static_cast<double>(correct) / static_cast<double>(total),
              static_cast<long long>(embedding.output.numel()));

  // 9. The same client code over a replica fleet: wrap this process's engine
  //    in a ReplicaServer on loopback, route to it through a consistent-hash
  //    Router, and re-issue the alert through dist::RemoteClient. Every
  //    request now crosses the framed TCP wire (serde both ways), yet the
  //    logits come back bit-identical — the wire format round-trips floats
  //    by bit pattern, so backends are interchangeable without numeric drift.
  dist::ReplicaServer replica(&engine, dist::ReplicaServerOptions{});
  if (!replica.Start().ok()) return 1;
  dist::Router router;
  router.AddReplica("127.0.0.1", replica.port());
  if (!router.Start().ok()) return 1;
  dist::RemoteClient remote(&router);
  serve::Client& fleet_client = remote;

  serve::InferenceRequest remote_alert;
  remote_alert.series = split.valid.Sample(0).Reshape(
      {split.valid.length(), split.valid.channels()});
  remote_alert.model_id = canary_id;
  serve::InferenceResponse remote_response =
      fleet_client.SubmitAndWait(std::move(remote_alert));
  const bool bit_identical =
      remote_response.status.ok() &&
      remote_response.output.shape() == replayed.output.shape() &&
      std::memcmp(remote_response.output.data(), replayed.output.data(),
                  sizeof(float) * replayed.output.numel()) == 0;
  std::printf("remote alert via 1-replica fleet: cache_hit=%d, "
              "bit-identical to local=%d, fleet completed=%llu\n",
              remote_response.cache_hit ? 1 : 0, bit_identical ? 1 : 0,
              static_cast<unsigned long long>(fleet_client.Stats().completed));
  router.Shutdown();
  replica.Shutdown();
  return bit_identical ? 0 : 1;
}
