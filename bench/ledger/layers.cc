// Per-layer phase: every layer's public functions called from outside, each
// call inside a span carrying a bench-owned trace id. The metrics are the
// medians of those same spans' self times (duration minus child spans).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "core/attention_factory.h"
#include "core/group_attention.h"
#include "dist/serde.h"
#include "dist/transport.h"
#include "ledger.h"
#include "obs/trace.h"
#include "serve/result_cache.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace ledger {
namespace {

/// Bench-side span log. Every closed span is also recorded into the obs
/// trace ring, so DumpTrace shows exactly the spans the metrics come from.
class SpanLog {
 public:
  explicit SpanLog(uint64_t trace_id) : trace_id_(trace_id) {}

  int Open(std::string name) {
    const int index = static_cast<int>(records_.size());
    records_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(), 0.0,
                        0.0, 0.0});
    stack_.push_back(index);
    records_.back().start_us = obs::TraceNowUs();
    return index;
  }

  void Close(int index) {
    const double end_us = obs::TraceNowUs();
    Record& r = records_[index];
    r.dur_us = end_us - r.start_us;
    obs::RecordSpan(trace_id_, r.name.c_str(), "ledger", r.start_us, r.dur_us);
    if (r.parent >= 0) records_[r.parent].child_us += r.dur_us;
    stack_.pop_back();
  }

  double SelfMs(int index) const {
    return (records_[index].dur_us - records_[index].child_us) / 1000.0;
  }

  /// Self time of `root`'s direct children, summed by span name.
  std::map<std::string, double> ChildSelfMs(int root) const {
    std::map<std::string, double> out;
    for (size_t i = static_cast<size_t>(root) + 1; i < records_.size(); ++i) {
      if (records_[i].parent == root) out[records_[i].name] += SelfMs(static_cast<int>(i));
    }
    return out;
  }

  size_t size() const { return records_.size(); }

 private:
  struct Record {
    std::string name;
    int parent;
    double start_us;
    double dur_us;
    double child_us;
  };
  uint64_t trace_id_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog* log, std::string name) : log_(log), index_(log->Open(std::move(name))) {}
  ~Scope() { log_->Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

/// Runs `fn` inside a span named `name` and returns the span's self time.
template <typename Fn>
double TimedMs(SpanLog* log, const std::string& name, Fn&& fn) {
  int index;
  {
    Scope s(log, name);
    index = s.index();
    fn();
  }
  return log->SelfMs(index);
}

const char* const kStages[] = {"frontend", "qkv", "group", "attend",
                               "merge",    "ffn", "head"};

/// The sequential forward, one public stage helper at a time. Mirrors
/// FrozenModel's per-call state: RNG stream 0, batch-invariant slice keys
/// (slice % heads), the default execution context, no grad.
Tensor StagedForward(model::RitaModel* model, serve::ServeTask task, const Tensor& batch,
                     SpanLog* log, std::vector<double>* groups) {
  ag::NoGradGuard guard;
  ExecutionContext* exec = ExecutionContext::Default();
  model::TransformerEncoder* encoder = model->encoder();
  const int64_t b = batch.size(0);
  const int64_t heads = model->config().encoder.num_heads;

  ag::Variable x;
  {
    Scope s(log, "frontend");
    x = model->FrontendTokens(batch, nullptr);
  }
  const int64_t n = x.size(1);
  for (int64_t l = 0; l < encoder->num_layers(); ++l) {
    model::TransformerEncoderLayer* layer = encoder->layer(l);
    attn::MultiHeadAttention* mha = layer->attention();
    auto* mech = static_cast<core::GroupAttentionMechanism*>(mha->mechanism());
    ag::Variable q, k, v;
    {
      Scope s(log, "qkv");
      q = mha->ProjectHeads(0, x);
      k = mha->ProjectHeads(1, x);
      v = mha->ProjectHeads(2, x);
    }
    const int64_t slices = q.size(0), d = q.size(2);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    const float* pq = q.data().data();
    const float* pk = k.data().data();
    const float* pv = v.data().data();
    std::vector<core::InferenceGrouping> grouping(slices);
    {
      Scope s(log, "group");
      const cluster::KMeansOptions km = mech->InferenceKMeans(n);
      exec->ParallelFor(0, slices, [&](int64_t s0, int64_t s1) {
        for (int64_t sl = s0; sl < s1; ++sl) {
          Rng rng = ExecutionContext::SliceRng(mech->seed(), 0,
                                               static_cast<uint64_t>(sl % heads));
          Tensor keys({n, d});
          std::copy(pk + sl * n * d, pk + (sl + 1) * n * d, keys.data());
          grouping[sl] =
              core::GroupSliceForInference(keys, pv + sl * n * d, km, &rng, exec);
        }
      });
    }
    Tensor attended({slices, n, d});
    {
      Scope s(log, "attend");
      float* po = attended.data();
      exec->ParallelFor(0, slices, [&](int64_t s0, int64_t s1) {
        ScratchArena::Lease scratch = exec->arena()->Acquire();
        for (int64_t sl = s0; sl < s1; ++sl) {
          scratch.Reset();
          core::GroupAttendRows(pq + sl * n * d, grouping[sl], po + sl * n * d, n, d,
                                scale, &scratch);
        }
      });
    }
    if (groups != nullptr) {
      for (const auto& g : grouping) groups->push_back(static_cast<double>(g.num_groups()));
    }
    ag::Variable h;
    {
      Scope s(log, "merge");
      h = layer->AttentionResidual(x, mha->MergeHeads(ag::Variable(attended), b, n));
    }
    {
      Scope s(log, "ffn");
      x = layer->FfnResidual(h);
    }
  }
  Scope s(log, "head");
  switch (task) {
    case serve::ServeTask::kClassify:
      return model->ClassLogitsFromEncoded(x).data();
    case serve::ServeTask::kReconstruct:
      return model->ReconstructFromEncoded(x, batch.size(1)).data();
    case serve::ServeTask::kEmbed:
    default:
      return ops::Slice(x.data(), 1, 0, 1).Reshape({b, model->config().encoder.dim});
  }
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

/// A [1, ...] forward output as the engine returns it (no batch dim).
Tensor Unbatched(const Tensor& t) {
  return t.Reshape(Shape(t.shape().begin() + 1, t.shape().end()));
}

// Interleaved plain / staged forwards until this budget is spent.
constexpr double kForwardBudgetMs = 2000.0;
constexpr int kMinForwardReps = 7;
constexpr int kMaxForwardReps = 150;

void MeasureForward(const WorkloadSpec& spec, const Inputs& inputs, Stack* stack,
                    SpanLog* log, Report* report) {
  const serve::ServeTask task = spec.mix.front().task;
  const Tensor batch = inputs.Batch(kProbeIdBase, spec.layer_batch);
  const serve::FrozenModel& frozen = stack->reference();
  std::vector<double> plain_ms, groups, coverage_ratios;
  std::map<std::string, std::vector<double>> stage_ms;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kMaxForwardReps; ++rep) {
    if (rep >= kMinForwardReps && MsBetween(start, Clock::now()) > kForwardBudgetMs) {
      break;
    }
    // Alternate which forward goes first so neither always runs warm.
    double staged_sum = 0.0;
    for (int half = 0; half < 2; ++half) {
      if ((rep + half) % 2 == 0) {
        plain_ms.push_back(
            TimedMs(log, "forward.plain", [&] { PlainForward(frozen, task, batch); }));
        continue;
      }
      int root;
      {
        Scope s(log, "forward.staged");
        root = s.index();
        StagedForward(stack->source(), task, batch, log, rep == 0 ? &groups : nullptr);
      }
      for (const auto& kv : log->ChildSelfMs(root)) {
        stage_ms[kv.first].push_back(kv.second);
        staged_sum += kv.second;
      }
    }
    // Adjacent pairs share the host's state, so their ratio cancels the slow
    // episodes a ratio of separate medians would pick up.
    coverage_ratios.push_back(staged_sum / plain_ms.back());
  }
  report->Layer("forward.total_ms", Median(plain_ms), "ms");
  for (const char* stage : kStages) {
    report->Layer(std::string("stage.") + stage + "_ms", Median(stage_ms[stage]), "ms");
  }
  const double coverage = Median(coverage_ratios);
  report->Layer("stage.coverage", coverage, "ratio");
  report->Layer("kmeans.groups_mean", Mean(groups), "count");
  // A timing ratio, not an output: under heavy vCPU steal the staged and
  // plain forwards slow unequally (0.78-1.23 at 15-25% steal, 0.95-1.05
  // otherwise), so leaving the range warns rather than fails the run.
  if (coverage < 0.85 || coverage > 1.15) {
    std::printf("# warning: stage.coverage %.3f outside [0.85, 1.15]: the stages do "
                "not add up to the forward\n",
                coverage);
  }
}

/// Least-squares slope of log(t) against log(n).
double LogLogSlope(const std::vector<double>& n, const std::vector<double>& t) {
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < n.size(); ++i) {
    mx += std::log(n[i]);
    my += std::log(t[i]);
  }
  mx /= static_cast<double>(n.size());
  my /= static_cast<double>(n.size());
  double sxy = 0.0, sxx = 0.0;
  for (size_t i = 0; i < n.size(); ++i) {
    const double dx = std::log(n[i]) - mx;
    sxy += dx * (std::log(t[i]) - my);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

/// The paper's O(nN) claim (Table 6 / Fig. 4) at layer granularity: one
/// attention layer's mechanism time over sequence length, group vs vanilla,
/// at this workload's head shape and group count.
void MeasureScaling(const WorkloadSpec& spec, SpanLog* log, Report* report) {
  constexpr int64_t kDim = 64, kHeads = 2, kHeadDim = kDim / kHeads;
  constexpr int kReps = 5;
  ag::NoGradGuard guard;
  Rng rng(0x5377656570ULL);  // "Sweep"
  core::AttentionOptions group_options;
  group_options.kind = attn::AttentionKind::kGroup;
  group_options.group.num_groups = spec.groups;
  group_options.group.collect_snapshots = false;
  core::AttentionOptions vanilla_options;
  vanilla_options.kind = attn::AttentionKind::kVanilla;
  vanilla_options.dropout = 0.0f;
  attn::MultiHeadAttention group(
      kDim, kHeads, core::CreateAttentionMechanism(kHeadDim, group_options, &rng), &rng);
  attn::MultiHeadAttention vanilla(
      kDim, kHeads, core::CreateAttentionMechanism(kHeadDim, vanilla_options, &rng),
      &rng);
  group.SetTraining(false);
  vanilla.SetTraining(false);

  std::vector<double> lengths, group_ms, vanilla_ms;
  for (int64_t n : {257, 513, 1025, 2049}) {
    const ag::Variable q(Tensor::RandNormal({kHeads, n, kHeadDim}, &rng));
    const ag::Variable k(Tensor::RandNormal({kHeads, n, kHeadDim}, &rng));
    const ag::Variable v(Tensor::RandNormal({kHeads, n, kHeadDim}, &rng));
    std::vector<double> g, va;
    for (int rep = 0; rep < kReps; ++rep) {
      for (int which = 0; which < 2; ++which) {
        attn::MultiHeadAttention* mha = which == 0 ? &group : &vanilla;
        attn::ForwardState state;
        state.stochastic = false;
        state.batch_invariant = true;
        const std::string name = std::string("scaling.") +
                                 (which == 0 ? "group" : "vanilla") + ".n" +
                                 std::to_string(n);
        (which == 0 ? g : va)
            .push_back(TimedMs(log, name, [&] { mha->MechanismForward(q, k, v, &state); }));
      }
    }
    lengths.push_back(static_cast<double>(n));
    group_ms.push_back(Median(g));
    vanilla_ms.push_back(Median(va));
  }
  report->Layer("scaling.group_slope", LogLogSlope(lengths, group_ms), "exponent");
  report->Layer("scaling.vanilla_slope", LogLogSlope(lengths, vanilla_ms), "exponent");
  report->Layer("scaling.vanilla_over_group_n2049", vanilla_ms.back() / group_ms.back(),
                "ratio");
}

constexpr int kCacheProbes = 64;

/// Direct ResultCache calls (engine-default budget and shards) on this
/// workload's series and output shapes.
void MeasureCache(const Inputs& inputs, const std::map<int, Tensor>& outputs,
                  uint64_t fingerprint, SpanLog* log, Report* report) {
  serve::ResultCache cache{serve::ResultCache::Options{}};
  std::vector<double> key_us, insert_us, hit_us, miss_us;
  const uint64_t base = kProbeIdBase + 1000;
  int64_t wrong = 0;
  for (int i = 0; i < kCacheProbes; ++i) {
    const Tensor series = inputs.Series(base + i);
    const serve::ServeTask task = inputs.TaskOf(base + i);
    serve::ResultCache::Key key;
    key_us.push_back(1000.0 * TimedMs(log, "cache.key", [&] {
      key = serve::ResultCache::MakeKey(fingerprint, task, series);
    }));
    const Tensor& output = outputs.at(static_cast<int>(task));
    insert_us.push_back(
        1000.0 * TimedMs(log, "cache.insert", [&] { cache.Insert(key, task, output); }));
    // Look up straight after the insert: a shard's slice holds only a few
    // [T, C] reconstructions, so later inserts may evict this one.
    Tensor out;
    bool hit = false;
    hit_us.push_back(
        1000.0 * TimedMs(log, "cache.lookup_hit", [&] { hit = cache.Lookup(key, &out); }));
    if (!hit) ++wrong;
    const serve::ResultCache::Key absent = serve::ResultCache::MakeKey(
        fingerprint, task, inputs.Series(base + kCacheProbes + i));
    miss_us.push_back(
        1000.0 * TimedMs(log, "cache.lookup_miss", [&] { hit = cache.Lookup(absent, &out); }));
    if (hit) ++wrong;
  }
  if (wrong > 0) report->Fail("ResultCache probe: " + std::to_string(wrong) + " wrong lookups");
  report->Layer("cache.key_us", Median(key_us), "us");
  report->Layer("cache.lookup_hit_us", Median(hit_us), "us");
  report->Layer("cache.lookup_miss_us", Median(miss_us), "us");
  report->Layer("cache.insert_us", Median(insert_us), "us");
}

constexpr int kCodecProbes = 64;
constexpr int kPings = 64;
constexpr int kDirectExchanges = 16;
constexpr int kRouteProbes = 1024;
constexpr double kWireTimeoutMs = 10000.0;

/// dist layer: codecs over the task mix, a ping and direct kRequest
/// exchanges against replica 0 (local workloads get a loopback ReplicaServer
/// over their engine for the duration of the probe), and the router's spread.
void MeasureDist(const Inputs& inputs, const std::map<int, Tensor>& outputs,
                 Stack* stack, SpanLog* log, Report* report) {
  const uint64_t base = kProbeIdBase + 3000;
  std::vector<double> encode_us, decode_us, request_bytes, response_bytes;
  for (int i = 0; i < kCodecProbes; ++i) {
    const serve::InferenceRequest request = inputs.Request(base + i);
    dist::WireWriter w;
    encode_us.push_back(
        1000.0 * TimedMs(log, "dist.encode_request", [&] { dist::EncodeRequest(request, &w); }));
    request_bytes.push_back(static_cast<double>(w.buffer().size()));

    serve::InferenceResponse response;
    response.output = outputs.at(static_cast<int>(request.task));
    response.micro_batch = 1;
    dist::WireWriter rw;
    dist::EncodeResponse(response, &rw);
    const std::vector<uint8_t> payload = rw.Take();
    response_bytes.push_back(static_cast<double>(payload.size()));
    serve::InferenceResponse decoded;
    Status st;
    decode_us.push_back(1000.0 * TimedMs(log, "dist.decode_response", [&] {
      dist::WireReader r(payload);
      st = dist::DecodeResponse(&r, &decoded);
    }));
    if (!st.ok() || !BitEqual(decoded.output, response.output)) {
      report->Fail("serde round trip changed a response: " + st.ToString());
    }
  }
  report->Layer("dist.encode_request_us", Median(encode_us), "us");
  report->Layer("dist.decode_response_us", Median(decode_us), "us");
  report->Layer("dist.request_bytes_mean", Mean(request_bytes), "bytes");
  report->Layer("dist.response_bytes_mean", Mean(response_bytes), "bytes");

  std::unique_ptr<dist::ReplicaServer> probe;
  int port = stack->replica0_port();
  if (port == 0) {
    probe = std::make_unique<dist::ReplicaServer>(stack->engine(),
                                                  dist::ReplicaServerOptions{});
    RITA_CHECK(probe->Start().ok());
    port = probe->port();
  }
  Result<dist::Connection> connected =
      dist::Connection::Connect("127.0.0.1", port, kWireTimeoutMs);
  if (!connected.ok()) {
    report->Fail("connect to replica 0: " + connected.status().ToString());
    return;
  }
  dist::Connection conn = connected.MoveValueOrDie();
  std::vector<double> ping_us, exchange_ms;
  for (int i = 0; i < kPings; ++i) {
    dist::MessageType type = dist::MessageType::kPing;
    std::vector<uint8_t> payload;
    Status st;
    ping_us.push_back(1000.0 * TimedMs(log, "dist.ping", [&] {
      st = conn.WriteFrame(dist::MessageType::kPing, {});
      if (st.ok()) st = conn.ReadFrame(&type, &payload, kWireTimeoutMs, kWireTimeoutMs);
    }));
    if (!st.ok() || type != dist::MessageType::kPong) {
      report->Fail("ping to replica 0 failed: " + st.ToString());
      return;
    }
  }
  for (int i = 0; i < kDirectExchanges; ++i) {
    const serve::InferenceRequest request = inputs.Request(base + kCodecProbes + i);
    dist::WireWriter w;
    dist::EncodeRequest(request, &w);
    const std::vector<uint8_t> frame = w.Take();
    dist::MessageType type = dist::MessageType::kPing;
    std::vector<uint8_t> payload;
    Status st;
    exchange_ms.push_back(TimedMs(log, "dist.direct_exchange", [&] {
      st = conn.WriteFrame(dist::MessageType::kRequest, frame);
      if (st.ok()) st = conn.ReadFrame(&type, &payload, kWireTimeoutMs, kWireTimeoutMs);
    }));
    serve::InferenceResponse response;
    if (st.ok()) {
      dist::WireReader r(payload);
      st = dist::DecodeResponse(&r, &response);
    }
    if (!st.ok() || type != dist::MessageType::kResponse || !response.status.ok()) {
      report->Fail("direct exchange with replica 0 failed: " + st.ToString() + " " +
                   response.status.ToString());
      return;
    }
  }
  conn.Close();
  if (probe != nullptr) probe->Shutdown();
  report->Layer("dist.ping_rtt_us_p50", Median(ping_us), "us");
  report->Layer("dist.direct_exchange_ms_p50", Median(exchange_ms), "ms");

  // Largest share of requests one backend receives; a local stack has one.
  double share = 1.0;
  if (stack->router() != nullptr) {
    std::vector<int64_t> counts(stack->router()->num_replicas(), 0);
    for (int i = 0; i < kRouteProbes; ++i) {
      const int index = stack->router()->RouteIndex(inputs.Request(kHotSetSize + i));
      if (index >= 0) ++counts[index];
    }
    share = static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
            kRouteProbes;
  }
  report->Layer("dist.route_share_max", share, "ratio");
}

}  // namespace

void RunLayerPhase(const WorkloadSpec& spec, const Inputs& inputs, Stack* stack,
                   bool measure, Report* report) {
  const serve::ServeTask task = spec.mix.front().task;
  const Tensor batch = inputs.Batch(kProbeIdBase, spec.layer_batch);
  {
    SpanLog untraced(0);
    const Tensor staged = StagedForward(stack->source(), task, batch, &untraced, nullptr);
    const bool equal = BitEqual(staged, PlainForward(stack->reference(), task, batch));
    std::printf("# check: staged forward %s the plain FrozenModel forward at B=%lld\n",
                equal ? "is bitwise equal to" : "DIFFERS from",
                static_cast<long long>(spec.layer_batch));
    if (!equal) report->Fail("staged forward differs from the plain FrozenModel forward");
  }
  if (!measure) return;

  obs::SetTracingForTesting(1);
  const uint64_t trace_id = obs::SampleTrace();
  SpanLog log(trace_id);
  MeasureForward(spec, inputs, stack, &log, report);
  MeasureScaling(spec, &log, report);

  // One real output per task, at the shape the engine returns.
  std::map<int, Tensor> outputs;
  for (const TaskShare& share : spec.mix) {
    const Tensor one = inputs.Series(kProbeIdBase).Reshape(
        {1, inputs.length(), inputs.channels()});
    outputs[static_cast<int>(share.task)] =
        Unbatched(PlainForward(stack->reference(), share.task, one));
  }
  MeasureCache(inputs, outputs, stack->reference().Fingerprint(), &log, report);
  MeasureDist(inputs, outputs, stack, &log, report);
  obs::SetTracingForTesting(0);

  if (log.size() >= obs::kTraceRingCapacity) {
    report->Fail("per-layer phase recorded " + std::to_string(log.size()) +
                 " spans; the trace ring holds " +
                 std::to_string(obs::kTraceRingCapacity));
  }
}

}  // namespace ledger
}  // namespace rita
