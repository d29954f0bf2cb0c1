// Workload table, deterministic inputs, serving-stack setup and the timed
// phase's four load generators.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "ledger.h"
#include "obs/trace.h"
#include "util/hash.h"

namespace rita {
namespace ledger {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

uint64_t Digest(const Tensor& t) {
  return Fnv1a64(t.data(), sizeof(float) * static_cast<size_t>(t.numel()));
}

Tensor PlainForward(const serve::FrozenModel& model, serve::ServeTask task,
                    const Tensor& batch) {
  switch (task) {
    case serve::ServeTask::kClassify:
      return model.ClassLogits(batch);
    case serve::ServeTask::kEmbed:
      return model.Embed(batch);
    case serve::ServeTask::kReconstruct:
    default:
      return model.Reconstruct(batch);
  }
}

// ---------------------------------------------------------------------------
// Workload table.

const std::vector<WorkloadSpec>& AllWorkloads() {
  using serve::ServeTask;
  static const std::vector<WorkloadSpec> specs = {
      // WISDM T=200, C=3, w=s=5 -> 41 tokens. Short forwards, so admission,
      // cache, queue and promise overhead are a visible share; Poisson bursts
      // build real queues.
      {Workload::kInteractive, "interactive", data::PaperDataset::kWisdm, 5, 16,
       {{ServeTask::kClassify, 1.0}}, 200, 2, 1, 0.25},
      // MGH T=10000, C=21, w=s=16 -> 626 tokens. Grouping and attention carry
      // their largest share; B*H=2 < cores, so only intra-request parallelism
      // helps.
      {Workload::kLongSeries, "long_series", data::PaperDataset::kMgh, 16, 64,
       {{ServeTask::kReconstruct, 0.5}, {ServeTask::kEmbed, 0.5}}, 8, 2, 1, 2.0},
      // ECG T=2000, C=12, w=s=8 -> 251 tokens. Large micro-batches put this on
      // the other side of every batching / B=1 tuning choice.
      {Workload::kBulk, "bulk", data::PaperDataset::kEcg, 8, 32,
       {{ServeTask::kClassify, 0.8}, {ServeTask::kEmbed, 0.2}}, 64, 2, 16, 2.0},
      // As interactive, through serde, framing and the router, with a hot set
      // that mixes cache hits with inserts.
      {Workload::kFleet, "fleet", data::PaperDataset::kWisdm, 5, 16,
       {{ServeTask::kClassify, 0.7},
        {ServeTask::kEmbed, 0.15},
        {ServeTask::kReconstruct, 0.15}},
       200, 1, 1, 1.0},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Inputs.

namespace {

constexpr uint64_t kTaskStream = 0x7461736b;    // "task"
constexpr uint64_t kPoolStream = 0x706f6f6c;    // "pool"
constexpr uint64_t kArrivalStream = 0x61727276;  // "arrv"
constexpr uint64_t kHotStream = 0x686f74;       // "hot"
// Model weights never depend on --seed.
constexpr uint64_t kWeightSeed = 0x4c6564676572ULL;  // "Ledger"

double UnitDraw(uint64_t seed, uint64_t stream, uint64_t id) {
  return static_cast<double>(MixSeed(MixSeed(seed, stream), id) >> 11) * 0x1p-53;
}

}  // namespace

Inputs::Inputs(const WorkloadSpec& spec, uint64_t seed) : spec_(spec), seed_(seed) {
  data::DatasetScale scale;
  scale.size = 0.0;  // the 48-sample floor: a pool, not a training corpus
  scale.length = 1.0;
  data::SplitDataset split = data::MakePaperDataset(spec.dataset, scale, seed);
  pool_ = split.train.series;
  num_classes_ = data::GetPaperSpec(spec.dataset).num_classes;
}

serve::ServeTask Inputs::TaskOf(uint64_t id) const {
  double u = UnitDraw(seed_, kTaskStream, id);
  for (const TaskShare& share : spec_.mix) {
    if (u < share.share) return share.task;
    u -= share.share;
  }
  return spec_.mix.back().task;
}

Tensor Inputs::Series(uint64_t id) const {
  const int64_t t = length(), c = channels();
  const int64_t slot = static_cast<int64_t>(
      MixSeed(MixSeed(seed_, kPoolStream), id) % static_cast<uint64_t>(pool_.size(0)));
  Tensor series({t, c});
  const float* src = pool_.data() + slot * t * c;
  std::copy(src, src + t * c, series.data());
  // Exact in float for ids < 2^23: a per-id stamp, so no two ids share bytes.
  series.data()[0] = static_cast<float>(id & ((1u << 23) - 1)) * 0x1p-23f;
  return series;
}

serve::InferenceRequest Inputs::Request(uint64_t id) const {
  serve::InferenceRequest request;
  request.series = Series(id);
  request.task = TaskOf(id);
  return request;
}

Tensor Inputs::Batch(uint64_t first, int64_t b) const {
  const int64_t t = length(), c = channels();
  Tensor batch({b, t, c});
  for (int64_t i = 0; i < b; ++i) {
    Tensor s = Series(first + static_cast<uint64_t>(i));
    std::copy(s.data(), s.data() + t * c, batch.data() + i * t * c);
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Serving stack.

namespace {

model::RitaConfig ModelConfig(const WorkloadSpec& spec, const Inputs& inputs) {
  model::RitaConfig config;
  config.input_channels = inputs.channels();
  config.input_length = inputs.length();
  config.window = spec.window;
  config.stride = spec.window;
  config.num_classes = inputs.num_classes();
  config.encoder.dim = 64;
  config.encoder.num_layers = 4;
  config.encoder.num_heads = 2;
  config.encoder.ffn_hidden = 256;
  config.encoder.dropout = 0.0f;
  config.encoder.attention.kind = attn::AttentionKind::kGroup;
  config.encoder.attention.dropout = 0.0f;
  config.encoder.attention.group.num_groups = spec.groups;
  config.encoder.attention.group.collect_snapshots = false;
  return config;
}

constexpr int kFleetReplicas = 2;

}  // namespace

std::unique_ptr<Stack> Stack::Build(const WorkloadSpec& spec, const Inputs& inputs) {
  std::unique_ptr<Stack> stack(new Stack());
  Rng rng(kWeightSeed);
  stack->source_ = std::make_unique<model::RitaModel>(ModelConfig(spec, inputs), &rng);
  stack->source_->SetTraining(false);

  serve::InferenceEngineOptions options;
  options.num_workers = spec.workers;
  const int replicas = spec.kind == Workload::kFleet ? kFleetReplicas : 1;
  for (int r = 0; r < replicas; ++r) {
    stack->frozen_.push_back(std::make_unique<serve::FrozenModel>(*stack->source_));
    stack->engines_.push_back(
        std::make_unique<serve::InferenceEngine>(stack->frozen_.back().get(), options));
  }
  if (spec.kind == Workload::kFleet) {
    dist::RouterOptions router_options;
    router_options.connections_per_replica = 2;
    stack->router_ = std::make_unique<dist::Router>(router_options);
    for (auto& engine : stack->engines_) {
      stack->servers_.push_back(std::make_unique<dist::ReplicaServer>(
          engine.get(), dist::ReplicaServerOptions{}));
      RITA_CHECK(stack->servers_.back()->Start().ok());
      stack->router_->AddReplica("127.0.0.1", stack->servers_.back()->port());
    }
    RITA_CHECK(stack->router_->Start().ok());
    stack->client_ = std::make_unique<dist::RemoteClient>(stack->router_.get());
  } else {
    stack->client_ = std::make_unique<serve::LocalClient>(stack->engines_.front().get());
  }

  std::vector<std::future<serve::InferenceResponse>> warmup;
  for (int i = 0; i < spec.warmup; ++i) {
    warmup.push_back(stack->client_->Submit(inputs.Request(kWarmupIdBase + i)));
  }
  for (auto& f : warmup) {
    const serve::InferenceResponse response = f.get();
    RITA_CHECK(response.status.ok()) << "warm-up: " << response.status.ToString();
  }
  return stack;
}

const serve::FrozenModel& Stack::reference() {
  if (router_ == nullptr) return *frozen_.front();
  // The fleet's replicas hold their own copies; compare against one that
  // never crossed the wire.
  if (fleet_reference_ == nullptr) {
    fleet_reference_ = std::make_unique<serve::FrozenModel>(*source_);
  }
  return *fleet_reference_;
}

int Stack::replica0_port() const {
  return servers_.empty() ? 0 : servers_.front()->port();
}

void Stack::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  client_->Shutdown();
  for (auto& server : servers_) server->Shutdown();
  for (auto& engine : engines_) engine->Shutdown();
}

Stack::~Stack() { Shutdown(); }

// ---------------------------------------------------------------------------
// Timed phase.

namespace {

/// One resolved request of the timed phase.
struct Outcome {
  uint64_t seq = 0;  // submission order
  uint64_t id = 0;   // input id (series + task)
  bool ok = false;
  bool cache_hit = false;
  double e2e_ms = 0.0;
  double queue_ms = 0.0;
  double compute_ms = 0.0;
  int64_t micro_batch = 0;
  double lag_ms = 0.0;
  Clock::time_point done;
  bool digested = false;
  uint64_t digest = 0;
};

// 1 in 16 responses are checked bitwise, and at least the first 100.
bool Checked(uint64_t seq) { return seq % 16 == 0 || seq < 100; }

Outcome Resolve(uint64_t seq, uint64_t id, Clock::time_point start, double lag_ms,
                const serve::InferenceResponse& response, Clock::time_point done,
                bool want_digest) {
  Outcome o;
  o.seq = seq;
  o.id = id;
  o.ok = response.status.ok();
  o.cache_hit = response.cache_hit;
  o.e2e_ms = MsBetween(start, done);
  o.queue_ms = response.queue_ms;
  o.compute_ms = response.compute_ms;
  o.micro_batch = response.micro_batch;
  o.lag_ms = lag_ms;
  o.done = done;
  if (o.ok && (want_digest || Checked(seq))) {
    o.digested = true;
    o.digest = Digest(response.output);
  }
  return o;
}

struct Pending {
  uint64_t seq = 0;
  uint64_t id = 0;
  Clock::time_point start;
  double lag_ms = 0.0;
  std::future<serve::InferenceResponse> future;
};

/// Harvest thread: polls the in-flight futures every 50 us and stamps each
/// completion when it is first seen ready.
class Harvester {
 public:
  using OnDone = std::function<void(Outcome&&)>;

  explicit Harvester(OnDone on_done)
      : on_done_(std::move(on_done)), thread_([this] { Loop(); }) {}
  ~Harvester() { Close(); }
  Harvester(const Harvester&) = delete;
  Harvester& operator=(const Harvester&) = delete;

  void Push(Pending&& pending) {
    std::lock_guard<std::mutex> lock(mu_);
    incoming_.push_back(std::move(pending));
  }

  /// No more pushes; returns once every pushed future has resolved.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    std::vector<Pending> live;
    for (;;) {
      bool closed = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (Pending& p : incoming_) live.push_back(std::move(p));
        incoming_.clear();
        closed = closed_;
      }
      for (size_t i = 0; i < live.size();) {
        if (live[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const Clock::time_point done = Clock::now();
          const serve::InferenceResponse response = live[i].future.get();
          on_done_(Resolve(live[i].seq, live[i].id, live[i].start, live[i].lag_ms,
                           response, done, false));
          live[i] = std::move(live.back());
          live.pop_back();
        } else {
          ++i;
        }
      }
      if (closed && live.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (incoming_.empty()) return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  OnDone on_done_;
  std::mutex mu_;
  std::vector<Pending> incoming_;
  bool closed_ = false;
  std::thread thread_;  // last: starts after every member it uses
};

// req/s, ~20-25% of engine capacity. At 300 req/s two forwards overlapped
// so often that p99 amplified every shift in host speed ~2x.
constexpr double kInteractiveRate = 200.0;
constexpr int kBulkWindow = 64;
constexpr int kFleetClients = 4;

/// Open loop: Poisson arrivals conditioned on exactly rate*seconds requests
/// (sorted uniform arrival times), timed from each request's scheduled send.
std::vector<Outcome> RunOpenLoop(const Inputs& inputs, uint64_t seed, double seconds,
                                 serve::Client* client, Clock::time_point* t0) {
  const int64_t count = std::llround(kInteractiveRate * seconds);
  Rng rng(MixSeed(seed, kArrivalStream));
  std::vector<double> at(count);
  for (double& a : at) a = rng.Uniform(0.0, seconds);
  std::sort(at.begin(), at.end());

  std::vector<Outcome> outcomes;
  outcomes.reserve(count);
  Harvester harvester([&outcomes](Outcome&& o) { outcomes.push_back(std::move(o)); });
  *t0 = Clock::now();
  for (int64_t i = 0; i < count; ++i) {
    serve::InferenceRequest request = inputs.Request(i);
    const Clock::time_point due = After(*t0, at[i]);
    std::this_thread::sleep_until(due);
    const double lag = MsBetween(due, Clock::now());
    harvester.Push({static_cast<uint64_t>(i), static_cast<uint64_t>(i), due, lag,
                    client->Submit(std::move(request))});
  }
  harvester.Close();
  return outcomes;
}

/// Closed loop with a fixed window in flight (kBatch priority). Lateness is
/// the time from a window slot freeing to the next Submit.
std::vector<Outcome> RunWindowLoop(const Inputs& inputs, double seconds,
                                   serve::Client* client, Clock::time_point* t0) {
  std::mutex mu;
  std::condition_variable cv;
  // Freed-slot timestamps; the initial window starts with no lateness.
  std::deque<Clock::time_point> free_slots(kBulkWindow, Clock::time_point::min());
  std::vector<Outcome> outcomes;
  Harvester harvester([&](Outcome&& o) {
    const Clock::time_point done = o.done;
    {
      std::lock_guard<std::mutex> lock(mu);
      outcomes.push_back(std::move(o));
      free_slots.push_back(done);
    }
    cv.notify_one();
  });
  *t0 = Clock::now();
  const Clock::time_point deadline = After(*t0, seconds);
  for (uint64_t seq = 0;; ++seq) {
    Clock::time_point freed;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !free_slots.empty(); });
      freed = free_slots.front();
      free_slots.pop_front();
    }
    serve::InferenceRequest request = inputs.Request(seq);
    request.priority = serve::Priority::kBatch;
    const Clock::time_point start = Clock::now();
    if (start >= deadline) break;
    const double lag = freed == Clock::time_point::min() ? 0.0 : MsBetween(freed, start);
    harvester.Push({seq, seq, start, lag, client->Submit(std::move(request))});
  }
  harvester.Close();
  return outcomes;
}

/// Closed loop, `clients` threads each waiting for its reply before the next
/// send. Lateness is the turnaround from one reply to the next Submit. With
/// `hot` set, half the requests draw from a fixed hot set of ids.
std::vector<Outcome> RunClosedLoop(const Inputs& inputs, uint64_t seed, double seconds,
                                   int clients, bool hot, serve::Client* client,
                                   Clock::time_point* t0) {
  std::atomic<uint64_t> next_seq{0};
  std::vector<std::vector<Outcome>> per_thread(clients);
  *t0 = Clock::now();
  const Clock::time_point deadline = After(*t0, seconds);
  auto loop = [&](int index) {
    Rng hot_rng(MixSeed(MixSeed(seed, kHotStream), static_cast<uint64_t>(index)));
    Clock::time_point prev_done = Clock::time_point::min();
    for (;;) {
      const uint64_t seq = next_seq.fetch_add(1);
      uint64_t id = seq;
      if (hot) {
        id = hot_rng.Bernoulli(0.5)
                 ? static_cast<uint64_t>(hot_rng.UniformInt(kHotSetSize))
                 : kHotSetSize + seq;
      }
      serve::InferenceRequest request = inputs.Request(id);
      const Clock::time_point start = Clock::now();
      if (start >= deadline) return;
      const double lag =
          prev_done == Clock::time_point::min() ? 0.0 : MsBetween(prev_done, start);
      const serve::InferenceResponse response =
          client->Submit(std::move(request)).get();
      const Clock::time_point done = Clock::now();
      per_thread[index].push_back(
          Resolve(seq, id, start, lag, response, done, hot && id < kHotSetSize));
      prev_done = done;
    }
  };
  std::vector<std::thread> threads;
  for (int i = 1; i < clients; ++i) threads.emplace_back(loop, i);
  loop(0);
  for (auto& t : threads) t.join();
  std::vector<Outcome> outcomes;
  for (auto& v : per_thread) {
    for (Outcome& o : v) outcomes.push_back(std::move(o));
  }
  return outcomes;
}

/// Cumulative CPU time of all vCPUs, and the part of it the hypervisor gave
/// to other guests (/proc/stat "cpu" line; steal reads 0 on bare metal).
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu"
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

/// Reads /proc/stat every 50 ms on its own thread until Stop(), so that the
/// steal share of any stretch of the timed phase can be told afterwards.
class StealSampler {
 public:
  StealSampler() : thread_([this] { Loop(); }) {}
  ~StealSampler() { Stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// Share of all vCPU time between the samples nearest `from` and `to`
  /// that the hypervisor stole. Call after Stop().
  double Share(Clock::time_point from, Clock::time_point to) const {
    const CpuTimes a = Nearest(from), b = Nearest(to);
    return b.total <= a.total ? 0.0
                              : static_cast<double>(b.steal - a.steal) /
                                    static_cast<double>(b.total - a.total);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      samples_.push_back({Clock::now(), ReadCpuTimes()});
      if (cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; })) {
        samples_.push_back({Clock::now(), ReadCpuTimes()});
        return;
      }
    }
  }

  CpuTimes Nearest(Clock::time_point t) const {
    const Sample* best = &samples_.front();
    for (const Sample& s : samples_) {
      if (std::abs(MsBetween(s.at, t)) < std::abs(MsBetween(best->at, t))) best = &s;
    }
    return best->times;
  }

  struct Sample {
    Clock::time_point at;
    CpuTimes times;
  };
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;  // last: starts after every member it uses
};

/// The end-to-end metrics, from the calm half of the timed phase. A shared
/// host loses its vCPUs to other guests in bursts (steal: for ~20 ms every
/// forward slows 5-10x, and some stretches run at 10-20% steal for seconds),
/// and a metric over the whole phase is decided by how much of that a run
/// happens to catch. The phase is cut into `window_s` windows; each request
/// belongs to the window it started in, and only the half of the windows
/// with the least steal count.
struct CalmMetrics {
  double p50_ms = 0.0;          // over the calm windows' requests
  double p99_ms = 0.0;          // median over calm windows of each one's p99
  double throughput_rps = 0.0;  // calm windows' OK requests / their seconds
  double steal_all = 0.0;       // steal share of the whole phase
  double steal_calm = 0.0;      // mean steal share of the calm windows
};

CalmMetrics MeasureCalm(const std::vector<Outcome>& outcomes, Clock::time_point t0,
                        double seconds, double window_s, const StealSampler& steal) {
  const int windows = std::max(1, static_cast<int>(seconds / window_s));
  std::vector<std::vector<double>> e2e(windows);
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    const double start_s = (MsBetween(t0, o.done) - o.e2e_ms) / 1000.0;
    const int w =
        std::min(windows - 1, std::max(0, static_cast<int>(start_s / window_s)));
    e2e[w].push_back(o.e2e_ms);
  }
  std::vector<std::pair<double, int>> by_steal;  // (steal share, window)
  for (int w = 0; w < windows; ++w) {
    by_steal.push_back(
        {steal.Share(After(t0, w * window_s), After(t0, (w + 1) * window_s)), w});
  }
  std::sort(by_steal.begin(), by_steal.end());
  const int calm = std::max(1, windows / 2);

  CalmMetrics m;
  std::vector<double> pooled, p99;
  for (int i = 0; i < calm; ++i) {
    const std::vector<double>& v = e2e[by_steal[i].second];
    m.steal_calm += by_steal[i].first / calm;
    pooled.insert(pooled.end(), v.begin(), v.end());
    if (!v.empty()) p99.push_back(Quantile(v, 0.99));
  }
  m.p50_ms = Median(pooled);
  m.p99_ms = Median(p99);
  m.throughput_rps = static_cast<double>(pooled.size()) / (calm * window_s);
  m.steal_all = steal.Share(t0, After(t0, seconds));
  return m;
}

/// Computes every hot-set series once, untimed, so the timed phase sees the
/// steady ~50% hit ratio from its first second (filling the cache inside it
/// took ~5 s and cost those seconds ~20% of their throughput). Returns each
/// hot id's output digest: the first computation every later hit must equal.
std::map<uint64_t, uint64_t> PrimeHotSet(const Inputs& inputs, serve::Client* client,
                                         Report* report) {
  constexpr uint64_t kChunk = 32;  // in flight at once
  std::map<uint64_t, uint64_t> digests;
  for (uint64_t first = 0; first < kHotSetSize; first += kChunk) {
    std::vector<std::future<serve::InferenceResponse>> futures;
    for (uint64_t id = first; id < first + kChunk; ++id) {
      futures.push_back(client->Submit(inputs.Request(id)));
    }
    for (uint64_t i = 0; i < kChunk; ++i) {
      const serve::InferenceResponse response = futures[i].get();
      if (!response.status.ok()) {
        report->Fail("hot-set priming: " + response.status.ToString());
        continue;
      }
      digests.emplace(first + i, Digest(response.output));
    }
  }
  return digests;
}

/// Bitwise checks on the phase's responses, outside the timed window.
/// `primed` holds the fleet's hot-set digests (empty elsewhere).
void CheckOutcomes(const std::vector<Outcome>& outcomes, const Inputs& inputs,
                   const std::map<uint64_t, uint64_t>& primed, Stack* stack,
                   Report* report) {
  const serve::FrozenModel& reference = stack->reference();
  int64_t compared = 0, mismatched = 0;
  int64_t hot_compared = 0, hot_mismatch = 0;
  for (const Outcome& o : outcomes) {
    if (!o.digested) continue;
    if (o.id < kHotSetSize && stack->router() != nullptr) {
      ++hot_compared;
      auto it = primed.find(o.id);
      if (it == primed.end() || it->second != o.digest) ++hot_mismatch;
    }
    if (!Checked(o.seq)) continue;
    const Tensor series = inputs.Series(o.id);
    const Tensor batch = series.Reshape({1, series.size(0), series.size(1)});
    ++compared;
    if (Digest(PlainForward(reference, inputs.TaskOf(o.id), batch)) != o.digest) {
      ++mismatched;
    }
  }
  std::printf("# check: %lld responses compared bitwise to the plain forward, "
              "%lld mismatched\n",
              static_cast<long long>(compared), static_cast<long long>(mismatched));
  if (compared < 100) {
    report->Fail("only " + std::to_string(compared) + " responses checked (< 100)");
  }
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " responses differ from the plain FrozenModel forward");
  }
  if (stack->router() != nullptr) {
    std::printf("# check: %zu hot-set keys primed, %lld of %lld hot-set responses "
                "differ from the first computation\n",
                primed.size(), static_cast<long long>(hot_mismatch),
                static_cast<long long>(hot_compared));
    if (hot_mismatch > 0) {
      report->Fail(std::to_string(hot_mismatch) +
                   " hot-set responses differ from their first computation");
    }
  }
}

}  // namespace

void RunTimedPhase(const WorkloadSpec& spec, const Inputs& inputs, uint64_t seed,
                   double seconds, Stack* stack, Report* report) {
  if (obs::TracingEnabled()) {
    report->Fail("tracing was on during the end-to-end phase");
  }
  std::map<uint64_t, uint64_t> primed;
  if (spec.kind == Workload::kFleet) primed = PrimeHotSet(inputs, stack->client(), report);
  Clock::time_point t0;
  std::vector<Outcome> outcomes;
  StealSampler steal;
  switch (spec.kind) {
    case Workload::kInteractive:
      outcomes = RunOpenLoop(inputs, seed, seconds, stack->client(), &t0);
      break;
    case Workload::kLongSeries:
      outcomes = RunClosedLoop(inputs, seed, seconds, 1, false, stack->client(), &t0);
      break;
    case Workload::kBulk:
      outcomes = RunWindowLoop(inputs, seconds, stack->client(), &t0);
      break;
    case Workload::kFleet:
      outcomes = RunClosedLoop(inputs, seed, seconds, kFleetClients, true,
                               stack->client(), &t0);
      break;
  }
  steal.Stop();

  std::vector<double> lag, queue, compute, batch, overhead;
  int64_t ok = 0, hits = 0;
  for (const Outcome& o : outcomes) {
    lag.push_back(o.lag_ms);
    if (!o.ok) continue;
    ++ok;
    if (o.cache_hit) {
      ++hits;
      continue;
    }
    queue.push_back(o.queue_ms);
    compute.push_back(o.compute_ms);
    batch.push_back(static_cast<double>(o.micro_batch));
    overhead.push_back(o.e2e_ms - o.queue_ms - o.compute_ms);
  }
  report->attempted = static_cast<int64_t>(outcomes.size());
  report->failed = report->attempted - ok;

  const CalmMetrics calm = MeasureCalm(outcomes, t0, seconds, spec.window_s, steal);
  std::printf("# steal: the hypervisor took %.2f%% of CPU time in the timed phase, "
              "%.2f%% in its calm half\n",
              100.0 * calm.steal_all, 100.0 * calm.steal_calm);
  report->EndToEnd("latency_p50_ms", calm.p50_ms, "ms");
  report->EndToEnd("throughput_rps", calm.throughput_rps, "req/s");
  // Per-layer, not end-to-end: on a shared host the tail follows the host's
  // load far more than the median does (see README.md, "Choices").
  report->Layer("latency_p99_ms", calm.p99_ms, "ms");

  const double lag_p99 = Quantile(lag, 0.99);
  report->Layer("gen.attempted", static_cast<double>(report->attempted), "count");
  report->Layer("gen.failed", static_cast<double>(report->failed), "count");
  report->Layer("gen.lag_p99_ms", lag_p99, "ms");
  report->Layer("engine.queue_ms_p50", Quantile(queue, 0.50), "ms");
  report->Layer("engine.queue_ms_p99", Quantile(queue, 0.99), "ms");
  report->Layer("engine.compute_ms_p50", Quantile(compute, 0.50), "ms");
  report->Layer("engine.batch_size_mean", Mean(batch), "count");
  report->Layer("engine.overhead_ms_p50", Quantile(overhead, 0.50), "ms");
  report->Layer("cache.hit_ratio",
                ok == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(ok),
                "ratio");

  if (report->failed > 0) {
    report->Fail(std::to_string(report->failed) + " of " +
                 std::to_string(report->attempted) + " requests failed");
  }
  // Only the open loop has a schedule to fall behind; a closed loop's
  // turnaround is reported, not flagged. Lateness says the host starved the
  // generator, not that an output was wrong, so it warns rather than fails.
  if (spec.kind == Workload::kInteractive && lag_p99 > 5.0) {
    std::printf("# warning: load generator p99 lateness %.3f ms exceeds 5 ms; the "
                "offered load was not what was scheduled\n",
                lag_p99);
  }
  CheckOutcomes(outcomes, inputs, primed, stack, report);
}

}  // namespace ledger
}  // namespace rita
