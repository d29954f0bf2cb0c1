// Tests for the parallel execution surface: nest-safe ParallelFor, concurrent
// callers, exception propagation, the scratch arena, counter-based RNG
// streams, and bit-identical group attention / k-means results across pool
// widths (the determinism contract of the slice-parallel refactor).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/kmeans.h"
#include "core/group_attention.h"
#include "model/rita_model.h"
#include "obs/trace.h"
#include "util/execution_context.h"
#include "util/thread_pool.h"

namespace rita {
namespace {

TEST(ThreadPoolNestingTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  // More outer tasks than workers, each spawning an inner ParallelFor on the
  // same pool: under the old global-wait design a worker would block on other
  // callers' work and the pool could deadlock. Repeat to shake out schedules.
  for (int round = 0; round < 25; ++round) {
    std::vector<std::atomic<int>> hits(32 * 64);
    pool.ParallelFor(0, 32, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        pool.ParallelFor(0, 64, [&, o](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) hits[o * 64 + i].fetch_add(1);
        });
      }
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolNestingTest, TriplyNestedStillCompletes) {
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 6, [&](int64_t a0, int64_t a1) {
    for (int64_t a = a0; a < a1; ++a) {
      pool.ParallelFor(0, 6, [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
          pool.ParallelFor(0, 6, [&](int64_t c0, int64_t c1) {
            total.fetch_add(c1 - c0);
          });
        }
      });
    }
  });
  EXPECT_EQ(total.load(), 6 * 6 * 6);
}

TEST(ThreadPoolNestingTest, ConcurrentCallersAreIsolated) {
  ThreadPool pool(4);
  // Several external threads issue ParallelFor calls simultaneously; each
  // call must cover exactly its own range (per-call task groups — no caller
  // waits on or absorbs another's shards).
  constexpr int kCallers = 6;
  constexpr int kRange = 500;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kRange);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        pool.ParallelFor(0, kRange, [&, c](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) hits[c][i].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int i = 0; i < kRange; ++i) ASSERT_EQ(hits[c][i].load(), 20);
  }
}

TEST(ThreadPoolNestingTest, ExceptionInShardPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [](int64_t lo, int64_t) {
                         if (lo >= 0) throw std::runtime_error("shard failed");
                       }),
      std::runtime_error);
  // The pool must remain fully usable afterwards.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 100, [&](int64_t lo, int64_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolNestingTest, ExceptionInInlineShardStillWaitsForOthers) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(0, 10, [&](int64_t lo, int64_t hi) {
      if (lo == 0) throw std::runtime_error("inline shard failed");
      completed.fetch_add(static_cast<int>(hi - lo));
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // All non-throwing shards ran to completion before the rethrow (the body's
  // captures may die as soon as ParallelFor returns).
  EXPECT_EQ(completed.load(), 10 - 5);
}

TEST(ScratchArenaTest, RecyclesBuffersAcrossLeases) {
  ScratchArena arena;
  float* first = nullptr;
  {
    ScratchArena::Lease lease = arena.Acquire();
    first = lease.Floats(256);
    first[0] = 1.0f;
    first[255] = 2.0f;
  }
  ScratchArena::Lease lease = arena.Acquire();
  EXPECT_EQ(lease.Floats(256), first);  // same chunk, same buffer, no realloc
}

TEST(ScratchArenaTest, ConcurrentLeasesAreDistinct) {
  ScratchArena arena;
  ScratchArena::Lease a = arena.Acquire();
  ScratchArena::Lease b = arena.Acquire();
  float* pa = a.Floats(64);
  float* pb = b.Floats(64);
  EXPECT_NE(pa, pb);
}

TEST(ScratchArenaTest, RetentionCapFreesOversizedChunks) {
  ScratchArena arena(/*max_retained_bytes=*/1024);
  {
    ScratchArena::Lease lease = arena.Acquire();
    lease.Floats(4096);  // 16 KiB, far over the cap
  }
  // The chunk was released over the cap, so its storage went back to the
  // allocator; the next lease starts empty instead of pinning 16 KiB.
  ScratchArena::Lease lease = arena.Acquire();
  float* p = lease.Floats(8);  // small buffer fits under the cap
  ASSERT_NE(p, nullptr);
  {
    ScratchArena::Lease small = arena.Acquire();
    small.Floats(8);
  }
  ScratchArena::Lease again = arena.Acquire();
  ASSERT_NE(again.Floats(8), nullptr);  // under-cap chunks keep recycling
}

TEST(ScratchArenaTest, ResetReusesBuffersBySequencePosition) {
  ScratchArena arena;
  ScratchArena::Lease lease = arena.Acquire();
  float* p0 = lease.Floats(10);
  float* p1 = lease.Floats(20);
  lease.Reset();
  EXPECT_EQ(lease.Floats(10), p0);
  EXPECT_EQ(lease.Floats(20), p1);
}

// g_grad_mode is thread_local, so a caller's NoGradGuard does not apply
// inside pool workers on its own; ExecutionContext::ParallelFor must
// propagate the caller's mode into every shard (and restore the workers'
// own mode afterwards).
TEST(GradModePropagationTest, CallerNoGradGuardReachesPoolWorkers) {
  ThreadPool pool(4);
  ExecutionContext context(&pool);
  constexpr int64_t kRange = 64;
  std::vector<int> observed(kRange, -1);
  {
    ag::NoGradGuard guard;
    context.ParallelFor(0, kRange, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) observed[i] = ag::GradModeEnabled() ? 1 : 0;
    });
  }
  for (int64_t i = 0; i < kRange; ++i) {
    EXPECT_EQ(observed[i], 0) << "grad mode leaked into shard " << i;
  }
  // Default (grad-on) callers propagate grad-on.
  context.ParallelFor(0, kRange, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) observed[i] = ag::GradModeEnabled() ? 1 : 0;
  });
  for (int64_t i = 0; i < kRange; ++i) EXPECT_EQ(observed[i], 1);
}

// The worker's own grad mode must be restored after running a propagated
// shard: a no-grad shard followed by a grad-on caller's shard on the same
// worker must not see stale state.
TEST(GradModePropagationTest, WorkersRestoreTheirModeBetweenCalls) {
  ThreadPool pool(2);
  ExecutionContext context(&pool);
  {
    ag::NoGradGuard guard;
    context.ParallelFor(0, 32, [](int64_t, int64_t) {});
  }
  std::atomic<int> grad_on_count{0};
  context.ParallelFor(0, 32, [&](int64_t lo, int64_t hi) {
    if (ag::GradModeEnabled()) grad_on_count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(grad_on_count.load(), 32);
}

// Functional consequence: a forward pass under NoGradGuard whose slice loops
// run on pool workers must not record an autograd graph anywhere.
TEST(GradModePropagationTest, NoGradForwardBuildsNoGraphInPoolWorkers) {
  ThreadPool pool(4);
  ExecutionContext context(&pool);
  Rng rng(55);
  core::GroupAttentionOptions options;
  options.num_groups = 4;
  core::GroupAttentionMechanism mech(4, options, &rng);
  mech.set_execution_context(&context);
  ag::Variable q(Tensor::RandNormal({4, 32, 4}, &rng), true);
  ag::Variable k(Tensor::RandNormal({4, 32, 4}, &rng), true);
  ag::Variable v(Tensor::RandNormal({4, 32, 4}, &rng), true);
  ag::NoGradGuard guard;
  ag::Variable out = mech.Forward(q, k, v);
  EXPECT_EQ(out.grad_fn(), nullptr);
}

// The obs trace context is thread_local too: every shard must run under the
// caller's trace id, so kernel spans on pool workers join the request's
// trace, and workers must drop it again afterwards. The inline shard holds
// the caller until the other three have run, which forces them onto workers.
TEST(TracePropagationTest, ShardsOnPoolWorkersRunUnderCallersTrace) {
  ThreadPool pool(4);
  ExecutionContext context(&pool);
  std::vector<uint64_t> observed(4, 0);
  std::atomic<int> done{0};
  {
    obs::ScopedTrace trace(42);
    context.ParallelFor(0, 4, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) observed[i] = obs::CurrentTrace().trace_id;
      if (lo == 0) {
        while (done.load() < 3) std::this_thread::yield();
      } else {
        done.fetch_add(1);
      }
    });
  }
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(observed[i], 42u) << "shard " << i;

  std::atomic<int> traced{0};
  context.ParallelFor(0, 64, [&](int64_t lo, int64_t hi) {
    if (obs::CurrentTrace().trace_id != 0) traced.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(traced.load(), 0) << "a worker kept a finished caller's trace";
}

TEST(SliceRngTest, CounterBasedStreamsAreReproducibleAndDistinct) {
  Rng a = ExecutionContext::SliceRng(7, 3, 11);
  Rng b = ExecutionContext::SliceRng(7, 3, 11);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());

  Rng c = ExecutionContext::SliceRng(7, 3, 12);  // neighbouring slice
  Rng d = ExecutionContext::SliceRng(7, 4, 11);  // neighbouring stream
  int same_c = 0, same_d = 0;
  Rng a2 = ExecutionContext::SliceRng(7, 3, 11);
  for (int i = 0; i < 64; ++i) {
    const uint64_t v = a2.NextU64();
    same_c += (v == c.NextU64());
    same_d += (v == d.NextU64());
  }
  EXPECT_LT(same_c, 2);
  EXPECT_LT(same_d, 2);
}

TEST(KMeansDeterminismTest, BitIdenticalAcrossPoolWidths) {
  Rng data_rng(21);
  // n > one reduction block so the parallel centroid update path is the one
  // being compared, not the trivial single-block case.
  Tensor points = Tensor::RandNormal({1500, 12}, &data_rng);
  cluster::KMeansOptions options;
  options.num_clusters = 24;
  options.max_iters = 4;

  ThreadPool pool1(1), pool4(4);
  ExecutionContext ctx1(&pool1), ctx4(&pool4);
  Rng rng1(99), rng4(99);
  cluster::KMeansResult r1 = cluster::RunKMeans(points, options, &rng1, &ctx1);
  cluster::KMeansResult r4 = cluster::RunKMeans(points, options, &rng4, &ctx4);

  ASSERT_EQ(r1.num_clusters(), r4.num_clusters());
  EXPECT_EQ(r1.assignment, r4.assignment);
  EXPECT_EQ(r1.counts, r4.counts);
  EXPECT_EQ(std::memcmp(r1.centroids.data(), r4.centroids.data(),
                        sizeof(float) * r1.centroids.numel()),
            0);
  EXPECT_EQ(r1.inertia, r4.inertia);
}

TEST(GroupAttentionDeterminismTest, ForwardAndBackwardBitIdenticalAcrossPoolWidths) {
  const int64_t bh = 6, n = 700, d = 8;
  Rng data_rng(5);
  Tensor q0 = Tensor::RandNormal({bh, n, d}, &data_rng);
  Tensor k0 = Tensor::RandNormal({bh, n, d}, &data_rng);
  Tensor v0 = Tensor::RandNormal({bh, n, d}, &data_rng);

  auto run = [&](int threads, Tensor* grads) {
    ThreadPool pool(threads);
    ExecutionContext context(&pool);
    Rng rng(1234);
    core::GroupAttentionOptions options;
    options.num_groups = 12;
    options.kmeans_iters = 3;
    core::GroupAttentionMechanism mech(d, options, &rng);
    mech.set_execution_context(&context);
    ag::Variable q(q0.Clone(), true), k(k0.Clone(), true), v(v0.Clone(), true);
    ag::Variable out = mech.Forward(q, k, v);
    ag::SumAll(out).Backward();
    grads[0] = q.grad().Clone();
    grads[1] = k.grad().Clone();
    grads[2] = v.grad().Clone();
    return out.data().Clone();
  };

  Tensor grads1[3], grads4[3];
  Tensor out1 = run(1, grads1);
  Tensor out4 = run(4, grads4);

  EXPECT_EQ(std::memcmp(out1.data(), out4.data(), sizeof(float) * out1.numel()), 0)
      << "forward output differs between 1-thread and 4-thread pools";
  const char* names[3] = {"dQ", "dK", "dV"};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(std::memcmp(grads1[i].data(), grads4[i].data(),
                          sizeof(float) * grads1[i].numel()),
              0)
        << names[i] << " differs between 1-thread and 4-thread pools";
  }
}

// Backward resolves the execution context through the mechanism at call
// time, so a context destroyed between forward and backward (after being
// cleared on the mechanism) must not be dereferenced.
TEST(GroupAttentionDeterminismTest, BackwardSafeAfterContextSwap) {
  Rng rng(13);
  core::GroupAttentionOptions options;
  options.num_groups = 4;
  core::GroupAttentionMechanism mech(4, options, &rng);
  ag::Variable q(Tensor::RandNormal({2, 20, 4}, &rng), true);
  ag::Variable k(Tensor::RandNormal({2, 20, 4}, &rng), true);
  ag::Variable v(Tensor::RandNormal({2, 20, 4}, &rng), true);
  ag::Variable out;
  {
    ThreadPool pool(2);
    ExecutionContext context(&pool);
    mech.set_execution_context(&context);
    out = mech.Forward(q, k, v);
    mech.set_execution_context(nullptr);
  }  // context and pool destroyed with the graph still alive
  ag::SumAll(out).Backward();
  EXPECT_EQ(q.grad().numel(), q.data().numel());
}

// Destroying the mechanism itself before backward must also be safe: the
// graph holds the shared context cell, which the mechanism's destructor
// nulls, so backward falls back to the default context.
TEST(GroupAttentionDeterminismTest, BackwardSafeAfterMechanismDestroyed) {
  Rng rng(14);
  ag::Variable q(Tensor::RandNormal({2, 16, 4}, &rng), true);
  ag::Variable k(Tensor::RandNormal({2, 16, 4}, &rng), true);
  ag::Variable v(Tensor::RandNormal({2, 16, 4}, &rng), true);
  ag::Variable out;
  {
    core::GroupAttentionOptions options;
    options.num_groups = 4;
    core::GroupAttentionMechanism mech(4, options, &rng);
    out = mech.Forward(q, k, v);
  }  // mechanism destroyed with the graph still alive
  ag::SumAll(out).Backward();
  EXPECT_EQ(k.grad().numel(), k.data().numel());
}

// End-to-end: a whole RITA model (conv frontend + group-attention encoder +
// heads) produces bit-identical logits and loss gradients whether its
// execution context runs over a 1-thread or a 4-thread pool — the contract
// the Trainer relies on when options.execution_context is set.
TEST(GroupAttentionDeterminismTest, RitaModelForwardBitIdenticalAcrossPoolWidths) {
  Rng data_rng(31);
  Tensor batch = Tensor::RandNormal({3, 60, 2}, &data_rng);

  auto run = [&](int threads) {
    ThreadPool pool(threads);
    ExecutionContext context(&pool);
    Rng rng(77);
    model::RitaConfig config;
    config.input_channels = 2;
    config.input_length = 60;
    config.window = 5;
    config.stride = 5;
    config.num_classes = 4;
    config.encoder.dim = 16;
    config.encoder.num_layers = 2;
    config.encoder.num_heads = 2;
    config.encoder.ffn_hidden = 32;
    config.encoder.dropout = 0.0f;
    config.encoder.attention.kind = attn::AttentionKind::kGroup;
    config.encoder.attention.group.num_groups = 4;
    model::RitaModel model(config, &rng);
    model.SetExecutionContext(&context);
    return model.ClassLogits(batch).data().Clone();
  };

  Tensor logits1 = run(1);
  Tensor logits4 = run(4);
  EXPECT_EQ(std::memcmp(logits1.data(), logits4.data(),
                        sizeof(float) * logits1.numel()),
            0)
      << "model logits differ between 1-thread and 4-thread pools";
}

}  // namespace
}  // namespace rita
