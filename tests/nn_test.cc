// Tests for the NN layer library: module registry, layers, optimisers,
// LR schedules and checkpoint round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "core/attention_factory.h"
#include "linalg/kernels/kernels.h"
#include "model/transformer_encoder.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/quantized_tensor.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

namespace rita {
namespace nn {
namespace {

class ToyModule : public Module {
 public:
  explicit ToyModule(Rng* rng) : inner_(3, 2, rng) {
    w_ = RegisterParameter("w", Tensor::Ones({2, 2}));
    buf_ = Tensor::Full({2}, 7.0f);
    RegisterBuffer("buf", &buf_);
    RegisterModule("inner", &inner_);
  }
  ag::Variable w_;
  Tensor buf_;
  Linear inner_;
};

TEST(ModuleTest, NamedParametersRecursive) {
  Rng rng(1);
  ToyModule m(&rng);
  auto named = m.NamedParameters();
  std::vector<std::string> names;
  for (auto& [n, v] : named) names.push_back(n);
  EXPECT_EQ(names.size(), 3u);
  EXPECT_NE(std::find(names.begin(), names.end(), "w"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "inner.weight"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "inner.bias"), names.end());
}

TEST(ModuleTest, BuffersAndParamCount) {
  Rng rng(1);
  ToyModule m(&rng);
  EXPECT_EQ(m.NamedBuffers().size(), 1u);
  EXPECT_EQ(m.NumParameters(), 4 + 3 * 2 + 2);
}

TEST(ModuleTest, TrainingFlagPropagates) {
  Rng rng(1);
  ToyModule m(&rng);
  EXPECT_TRUE(m.training());
  m.SetTraining(false);
  EXPECT_FALSE(m.inner_.training());
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(1);
  ToyModule m(&rng);
  ag::Variable loss = ag::SumAll(m.w_);
  loss.Backward();
  EXPECT_TRUE(m.w_.has_grad());
  m.ZeroGrad();
  EXPECT_FALSE(m.w_.has_grad());
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(2);
  Linear lin(3, 2, &rng);
  ag::Variable x(Tensor::FromVector({1, 3}, {1, 2, 3}), false);
  ag::Variable y = lin.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  // y = x W + b computed manually
  const Tensor& w = lin.weight().data();
  for (int64_t j = 0; j < 2; ++j) {
    float expect = 0.0f;
    for (int64_t i = 0; i < 3; ++i) expect += x.data().At({0, i}) * w.At({i, j});
    EXPECT_NEAR(y.data().At({0, j}), expect, 1e-5f);  // bias init is zero
  }
}

TEST(LinearTest, ThreeDimInputFlattened) {
  Rng rng(3);
  Linear lin(4, 6, &rng);
  ag::Variable x(Tensor::Ones({2, 5, 4}), false);
  ag::Variable y = lin.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 6}));
}

TEST(Conv1dTest, WindowsAndShape) {
  Rng rng(4);
  Conv1d conv(3, 8, /*window=*/5, /*stride=*/5, &rng);
  EXPECT_EQ(conv.OutputLength(200), 40);
  ag::Variable x(Tensor::Ones({2, 200, 3}), false);
  ag::Variable y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 40, 8}));
}

TEST(Conv1dTest, StrideOneOverlapping) {
  Rng rng(4);
  Conv1d conv(1, 4, 3, 1, &rng);
  EXPECT_EQ(conv.OutputLength(10), 8);
  ag::Variable x(Tensor::Ones({1, 10, 1}), false);
  EXPECT_EQ(conv.Forward(x).shape(), (Shape{1, 8, 4}));
}

TEST(ConvTranspose1dTest, InvertsConvShape) {
  Rng rng(5);
  Conv1d conv(3, 8, 5, 5, &rng);
  ConvTranspose1d deconv(8, 3, 5, 5, &rng);
  ag::Variable x(Tensor::Ones({2, 200, 3}), false);
  ag::Variable h = conv.Forward(x);
  ag::Variable y = deconv.Forward(h);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(PositionalEmbeddingTest, SliceAndBounds) {
  Rng rng(6);
  PositionalEmbedding pos(100, 16, &rng);
  ag::Variable p = pos.Forward(40);
  EXPECT_EQ(p.shape(), (Shape{40, 16}));
  EXPECT_EQ(pos.max_len(), 100);
}

TEST(FeedForwardTest, ShapePreserved) {
  Rng rng(7);
  FeedForward ffn(16, 64, 0.0f, &rng);
  ag::Variable x(Tensor::Ones({2, 5, 16}), false);
  EXPECT_EQ(ffn.Forward(x).shape(), x.shape());
}

TEST(SgdTest, ConvergesOnQuadratic) {
  // minimise (w - 3)^2
  ag::Variable w(Tensor::Scalar(0.0f), true);
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    ag::Variable loss = ag::Square(ag::AddScalar(w, -3.0f));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.data().Item(), 3.0f, 1e-3f);
}

TEST(SgdTest, MomentumAcceleratesDescent) {
  ag::Variable w1(Tensor::Scalar(0.0f), true);
  ag::Variable w2(Tensor::Scalar(0.0f), true);
  Sgd plain({w1}, 0.01f);
  Sgd heavy({w2}, 0.01f, 0.9f);
  for (int i = 0; i < 20; ++i) {
    plain.ZeroGrad();
    ag::Square(ag::AddScalar(w1, -3.0f)).Backward();
    plain.Step();
    heavy.ZeroGrad();
    ag::Square(ag::AddScalar(w2, -3.0f)).Backward();
    heavy.Step();
  }
  EXPECT_GT(w2.data().Item(), w1.data().Item());  // momentum moved further
}

TEST(AdamWTest, ConvergesOnQuadraticBowl) {
  Rng rng(8);
  ag::Variable w(Tensor::RandNormal({4}, &rng), true);
  AdamWOptions opts;
  opts.lr = 0.05f;
  opts.weight_decay = 0.0f;
  AdamW opt({w}, opts);
  const Tensor target = Tensor::FromVector({4}, {1, -2, 3, 0.5});
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    ag::Variable diff = ag::Sub(w, ag::Variable(target));
    ag::SumAll(ag::Square(diff)).Backward();
    opt.Step();
  }
  EXPECT_TRUE(w.data().AllClose(target, 1e-2f, 1e-2f));
}

TEST(AdamWTest, WeightDecayShrinksWeights) {
  ag::Variable w(Tensor::Scalar(1.0f), true);
  AdamWOptions opts;
  opts.lr = 0.1f;
  opts.weight_decay = 0.5f;
  AdamW opt({w}, opts);
  // Zero gradient: only decay acts.
  opt.ZeroGrad();
  ag::MulScalar(w, 0.0f).Backward();
  opt.Step();
  EXPECT_LT(w.data().Item(), 1.0f);
}

TEST(ScheduleTest, WarmupThenCosineDecay) {
  WarmupCosineSchedule sched(1.0f, 10, 110, 0.1f);
  EXPECT_LT(sched.LrAt(0), 0.2f);          // warming up
  EXPECT_NEAR(sched.LrAt(9), 1.0f, 1e-5f); // end of warmup
  EXPECT_NEAR(sched.LrAt(110), 0.1f, 1e-4f);  // decayed to floor
  EXPECT_GT(sched.LrAt(30), sched.LrAt(80));  // monotone decay
}

TEST(CheckpointTest, RoundTripRestoresExactly) {
  const std::string path = ::testing::TempDir() + "/ckpt_test.bin";
  Rng rng(9);
  ToyModule a(&rng);
  // Perturb some state.
  a.w_.mutable_data().Fill(3.25f);
  a.buf_.Fill(-1.5f);
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());

  Rng rng2(99);
  ToyModule b(&rng2);
  ASSERT_FALSE(b.w_.data().AllClose(a.w_.data()));
  ASSERT_TRUE(LoadCheckpoint(&b, path).ok());
  EXPECT_TRUE(b.w_.data().AllClose(a.w_.data()));
  EXPECT_TRUE(b.buf_.AllClose(a.buf_));
  EXPECT_TRUE(b.inner_.weight().data().AllClose(a.inner_.weight().data()));
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShapeMismatchRejected) {
  const std::string path = ::testing::TempDir() + "/ckpt_mismatch.bin";
  Rng rng(10);
  Linear small(2, 2, &rng);
  ASSERT_TRUE(SaveCheckpoint(small, path).ok());
  Linear big(3, 3, &rng);
  Status s = LoadCheckpoint(&big, path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, PartialLoadSkipsUnknown) {
  const std::string path = ::testing::TempDir() + "/ckpt_partial.bin";
  Rng rng(11);
  ToyModule full(&rng);
  full.w_.mutable_data().Fill(5.0f);
  ASSERT_TRUE(SaveCheckpoint(full, path).ok());

  // A module that only has the inner Linear: strict load fails, partial works.
  class InnerOnly : public Module {
   public:
    explicit InnerOnly(Rng* rng) : inner_(3, 2, rng) { RegisterModule("inner", &inner_); }
    Linear inner_;
  };
  InnerOnly partial(&rng);
  EXPECT_FALSE(LoadCheckpoint(&partial, path).ok());
  EXPECT_TRUE(LoadCheckpoint(&partial, path, /*allow_partial=*/true).ok());
  EXPECT_TRUE(partial.inner_.weight().data().AllClose(full.inner_.weight().data()));
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Corrupt checkpoints: typed errors, never an abort or a huge allocation
// --------------------------------------------------------------------------

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Byte offset of the first entry's ndim field: magic, version, count, then
// the first name (u64 length + bytes).
size_t FirstNdimOffset(const std::vector<char>& bytes) {
  uint64_t name_len = 0;
  std::memcpy(&name_len, bytes.data() + 16, 8);
  return 24 + static_cast<size_t>(name_len);
}

template <typename T>
void Poke(std::vector<char>* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

TEST(CheckpointTest, CorruptShapeFieldsAreInvalidArgument) {
  const std::string path = ::testing::TempDir() + "/ckpt_corrupt_shape.bin";
  Rng rng(12);
  ToyModule a(&rng);
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  const std::vector<char> good = ReadFile(path);
  const size_t ndim_at = FirstNdimOffset(good);
  uint64_t ndim = 0;
  std::memcpy(&ndim, good.data() + ndim_at, 8);
  ASSERT_GE(ndim, 1u);

  struct Case {
    const char* what;
    std::vector<char> bytes;
  };
  std::vector<Case> cases;
  for (uint64_t huge : {uint64_t{9}, uint64_t{1} << 32, uint64_t{1} << 61, ~uint64_t{0}}) {
    Case c{"huge ndim", good};
    Poke(&c.bytes, ndim_at, huge);
    cases.push_back(std::move(c));
  }
  for (int64_t dim : {int64_t{-1}, int64_t{-(int64_t{1} << 40)}, INT64_MIN}) {
    Case c{"negative dim", good};
    Poke(&c.bytes, ndim_at + 8, dim);
    cases.push_back(std::move(c));
  }
  if (ndim >= 2) {
    Case c{"numel overflow", good};
    Poke(&c.bytes, ndim_at + 8, int64_t{1} << 40);
    Poke(&c.bytes, ndim_at + 16, int64_t{1} << 40);
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    WriteFile(path, c.bytes);
    ToyModule b(&rng);
    for (bool partial : {false, true}) {
      const Status st = LoadCheckpoint(&b, path, partial);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.what << ": " << st.ToString();
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, FuzzedCheckpointsNeverAbort) {
  // Fuzz in the style of the wire-framing gate: truncations, random bit
  // flips, huge entry/float counts and negative dims. The property is "a
  // typed status, never a crash, sanitizer report or huge allocation" (the
  // suite runs under ASan/UBSan in CI). Loads go into modules with both the
  // matching and a disjoint parameter set, so the skip path is fuzzed too.
  const std::string path = ::testing::TempDir() + "/ckpt_fuzz.bin";
  Rng rng(4242);
  ToyModule source(&rng);
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  const std::vector<char> good = ReadFile(path);

  class Other : public Module {
   public:
    Other() { v_ = RegisterParameter("v", Tensor::Zeros({3})); }
    ag::Variable v_;
  };
  auto load_all = [&](const std::vector<char>& bytes) {
    WriteFile(path, bytes);
    ToyModule toy(&rng);
    Other other;
    for (bool partial : {false, true}) {
      (void)LoadCheckpoint(&toy, path, partial);
      (void)LoadCheckpoint(&other, path, partial);
    }
  };

  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<char> bytes(good.begin(), good.begin() + cut);
    WriteFile(path, bytes);
    ToyModule toy(&rng);
    EXPECT_FALSE(LoadCheckpoint(&toy, path).ok()) << "prefix of " << cut << " bytes";
    load_all(bytes);
  }
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<char> bytes = good;
    const int flips = 1 + static_cast<int>(rng.NextU64() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t bit = rng.NextU64() % (bytes.size() * 8);
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
    load_all(bytes);
  }
  // Huge entry count, string length and float count fields.
  const size_t ndim_at = FirstNdimOffset(good);
  uint64_t ndim = 0;
  std::memcpy(&ndim, good.data() + ndim_at, 8);
  const size_t floats_at = ndim_at + 8 + 8 * static_cast<size_t>(ndim);
  for (size_t offset : {size_t{8}, size_t{16}, floats_at}) {
    for (uint64_t huge : {uint64_t{1} << 31, uint64_t{1} << 62, ~uint64_t{0}}) {
      std::vector<char> bytes = good;
      Poke(&bytes, offset, huge);
      load_all(bytes);
    }
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Row-parallel Linear / FeedForward / LayerNorm: bitwise contracts
// --------------------------------------------------------------------------

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

std::vector<kernels::Backend> Backends() {
  std::vector<kernels::Backend> out = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) out.push_back(kernels::Backend::kSimd);
  return out;
}

class RowParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { kernels::SetBackendForTesting(initial_); }
  const kernels::Backend initial_ = kernels::ActiveBackend();
};

// A Linear with a non-zero bias, so the epilogue is exercised.
void RandomizeBias(Module* m, Rng* rng) {
  for (auto& [name, v] : m->NamedParameters()) {
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, "bias") == 0) {
      v.mutable_data().CopyFrom(Tensor::RandNormal(v.shape(), rng));
    }
  }
}

// The forward as the Reshape -> ag::MatMul -> Reshape -> broadcast ag::Add
// chain computed it before the row loop.
ag::Variable ChainForward(Linear* lin, const ag::Variable& x) {
  Shape out_shape = x.shape();
  out_shape.back() = lin->out_features();
  ag::Variable flat = ag::Reshape(x, {-1, lin->in_features()});
  ag::Variable y = ag::Reshape(ag::MatMul(flat, lin->weight()), out_shape);
  return ag::Add(y, lin->bias());
}

TEST_F(RowParallelTest, LinearFp32GradAndNoGradMatchTheMatMulChain) {
  for (kernels::Backend backend : Backends()) {
    kernels::SetBackendForTesting(backend);
    for (Shape in_shape : {Shape{41, 24}, Shape{3, 7, 24}, Shape{4016, 24}}) {
      Rng rng(21);
      Linear lin(24, 20, &rng);
      RandomizeBias(&lin, &rng);
      const Tensor x = Tensor::RandNormal(in_shape, &rng);
      ag::Variable xv(x, true);
      ag::Variable y_grad = lin.Forward(xv);
      ag::Variable want = ChainForward(&lin, ag::Variable(x));
      Tensor y_nograd;
      {
        ag::NoGradGuard guard;
        y_nograd = lin.Forward(ag::Variable(x)).data();
      }
      const char* name = kernels::BackendName(backend);
      EXPECT_TRUE(BitEqual(y_grad.data(), want.data())) << name << " " << ShapeToString(in_shape);
      EXPECT_TRUE(BitEqual(y_nograd, want.data())) << name << " " << ShapeToString(in_shape);
    }
  }
}

TEST_F(RowParallelTest, LinearBackwardMatchesTheMatMulChain) {
  for (kernels::Backend backend : Backends()) {
    kernels::SetBackendForTesting(backend);
    for (Shape in_shape : {Shape{41, 24}, Shape{3, 7, 24}}) {
      Rng rng(22);
      Linear lin(24, 20, &rng);
      RandomizeBias(&lin, &rng);
      const Tensor x = Tensor::RandNormal(in_shape, &rng);
      Shape out_shape = in_shape;
      out_shape.back() = 20;
      const Tensor g = Tensor::RandNormal(out_shape, &rng);

      ag::Variable x1(x, true);
      lin.ZeroGrad();
      ag::SumAll(ag::Mul(lin.Forward(x1), ag::Variable(g))).Backward();
      const Tensor dw1 = lin.weight().grad().Clone();
      const Tensor db1 = lin.bias().grad().Clone();

      ag::Variable x2(x, true);
      lin.ZeroGrad();
      ag::SumAll(ag::Mul(ChainForward(&lin, x2), ag::Variable(g))).Backward();
      const char* name = kernels::BackendName(backend);
      EXPECT_TRUE(BitEqual(x1.grad(), x2.grad())) << name;
      EXPECT_TRUE(BitEqual(dw1, lin.weight().grad())) << name;
      EXPECT_TRUE(BitEqual(db1, lin.bias().grad())) << name;
    }
  }
}

TEST_F(RowParallelTest, QuantizedLinearMatchesWholeMatrixKernelPlusBias) {
  for (kernels::Backend backend : Backends()) {
    kernels::SetBackendForTesting(backend);
    for (Shape in_shape : {Shape{41, 24}, Shape{2, 9, 24}, Shape{4016, 24}}) {
      Rng rng(23);
      Linear lin(24, 20, &rng);
      RandomizeBias(&lin, &rng);
      const QuantizedTensor q = QuantizedTensor::QuantizeBf16(lin.weight().data());
      lin.SetQuantizedWeight(&q);
      const Tensor x = Tensor::RandNormal(in_shape, &rng);
      const int64_t rows = x.numel() / 24;
      Shape out_shape = in_shape;
      out_shape.back() = 20;
      Tensor want(out_shape);
      kernels::Active().gemm_bf16(x.data(), q.bf16_data(), want.data(), rows, 20, 24, 0,
                                  rows);
      want = ops::Add(want, lin.bias().data());
      const std::string what =
          std::string(kernels::BackendName(backend)) + " " + ShapeToString(in_shape);
      // Training forwards ignore the attached weight.
      EXPECT_TRUE(BitEqual(lin.Forward(ag::Variable(x, true)).data(),
                           ChainForward(&lin, ag::Variable(x)).data()))
          << what;
      ag::NoGradGuard guard;
      EXPECT_TRUE(BitEqual(lin.Forward(ag::Variable(x)).data(), want)) << what;
    }
  }
}

TEST_F(RowParallelTest, FeedForwardGeluEpilogueMatchesGradModeForward) {
  // Hidden widths that are not multiples of the 8-lane vector put row and
  // shard boundaries at every lane offset of the SIMD GELU.
  for (kernels::Backend backend : Backends()) {
    kernels::SetBackendForTesting(backend);
    for (int64_t hidden : {20, 37, 256}) {
      for (int64_t rows : {41, 4017}) {
        Rng rng(24);
        FeedForward ffn(24, hidden, /*dropout=*/0.0f, &rng);
        RandomizeBias(&ffn, &rng);
        const Tensor x = Tensor::RandNormal({rows, 24}, &rng);
        const Tensor y_grad = ffn.Forward(ag::Variable(x, true)).data();
        ag::NoGradGuard guard;
        EXPECT_TRUE(BitEqual(ffn.Forward(ag::Variable(x)).data(), y_grad))
            << kernels::BackendName(backend) << " hidden " << hidden << " rows " << rows;
      }
    }
  }
}

TEST_F(RowParallelTest, LayerNormGradAndNoGradForwardsAreBitwiseEqual) {
  for (kernels::Backend backend : Backends()) {
    kernels::SetBackendForTesting(backend);
    for (Shape shape : {Shape{41, 64}, Shape{16, 251, 64}, Shape{5, 20}}) {
      Rng rng(25);
      LayerNorm ln(shape.back());
      RandomizeBias(&ln, &rng);
      for (auto& [name, v] : ln.NamedParameters()) {
        if (name == "gamma") v.mutable_data().CopyFrom(Tensor::RandNormal(v.shape(), &rng));
      }
      const Tensor x = Tensor::RandNormal(shape, &rng, 0.5f, 2.0f);
      const Tensor y_grad = ln.Forward(ag::Variable(x, true)).data();
      ag::NoGradGuard guard;
      EXPECT_TRUE(BitEqual(ln.Forward(ag::Variable(x)).data(), y_grad))
          << kernels::BackendName(backend) << " " << ShapeToString(shape);
    }
  }
}

// Runs fn(r0, r1) -> [r1 - r0, cols] over row ranges as a pool of `width`
// shards them, each range as its own call, and stitches the outputs.
template <typename Fn>
Tensor StitchShards(int64_t rows, int64_t cols, int width, Fn fn) {
  Tensor out({rows, cols});
  ThreadPool pool(width);
  pool.ParallelFor(0, rows, [&](int64_t r0, int64_t r1) {
    const Tensor y = fn(r0, r1);
    std::copy(y.data(), y.data() + y.numel(), out.data() + r0 * cols);
  });
  return out;
}

// Runs `forward` over row ranges of `x` [rows, d], stitched as above.
template <typename Forward>
Tensor ForwardInShards(const Tensor& x, int64_t out_cols, int width, Forward forward) {
  return StitchShards(x.size(0), out_cols, width, [&](int64_t r0, int64_t r1) {
    return forward(ops::Slice(x, 0, r0, r1 - r0));
  });
}

TEST_F(RowParallelTest, RowLoopsArePinnedAcrossPoolWidths) {
  // Width 1 is one call over every row: for Linear, the serial row-range
  // kernel plus a per-row bias add. Wider pools split the rows into
  // independent calls; every width must reproduce width 1 bit for bit.
  for (kernels::Backend backend : Backends()) {
    kernels::SetBackendForTesting(backend);
    const kernels::KernelTable& kt = kernels::Active();
    for (int64_t rows : {41, 4016}) {
      Rng rng(26);
      Linear lin(64, 37, &rng);
      RandomizeBias(&lin, &rng);
      FeedForward ffn(64, 37, 0.0f, &rng);
      RandomizeBias(&ffn, &rng);
      LayerNorm ln(64);
      RandomizeBias(&ln, &rng);
      const Tensor x = Tensor::RandNormal({rows, 64}, &rng);
      ag::NoGradGuard guard;

      Tensor serial({rows, 37});
      kt.gemm(x.data(), lin.weight().data().data(), serial.data(), rows, 37, 64, false,
              false, 0, rows);
      const float* bias = lin.bias().data().data();
      for (int64_t r = 0; r < rows; ++r) kt.add(serial.data() + r * 37, bias, 37);

      auto run_linear = [&](const Tensor& part) { return lin.Forward(ag::Variable(part)).data(); };
      auto run_ffn = [&](const Tensor& part) { return ffn.Forward(ag::Variable(part)).data(); };
      auto run_ln = [&](const Tensor& part) { return ln.Forward(ag::Variable(part)).data(); };
      const Tensor ffn_1 = ForwardInShards(x, 64, 1, run_ffn);
      const Tensor ln_1 = ForwardInShards(x, 64, 1, run_ln);
      EXPECT_TRUE(BitEqual(ForwardInShards(x, 37, 1, run_linear), serial));
      for (int width : {2, 4, 8}) {
        const std::string what = std::string(kernels::BackendName(backend)) + " rows " +
                                 std::to_string(rows) + " width " + std::to_string(width);
        EXPECT_TRUE(BitEqual(ForwardInShards(x, 37, width, run_linear), serial)) << what;
        EXPECT_TRUE(BitEqual(ForwardInShards(x, 64, width, run_ffn), ffn_1)) << what;
        EXPECT_TRUE(BitEqual(ForwardInShards(x, 64, width, run_ln), ln_1)) << what;
      }
    }
  }
}

TEST_F(RowParallelTest, AddLayerNormMatchesAddThenLayerNorm) {
  for (kernels::Backend backend : Backends()) {
    kernels::SetBackendForTesting(backend);
    for (Shape shape : {Shape{41, 64}, Shape{16, 251, 64}, Shape{5, 20}, Shape{21, 65}}) {
      Rng rng(28);
      LayerNorm ln(shape.back());
      RandomizeBias(&ln, &rng);
      const Tensor x = Tensor::RandNormal(shape, &rng, 0.5f, 2.0f);
      const Tensor r = Tensor::RandNormal(shape, &rng);
      const Tensor y_grad =
          ln.Forward(ag::Add(ag::Variable(x, true), ag::Variable(r, true))).data();
      const Tensor fused_grad = ln.Forward(ag::Variable(x, true), ag::Variable(r)).data();
      ag::NoGradGuard guard;
      const std::string what =
          std::string(kernels::BackendName(backend)) + " " + ShapeToString(shape);
      EXPECT_TRUE(BitEqual(fused_grad, y_grad)) << what;
      EXPECT_TRUE(BitEqual(ln.Forward(ag::Variable(x), ag::Variable(r)).data(), y_grad))
          << what;
      EXPECT_TRUE(BitEqual(ln.Forward(ag::Add(ag::Variable(x), ag::Variable(r))).data(), y_grad))
          << what;
    }
  }
}

// The encoder layer's grad-free stage helpers (head-major ProjectHeads, the
// fused residual + LayerNorm of AttentionResidual / FfnResidual) equal the
// grad-mode training paths (HeadCopy of the Linear output, ag::Add then
// ag::LayerNorm), and token shards at widths 2/4/8 reproduce one call.
TEST_F(RowParallelTest, EncoderStagesMatchTrainingPathsAndArePinnedAcrossPoolWidths) {
  model::EncoderConfig config;
  config.dim = 64;
  config.num_heads = 2;
  config.ffn_hidden = 256;
  config.dropout = 0.0f;
  config.attention.kind = attn::AttentionKind::kVanilla;
  config.attention.dropout = 0.0f;
  const int64_t d = config.dim, heads = config.num_heads, dh = d / heads;
  for (kernels::Backend backend : Backends()) {
    kernels::SetBackendForTesting(backend);
    for (int64_t rows : {41, 4016}) {
      Rng rng(29);
      model::TransformerEncoderLayer layer(config, &rng);
      layer.SetTraining(false);
      RandomizeBias(&layer, &rng);
      const Tensor x = Tensor::RandNormal({1, rows, d}, &rng);
      const Tensor attended = Tensor::RandNormal({1, rows, d}, &rng);
      const std::string what =
          std::string(kernels::BackendName(backend)) + " rows " + std::to_string(rows);

      const Tensor res_grad =
          layer.AttentionResidual(ag::Variable(x, true), ag::Variable(attended)).data();
      const Tensor ffn_grad = layer.FfnResidual(ag::Variable(x, true)).data();
      for (int which = 0; which < 3; ++which) {
        const Tensor want = layer.attention()->ProjectHeads(which, ag::Variable(x, true)).data();
        auto project = [&](int64_t r0, int64_t r1) {
          ag::NoGradGuard guard;
          // [H, r1 - r0, dh] -> token-major rows [r1 - r0, H * dh] for stitching.
          const Tensor part = layer.attention()
                                  ->ProjectHeads(which, ag::Variable(ops::Slice(x, 1, r0, r1 - r0)))
                                  .data();
          return ops::Permute(part, {1, 0, 2}).Reshape({r1 - r0, heads * dh});
        };
        const Tensor want_rows = ops::Permute(want, {1, 0, 2}).Reshape({rows, d});
        for (int width : {1, 2, 4, 8}) {
          EXPECT_TRUE(BitEqual(StitchShards(rows, d, width, project), want_rows))
              << what << " projection " << which << " width " << width;
        }
      }
      auto residual = [&](int64_t r0, int64_t r1) {
        ag::NoGradGuard guard;
        return layer
            .AttentionResidual(ag::Variable(ops::Slice(x, 1, r0, r1 - r0)),
                               ag::Variable(ops::Slice(attended, 1, r0, r1 - r0)))
            .data()
            .Reshape({r1 - r0, d});
      };
      auto ffn = [&](int64_t r0, int64_t r1) {
        ag::NoGradGuard guard;
        return layer.FfnResidual(ag::Variable(ops::Slice(x, 1, r0, r1 - r0)))
            .data()
            .Reshape({r1 - r0, d});
      };
      for (int width : {1, 2, 4, 8}) {
        EXPECT_TRUE(BitEqual(StitchShards(rows, d, width, residual), res_grad.Reshape({rows, d})))
            << what << " attention residual width " << width;
        EXPECT_TRUE(BitEqual(StitchShards(rows, d, width, ffn), ffn_grad.Reshape({rows, d})))
            << what << " ffn residual width " << width;
      }
    }
  }
}

TEST(LinearTest, GeluEpilogueNeedsGradModeOff) {
  Rng rng(27);
  Linear lin(4, 3, &rng);
  ag::Variable x(Tensor::RandNormal({2, 4}, &rng));
  EXPECT_DEATH(lin.Forward(x, Linear::Epilogue::kGelu), "pre-activation");
}

}  // namespace
}  // namespace nn
}  // namespace rita
