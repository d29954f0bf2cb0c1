// Kernel-layer tests: scalar-vs-SIMD equivalence for every dispatched
// primitive across adversarial shapes (n=1, odd lengths, non-multiple-of-
// vector-width dims, -inf / denormal-heavy rows), bitwise fused-vs-unfused
// identity on the scalar backend, per-backend determinism across ThreadPool
// widths, and ULP pinning of the transcendental fast paths against libm.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include <algorithm>

#include "cluster/kmeans.h"
#include "core/group_attention.h"
#include "linalg/kernels/kernels.h"
#include "tensor/quantized_tensor.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/execution_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rita {
namespace kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Distance in representable floats, sign-aware (0 means bit-identical).
int64_t UlpDiff(float a, float b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<int64_t>::max();
  int32_t ia, ib;
  std::memcpy(&ia, &a, 4);
  std::memcpy(&ib, &b, 4);
  // Map to a monotone integer line.
  if (ia < 0) ia = std::numeric_limits<int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<int32_t>::min() - ib;
  return std::abs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib));
}

void ExpectClose(const std::vector<float>& a, const std::vector<float>& b,
                 float rel_tol, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const float tol = rel_tol * std::max({1.0f, std::fabs(a[i]), std::fabs(b[i])});
    EXPECT_NEAR(a[i], b[i], tol) << what << " at " << i;
  }
}

// Adversarial row lengths: scalar tail only, exactly one vector, vector+tail,
// odd, prime, large non-multiple.
const int64_t kLens[] = {1, 2, 3, 7, 8, 9, 13, 16, 17, 31, 64, 100, 257};

std::vector<float> RandomVec(int64_t n, Rng* rng, float lo = -4.0f, float hi = 4.0f) {
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = lo + (hi - lo) * static_cast<float>(rng->Uniform());
  }
  return v;
}

class KernelBackendsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SimdAvailable()) GTEST_SKIP() << "no SIMD backend on this CPU/build";
  }
  void TearDown() override { SetBackendForTesting(Backend::kScalar); }
  const KernelTable& scalar() { return Table(Backend::kScalar); }
  const KernelTable& simd() { return Table(Backend::kSimd); }
};

TEST(KernelDispatchTest, BackendNamesAndTables) {
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kSimd), "simd");
  // The active table is one of the two backend tables.
  const KernelTable* active = &Active();
  EXPECT_TRUE(active == &Table(Backend::kScalar) || active == &Table(Backend::kSimd));
  if (!SimdAvailable()) {
    // kSimd falls back to scalar rather than crashing.
    EXPECT_EQ(&Table(Backend::kSimd), &Table(Backend::kScalar));
  }
}

TEST(KernelDispatchTest, SetBackendForTestingSwitchesActive) {
  SetBackendForTesting(Backend::kScalar);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_EQ(&Active(), &Table(Backend::kScalar));
  if (SimdAvailable()) {
    SetBackendForTesting(Backend::kSimd);
    EXPECT_EQ(ActiveBackend(), Backend::kSimd);
    EXPECT_EQ(&Active(), &Table(Backend::kSimd));
  }
  SetBackendForTesting(Backend::kScalar);
}

// --------------------------------------------------------------------------
// Scalar bit-identity pin: the scalar kernels ARE the historical loops.
// --------------------------------------------------------------------------

TEST(KernelScalarPinTest, SoftmaxMatchesHistoricalThreePass) {
  Rng rng(7);
  for (int64_t len : kLens) {
    const int64_t rows = 3;
    std::vector<float> in = RandomVec(rows * len, &rng);
    std::vector<float> got(rows * len), want(rows * len);
    Table(Backend::kScalar).softmax_rows(in.data(), got.data(), rows, len, 1.0f,
                                         nullptr);
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = in.data() + r * len;
      float* orow = want.data() + r * len;
      float mx = row[0];
      for (int64_t i = 1; i < len; ++i) mx = std::max(mx, row[i]);
      float denom = 0.0f;
      for (int64_t i = 0; i < len; ++i) {
        const float e = std::exp(row[i] - mx);
        orow[i] = e;
        denom += e;
      }
      const float inv = 1.0f / denom;
      for (int64_t i = 0; i < len; ++i) orow[i] *= inv;
    }
    for (int64_t i = 0; i < rows * len; ++i) {
      EXPECT_EQ(got[i], want[i]) << "len=" << len << " i=" << i;
    }
  }
}

TEST(KernelScalarPinTest, TranscendentalsAreExactlyLibm) {
  Rng rng(11);
  std::vector<float> x = RandomVec(257, &rng, -10.0f, 10.0f);
  std::vector<float> y(x.size());
  const KernelTable& t = Table(Backend::kScalar);
  t.exp_array(x.data(), y.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], std::exp(x[i]));
  t.tanh_array(x.data(), y.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], std::tanh(x[i]));
  t.sigmoid_array(x.data(), y.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y[i], 1.0f / (1.0f + std::exp(-x[i])));
  }
}

// --------------------------------------------------------------------------
// Scalar vs SIMD equivalence, adversarial shapes
// --------------------------------------------------------------------------

TEST_F(KernelBackendsTest, SoftmaxRowsEquivalence) {
  Rng rng(21);
  for (int64_t len : kLens) {
    for (float scale : {1.0f, 0.25f}) {
      const int64_t rows = 5;
      std::vector<float> in = RandomVec(rows * len, &rng, -30.0f, 30.0f);
      // Adversarial rows: -inf-masked entries (softmax over a partial row) and
      // denormal-scale inputs. Row 0 keeps index 0 finite, rest -inf.
      if (len > 1) {
        for (int64_t j = 1; j < len; j += 2) in[j] = -kInf;
        for (int64_t j = 0; j < len; ++j) {
          in[3 * len + j] = 1e-40f * static_cast<float>(j);  // denormals
        }
      }
      std::vector<float> a(rows * len), b(rows * len);
      std::vector<float> w = RandomVec(len, &rng, 1.0f, 5.0f);  // group counts
      const float* weight_cases[] = {nullptr, w.data()};
      for (const float* weights : weight_cases) {
        scalar().softmax_rows(in.data(), a.data(), rows, len, scale, weights);
        simd().softmax_rows(in.data(), b.data(), rows, len, scale, weights);
        ExpectClose(a, b, 2e-5f, "softmax_rows");
        // Each row sums to ~1 under unit weights.
      }
    }
  }
}

TEST_F(KernelBackendsTest, SoftmaxRowsInPlaceMatchesOutOfPlace) {
  Rng rng(22);
  for (const Backend backend : {Backend::kScalar, Backend::kSimd}) {
    const KernelTable& t = Table(backend);
    for (int64_t len : {1LL, 9LL, 64LL, 100LL}) {
      std::vector<float> in = RandomVec(4 * len, &rng);
      std::vector<float> out(4 * len);
      std::vector<float> inplace = in;
      t.softmax_rows(in.data(), out.data(), 4, len, 0.5f, nullptr);
      t.softmax_rows(inplace.data(), inplace.data(), 4, len, 0.5f, nullptr);
      for (int64_t i = 0; i < 4 * len; ++i) EXPECT_EQ(out[i], inplace[i]);
    }
  }
}

TEST_F(KernelBackendsTest, SoftmaxBackwardEquivalence) {
  Rng rng(23);
  for (int64_t len : kLens) {
    const int64_t rows = 4;
    std::vector<float> logits = RandomVec(rows * len, &rng);
    std::vector<float> y(rows * len), g = RandomVec(rows * len, &rng);
    scalar().softmax_rows(logits.data(), y.data(), rows, len, 1.0f, nullptr);
    std::vector<float> a(rows * len), b(rows * len);
    for (float scale : {1.0f, 0.125f}) {
      scalar().softmax_backward_rows(y.data(), g.data(), a.data(), rows, len, scale);
      simd().softmax_backward_rows(y.data(), g.data(), b.data(), rows, len, scale);
      ExpectClose(a, b, 2e-5f, "softmax_backward_rows");
    }
  }
}

TEST_F(KernelBackendsTest, LogSoftmaxBackwardEquivalence) {
  Rng rng(24);
  for (int64_t len : kLens) {
    const int64_t rows = 4;
    std::vector<float> log_y = RandomVec(rows * len, &rng, -12.0f, 0.0f);
    std::vector<float> g = RandomVec(rows * len, &rng);
    std::vector<float> a(rows * len), b(rows * len);
    scalar().logsoftmax_backward_rows(log_y.data(), g.data(), a.data(), rows, len);
    simd().logsoftmax_backward_rows(log_y.data(), g.data(), b.data(), rows, len);
    ExpectClose(a, b, 2e-5f, "logsoftmax_backward_rows");
  }
}

TEST_F(KernelBackendsTest, GemmEquivalenceAllTransposes) {
  Rng rng(25);
  // Shapes chosen to hit every micro-kernel branch: full 4x16 tiles, 8-wide
  // column tails, scalar column tails, single rows/cols, k tails.
  const int64_t shapes[][3] = {{1, 1, 1},   {1, 16, 8},  {3, 5, 7},  {4, 16, 32},
                               {5, 17, 9},  {7, 33, 13}, {8, 24, 1}, {13, 40, 19},
                               {16, 64, 64}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        std::vector<float> a =
            RandomVec(ta ? k * m : m * k, &rng, -1.5f, 1.5f);
        std::vector<float> b =
            RandomVec(tb ? n * k : k * n, &rng, -1.5f, 1.5f);
        std::vector<float> c1(m * n), c2(m * n);
        scalar().gemm(a.data(), b.data(), c1.data(), m, n, k, ta, tb, 0, m);
        simd().gemm(a.data(), b.data(), c2.data(), m, n, k, ta, tb, 0, m);
        ExpectClose(c1, c2, 1e-4f, "gemm");
        // Row-range sharding must agree with the full call.
        if (m > 2) {
          std::vector<float> c3(m * n);
          simd().gemm(a.data(), b.data(), c3.data(), m, n, k, ta, tb, 0, 2);
          simd().gemm(a.data(), b.data(), c3.data(), m, n, k, ta, tb, 2, m);
          for (int64_t i = 0; i < m * n; ++i) EXPECT_EQ(c2[i], c3[i]);
        }
      }
    }
  }
}

TEST_F(KernelBackendsTest, ElementwiseVectorKernelsEquivalence) {
  Rng rng(26);
  for (int64_t n : kLens) {
    std::vector<float> x = RandomVec(n, &rng);
    std::vector<float> y1 = RandomVec(n, &rng), y2 = y1;
    scalar().axpy(y1.data(), x.data(), n, 1.75f);
    simd().axpy(y2.data(), x.data(), n, 1.75f);
    ExpectClose(y1, y2, 1e-6f, "axpy");

    y2 = y1;
    scalar().scale(y1.data(), n, 0.37f);
    simd().scale(y2.data(), n, 0.37f);
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]);  // mul is exact

    y2 = y1;
    scalar().add(y1.data(), x.data(), n);
    simd().add(y2.data(), x.data(), n);
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]);  // add is exact

    std::vector<double> d1(n, 0.5), d2(n, 0.5);
    scalar().accumulate_f64(d1.data(), x.data(), n);
    simd().accumulate_f64(d2.data(), x.data(), n);
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(d1[i], d2[i]);  // f64 add exact
  }
}

// exp(NaN) is NaN whether the NaN lands in a vector lane or in the scalar
// tail (and the tail never converts NaN to int, which UBSan flags).
TEST_F(KernelBackendsTest, SimdExpTailMatchesVectorLaneOnNaN) {
  std::vector<float> x(9, std::nanf("")), y(9);
  simd().exp_array(x.data(), y.data(), 9);
  EXPECT_TRUE(std::isnan(y[0])) << "lane " << y[0];
  EXPECT_TRUE(std::isnan(y[8])) << "tail " << y[8];
}

// Both backends carry NaN through every exp-based kernel: a NaN input gives
// a NaN output at its own position (and only there) in a vector lane (index
// 2) and in the loop tail (index 9), and a softmax row holding a NaN score is
// NaN throughout.
TEST_F(KernelBackendsTest, BackendsAgreeOnNaNPropagation) {
  constexpr int64_t kN = 11;  // one 8-wide vector + a 3-element tail
  Rng rng(29);
  std::vector<float> x = RandomVec(kN, &rng);
  x[2] = std::nanf("");
  x[9] = std::nanf("");
  using ArrayFn = void (*)(const float*, float*, int64_t);
  const std::pair<const char*, ArrayFn KernelTable::*> kernels[] = {
      {"exp_array", &KernelTable::exp_array},
      {"tanh_array", &KernelTable::tanh_array},
      {"sigmoid_array", &KernelTable::sigmoid_array},
      {"gelu_array", &KernelTable::gelu_array}};
  for (const auto& [name, kernel] : kernels) {
    std::vector<float> y1(kN), y2(kN);
    (scalar().*kernel)(x.data(), y1.data(), kN);
    (simd().*kernel)(x.data(), y2.data(), kN);
    for (int64_t i = 0; i < kN; ++i) {
      const bool want_nan = i == 2 || i == 9;
      EXPECT_EQ(std::isnan(y1[i]), want_nan) << name << " scalar at " << i;
      EXPECT_EQ(std::isnan(y2[i]), want_nan) << name << " simd at " << i;
    }
  }

  for (int64_t nan_at : {2, 9}) {
    std::vector<float> row = RandomVec(kN, &rng);
    row[nan_at] = std::nanf("");
    std::vector<float> y1(kN), y2(kN);
    scalar().softmax_rows(row.data(), y1.data(), 1, kN, 0.5f, nullptr);
    simd().softmax_rows(row.data(), y2.data(), 1, kN, 0.5f, nullptr);
    for (int64_t j = 0; j < kN; ++j) {
      EXPECT_TRUE(std::isnan(y1[j])) << "softmax scalar, NaN at " << nan_at;
      EXPECT_TRUE(std::isnan(y2[j])) << "softmax simd, NaN at " << nan_at;
    }
  }
}

TEST_F(KernelBackendsTest, DistanceKernelsEquivalence) {
  Rng rng(27);
  for (int64_t d : {1LL, 3LL, 8LL, 15LL, 16LL, 33LL}) {
    const int64_t rows = 9;
    std::vector<float> pts = RandomVec(rows * d, &rng);
    std::vector<float> n1(rows), n2(rows);
    scalar().row_sqnorms(pts.data(), n1.data(), rows, d);
    simd().row_sqnorms(pts.data(), n2.data(), rows, d);
    ExpectClose(n1, n2, 1e-5f, "row_sqnorms");

    std::vector<float> center = RandomVec(d, &rng);
    std::vector<float> d1(rows), d2(rows);
    scalar().sqdist_to_point(pts.data(), center.data(), d1.data(), rows, d);
    simd().sqdist_to_point(pts.data(), center.data(), d2.data(), rows, d);
    ExpectClose(d1, d2, 1e-5f, "sqdist_to_point");

    // kmeans_assign on both backends against the explicit pairwise
    // differences: each reported distance is the naive row minimum.
    const int64_t m = 5;
    std::vector<float> cents = RandomVec(m * d, &rng);
    Tensor naive = cluster::PairwiseSqDistNaive(Tensor::FromVector({rows, d}, pts),
                                                Tensor::FromVector({m, d}, cents));
    for (const KernelTable* t : {&scalar(), &simd()}) {
      std::vector<int64_t> assignment(rows);
      std::vector<float> best(rows);
      t->kmeans_assign(pts.data(), cents.data(), rows, m, d, assignment.data(),
                       best.data());
      for (int64_t i = 0; i < rows; ++i) {
        float row_min = naive.At({i, 0});
        for (int64_t j = 1; j < m; ++j) row_min = std::min(row_min, naive.At({i, j}));
        EXPECT_NEAR(best[i], row_min, 1e-4f * std::max(1.0f, row_min))
            << "kmeans_assign d=" << d << " i=" << i;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Fused k-means assignment and the packed NT GEMM
// --------------------------------------------------------------------------

const int64_t kAssignCentroids[] = {1, 7, 8, 15, 16, 17, 33, 64};
const int64_t kAssignPoints[] = {1, 3, 4, 5, 41, 626};
const int64_t kAssignDims[] = {1, 7, 32, 33};

// The assignment path as it ran before the fused kernel: scalar NT GEMM into
// an n x m matrix, row_sqnorms, a2 + b2 - 2 dot clamped at 0, then a
// strict-< argmin per row.
void ReferenceAssign(const float* x, const float* c, int64_t n, int64_t m, int64_t d,
                     std::vector<int64_t>* assignment, std::vector<float>* best) {
  const KernelTable& t = Table(Backend::kScalar);
  std::vector<float> dist(n * m), b2(m);
  t.row_sqnorms(c, b2.data(), m, d);
  t.gemm(x, c, dist.data(), n, m, d, /*trans_a=*/false, /*trans_b=*/true, 0, n);
  assignment->assign(n, 0);
  best->assign(n, 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    float a2;
    t.row_sqnorms(x + i * d, &a2, 1, d);
    float* row = dist.data() + i * m;
    for (int64_t j = 0; j < m; ++j) row[j] = std::max(0.0f, a2 + b2[j] - 2.0f * row[j]);
    int64_t b = 0;
    for (int64_t j = 1; j < m; ++j) {
      if (row[j] < row[b]) b = j;
    }
    (*assignment)[i] = b;
    (*best)[i] = row[b];
  }
}

// Centroids: random rows whose second half repeats the first, so every point
// meets exact ties (bitwise-equal distances) that the lowest index must win.
std::vector<float> CentroidsWithTies(int64_t m, int64_t d, Rng* rng) {
  std::vector<float> c = RandomVec(m * d, rng);
  const int64_t half = m / 2;
  for (int64_t j = m - half; j < m; ++j) {
    std::copy(c.begin() + (j - (m - half)) * d, c.begin() + (j - (m - half) + 1) * d,
              c.begin() + j * d);
  }
  return c;
}

TEST(KernelScalarPinTest, KMeansAssignMatchesHistoricalPath) {
  Rng rng(61);
  for (int64_t m : kAssignCentroids) {
    for (int64_t n : kAssignPoints) {
      for (int64_t d : kAssignDims) {
        const std::vector<float> x = RandomVec(n * d, &rng);
        for (bool ties : {false, true}) {
          const std::vector<float> c =
              ties ? CentroidsWithTies(m, d, &rng) : RandomVec(m * d, &rng);
          std::vector<int64_t> want_a, got_a(n);
          std::vector<float> want_d, got_d(n);
          ReferenceAssign(x.data(), c.data(), n, m, d, &want_a, &want_d);
          Table(Backend::kScalar)
              .kmeans_assign(x.data(), c.data(), n, m, d, got_a.data(), got_d.data());
          ASSERT_EQ(want_a, got_a) << "m=" << m << " n=" << n << " d=" << d;
          ASSERT_EQ(0, std::memcmp(want_d.data(), got_d.data(), sizeof(float) * n))
              << "m=" << m << " n=" << n << " d=" << d;
          if (ties) {
            for (int64_t a : got_a) ASSERT_LT(a, m - m / 2);
          }
        }
      }
    }
  }
}

// RunKMeans on the scalar backend reproduces Lloyd's iterations over the
// historical assignment path bit for bit: random distinct init, then means
// accumulated in point order (one reduction block, n <= 512), then the
// empty-cluster compaction.
TEST(KernelScalarPinTest, RunKMeansMatchesHistoricalLloyd) {
  const Backend previous = ActiveBackend();
  SetBackendForTesting(Backend::kScalar);
  for (const auto& [n, d, k] : {std::tuple<int64_t, int64_t, int64_t>{41, 32, 16},
                                {300, 32, 64}, {97, 7, 33}}) {
    Rng data_rng(static_cast<uint64_t>(n * 131 + d));
    const Tensor points = Tensor::RandNormal({n, d}, &data_rng);
    cluster::KMeansOptions km;
    km.num_clusters = k;
    km.max_iters = 2;
    Rng rng(5), ref_rng(5);
    const cluster::KMeansResult got = cluster::RunKMeans(points, km, &rng);

    Tensor cents = ops::GatherRows(points, ref_rng.SampleWithoutReplacement(n, k));
    std::vector<int64_t> assignment;
    std::vector<float> best;
    ReferenceAssign(points.data(), cents.data(), n, k, d, &assignment, &best);
    for (int iter = 0; iter < km.max_iters; ++iter) {
      std::vector<float> sums(k * d, 0.0f);
      std::vector<int64_t> counts(k, 0);
      for (int64_t i = 0; i < n; ++i) {
        ++counts[assignment[i]];
        for (int64_t t = 0; t < d; ++t) sums[assignment[i] * d + t] += points.data()[i * d + t];
      }
      for (int64_t c = 0; c < k; ++c) {
        if (counts[c] == 0) continue;
        const float inv = 1.0f / static_cast<float>(counts[c]);
        for (int64_t t = 0; t < d; ++t) cents.data()[c * d + t] = sums[c * d + t] * inv;
      }
      ReferenceAssign(points.data(), cents.data(), n, k, d, &assignment, &best);
    }
    double inertia = 0.0;
    for (float b : best) inertia += b;
    std::vector<int64_t> counts(k, 0), remap(k, -1), kept;
    for (int64_t a : assignment) ++counts[a];
    for (int64_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        remap[c] = static_cast<int64_t>(kept.size());
        kept.push_back(c);
      }
    }
    const Tensor want_centroids = ops::GatherRows(cents, kept);
    for (int64_t& a : assignment) a = remap[a];

    EXPECT_EQ(got.assignment, assignment) << "n=" << n;
    EXPECT_EQ(got.inertia, inertia) << "n=" << n;
    ASSERT_EQ(got.centroids.numel(), want_centroids.numel()) << "n=" << n;
    EXPECT_EQ(0, std::memcmp(got.centroids.data(), want_centroids.data(),
                             sizeof(float) * want_centroids.numel()))
        << "n=" << n;
  }
  SetBackendForTesting(previous);
}

TEST_F(KernelBackendsTest, KMeansAssignSimdMatchesScalar) {
  Rng rng(62);
  for (int64_t m : kAssignCentroids) {
    for (int64_t n : kAssignPoints) {
      for (int64_t d : kAssignDims) {
        // Separated blobs: centroid j sits at 10j (+ a per-coordinate offset),
        // each point within 0.5 per coordinate of its generating centroid, so
        // both backends must pick exactly the generator.
        std::vector<float> c(m * d);
        for (int64_t j = 0; j < m; ++j) {
          for (int64_t t = 0; t < d; ++t) c[j * d + t] = 10.0f * j + (t % 3);
        }
        std::vector<float> x(n * d);
        std::vector<int64_t> generator(n);
        for (int64_t i = 0; i < n; ++i) {
          generator[i] = rng.UniformInt(m);
          for (int64_t t = 0; t < d; ++t) {
            x[i * d + t] = c[generator[i] * d + t] +
                           static_cast<float>(rng.Uniform()) - 0.5f;
          }
        }
        std::vector<int64_t> a1(n), a2(n);
        std::vector<float> d1(n), d2(n);
        scalar().kmeans_assign(x.data(), c.data(), n, m, d, a1.data(), d1.data());
        simd().kmeans_assign(x.data(), c.data(), n, m, d, a2.data(), d2.data());
        ASSERT_EQ(a1, generator) << "scalar m=" << m << " n=" << n << " d=" << d;
        ASSERT_EQ(a2, generator) << "simd m=" << m << " n=" << n << " d=" << d;

        // Random data with exact ties: distances agree within tolerance, the
        // index simd picks is (within tolerance) a scalar minimum, and an
        // exact tie always goes to the first copy.
        const std::vector<float> xr = RandomVec(n * d, &rng);
        const std::vector<float> cr = CentroidsWithTies(m, d, &rng);
        scalar().kmeans_assign(xr.data(), cr.data(), n, m, d, a1.data(), d1.data());
        simd().kmeans_assign(xr.data(), cr.data(), n, m, d, a2.data(), d2.data());
        std::vector<int64_t> ref_a;
        std::vector<float> ref_d;
        const float tol = 1e-5f * 64.0f * d;  // ~eps * (|x|^2 + |c|^2)
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_GE(a2[i], 0);
          ASSERT_LT(a2[i], m - m / 2) << "tie not won by the first copy";
          EXPECT_NEAR(d1[i], d2[i], tol) << "m=" << m << " n=" << n << " d=" << d;
          ReferenceAssign(xr.data() + i * d, cr.data() + a2[i] * d, 1, 1, d, &ref_a,
                          &ref_d);
          EXPECT_NEAR(ref_d[0], d1[i], tol) << "m=" << m << " n=" << n << " d=" << d;
        }
      }
    }
  }
}

// A NaN key clamps to distance 0 against every centroid on both backends —
// max(v, 0), not max(0, v), in the vector lanes — so it goes to centroid 0
// whether it lands in a 4-row tile or the row tail, and whether the centroid
// count fills whole vectors or leaves a column tail. A NaN centroid likewise
// reads as distance 0 from every point.
TEST_F(KernelBackendsTest, KMeansAssignBackendsAgreeOnNaN) {
  Rng rng(63);
  const float nan = std::nanf("");
  for (int64_t m : {8LL, 13LL, 17LL, 64LL}) {
    for (int64_t n : {int64_t{8}, int64_t{7}}) {
      for (int64_t nan_row : {int64_t{2}, n - 1}) {
        for (int64_t d : {7LL, 32LL}) {
          std::vector<float> x = RandomVec(n * d, &rng);
          x[nan_row * d + d / 2] = nan;
          std::vector<float> c = RandomVec(m * d, &rng);
          std::vector<int64_t> a1(n), a2(n);
          std::vector<float> d1(n), d2(n);
          scalar().kmeans_assign(x.data(), c.data(), n, m, d, a1.data(), d1.data());
          simd().kmeans_assign(x.data(), c.data(), n, m, d, a2.data(), d2.data());
          EXPECT_EQ(a1, a2) << "m=" << m << " n=" << n << " row=" << nan_row;
          EXPECT_EQ(a1[nan_row], 0);
          EXPECT_EQ(d1[nan_row], 0.0f);
          EXPECT_EQ(d2[nan_row], 0.0f);
          for (int64_t i = 0; i < n; ++i) {
            ASSERT_GE(a2[i], 0);
            ASSERT_LT(a2[i], m);
          }

          // NaN centroid in a vector lane (column 3) or the column tail.
          const int64_t nan_col = m > 8 ? m - 1 : 3;
          std::vector<float> cn = RandomVec(m * d, &rng);
          cn[nan_col * d] = nan;
          const std::vector<float> xf = RandomVec(n * d, &rng);
          scalar().kmeans_assign(xf.data(), cn.data(), n, m, d, a1.data(), d1.data());
          simd().kmeans_assign(xf.data(), cn.data(), n, m, d, a2.data(), d2.data());
          EXPECT_EQ(a1, a2) << "m=" << m << " n=" << n << " col=" << nan_col;
          for (int64_t i = 0; i < n; ++i) {
            ASSERT_LE(a2[i], nan_col);
            EXPECT_EQ(d1[i], 0.0f);
            EXPECT_EQ(d2[i], 0.0f);
          }
        }
      }
    }
  }
}

// The SIMD NT GEMM packs 16-column panels of B^T: odd column and k tails,
// row tails of 1-3, and any row split must match the full call bitwise.
TEST_F(KernelBackendsTest, PackedGemmNTMatchesScalar) {
  Rng rng(64);
  for (int64_t m : {1LL, 3LL, 4LL, 5LL, 7LL, 64LL}) {
    for (int64_t n : {1LL, 15LL, 16LL, 17LL, 33LL, 64LL}) {
      for (int64_t k : {1LL, 7LL, 8LL, 9LL, 31LL, 33LL}) {
        const std::vector<float> a = RandomVec(m * k, &rng, -1.5f, 1.5f);
        const std::vector<float> b = RandomVec(n * k, &rng, -1.5f, 1.5f);
        std::vector<float> c1(m * n), c2(m * n), c3(m * n);
        scalar().gemm(a.data(), b.data(), c1.data(), m, n, k, false, true, 0, m);
        simd().gemm(a.data(), b.data(), c2.data(), m, n, k, false, true, 0, m);
        ExpectClose(c1, c2, 1e-4f, "packed gemm_nt");
        for (int64_t r = 0; r < m; ++r) {
          simd().gemm(a.data(), b.data(), c3.data(), m, n, k, false, true, r, r + 1);
        }
        ASSERT_EQ(0, std::memcmp(c2.data(), c3.data(), sizeof(float) * m * n))
            << "row-at-a-time m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Fused attention chain
// --------------------------------------------------------------------------

// On ONE backend, the fused tile driver must reproduce the unfused
// full-matrix pipeline exactly: row tiling only regroups calls to per-row-
// independent kernels. On the scalar backend this is the bit-identity
// guarantee that lets inference take the fused path.
TEST_F(KernelBackendsTest, FusedChainBitwiseMatchesUnfusedPerBackend) {
  Rng rng(31);
  ExecutionContext context;
  for (const Backend backend : {Backend::kScalar, Backend::kSimd}) {
    SetBackendForTesting(backend);
    const KernelTable& t = Table(backend);
    // n spans below/at/above the 64-row tile; ng/d off vector widths.
    for (int64_t n : {1LL, 63LL, 64LL, 65LL, 200LL}) {
      const int64_t ng = 11, d = 19;
      std::vector<float> q = RandomVec(n * d, &rng);
      std::vector<float> keys = RandomVec(ng * d, &rng);
      std::vector<float> values = RandomVec(ng * d, &rng);
      std::vector<float> w = RandomVec(ng, &rng, 1.0f, 6.0f);
      const float scale = 0.31f;

      std::vector<float> scores(n * ng), want(n * d), got(n * d);
      t.gemm(q.data(), keys.data(), scores.data(), n, ng, d, false, true, 0, n);
      t.softmax_rows(scores.data(), scores.data(), n, ng, scale, w.data());
      t.gemm(scores.data(), values.data(), want.data(), n, d, ng, false, false, 0, n);

      ScratchArena::Lease scratch = context.arena()->Acquire();
      FusedScoreSoftmaxWeightedSum(q.data(), keys.data(), values.data(), got.data(),
                                   n, ng, d, scale, w.data(), &scratch);
      for (int64_t i = 0; i < n * d; ++i) {
        ASSERT_EQ(want[i], got[i])
            << BackendName(backend) << " n=" << n << " i=" << i;
      }
    }
  }
}

// Group attention forward: inference output must be identical whether the
// backward graph is recorded (unfused training path) or not (fused inference
// path), per backend; and bit-identical across ThreadPool widths.
TEST_F(KernelBackendsTest, GroupAttentionFusedInferenceMatchesTrainingForward) {
  for (const Backend backend : {Backend::kScalar, Backend::kSimd}) {
    SetBackendForTesting(backend);
    const int64_t bh = 3, n = 70, d = 16;
    Rng data_rng(5);
    Tensor q = Tensor::RandNormal({bh, n, d}, &data_rng);
    Tensor k = Tensor::RandNormal({bh, n, d}, &data_rng);
    Tensor v = Tensor::RandNormal({bh, n, d}, &data_rng);
    core::GroupAttentionOptions opts;
    opts.num_groups = 12;
    opts.kmeans_iters = 2;

    auto run = [&](bool with_grad) {
      Rng mech_rng(99);
      core::GroupAttentionMechanism mech(d, opts, &mech_rng);
      ag::Variable vq(q, with_grad), vk(k, with_grad), vv(v, with_grad);
      if (!with_grad) {
        ag::NoGradGuard guard;
        return mech.Forward(vq, vk, vv).data();
      }
      return mech.Forward(vq, vk, vv).data();
    };
    const Tensor trained = run(true);
    const Tensor inferred = run(false);
    for (int64_t i = 0; i < trained.numel(); ++i) {
      ASSERT_EQ(trained.data()[i], inferred.data()[i])
          << BackendName(backend) << " i=" << i;
    }
  }
}

TEST_F(KernelBackendsTest, GroupAttentionDeterministicAcrossPoolWidths) {
  for (const Backend backend : {Backend::kScalar, Backend::kSimd}) {
    SetBackendForTesting(backend);
    const int64_t bh = 4, n = 96, d = 16;
    Rng data_rng(17);
    Tensor q = Tensor::RandNormal({bh, n, d}, &data_rng);
    Tensor k = Tensor::RandNormal({bh, n, d}, &data_rng);
    Tensor v = Tensor::RandNormal({bh, n, d}, &data_rng);
    core::GroupAttentionOptions opts;
    opts.num_groups = 10;
    opts.kmeans_iters = 2;

    Tensor reference;
    for (int width : {1, 2, 4}) {
      ThreadPool pool(width);
      ExecutionContext context(&pool);
      Rng mech_rng(42);
      core::GroupAttentionMechanism mech(d, opts, &mech_rng);
      mech.set_execution_context(&context);
      ag::NoGradGuard guard;
      Tensor out = mech.Forward(ag::Variable(q), ag::Variable(k), ag::Variable(v)).data();
      if (width == 1) {
        reference = out;
        continue;
      }
      for (int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_EQ(reference.data()[i], out.data()[i])
            << BackendName(backend) << " width=" << width << " i=" << i;
      }
    }
  }
}

// --------------------------------------------------------------------------
// ULP pinning of the SIMD transcendental fast paths vs libm
// --------------------------------------------------------------------------

TEST_F(KernelBackendsTest, SimdTranscendentalUlpDrift) {
  // Dense sweep over the numerically interesting range plus edge cases.
  std::vector<float> x;
  for (float v = -20.0f; v <= 20.0f; v += 0.009f) x.push_back(v);
  x.insert(x.end(), {0.0f, -0.0f, 1e-30f, -1e-30f, 1e-38f, -1e-38f, 80.0f, -80.0f,
                     100.0f, -100.0f, -kInf});
  std::vector<float> y(x.size());

  simd().exp_array(x.data(), y.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const float want = std::exp(x[i]);
    if (want > 0.0f && want < std::numeric_limits<float>::max() &&
        std::fpclassify(want) == FP_NORMAL) {
      EXPECT_LE(UlpDiff(y[i], want), 8) << "exp(" << x[i] << ")";
    } else if (std::isinf(want)) {
      EXPECT_EQ(y[i], want) << "exp(" << x[i] << ") overflow";
    } else {
      EXPECT_NEAR(y[i], want, 1e-37f) << "exp(" << x[i] << ")";
    }
  }
  EXPECT_EQ(y.back(), 0.0f) << "exp(-inf) must be exactly 0";

  simd().tanh_array(x.data(), y.data(), x.size());
  for (size_t i = 0; i + 1 < x.size(); ++i) {
    EXPECT_LE(UlpDiff(y[i], std::tanh(x[i])), 16) << "tanh(" << x[i] << ")";
  }

  simd().sigmoid_array(x.data(), y.data(), x.size());
  for (size_t i = 0; i + 1 < x.size(); ++i) {
    const float want = 1.0f / (1.0f + std::exp(-x[i]));
    if (want >= 1e-30f) {
      EXPECT_LE(UlpDiff(y[i], want), 16) << "sigmoid(" << x[i] << ")";
    } else {
      EXPECT_NEAR(y[i], want, 1e-37f) << "sigmoid(" << x[i] << ")";
    }
  }

  // Gelu's negative tail cancels catastrophically in ANY single-precision
  // formula, so pin ULP where the magnitude is sane and absolute error below.
  simd().gelu_array(x.data(), y.data(), x.size());
  constexpr float kC = 0.7978845608f;
  for (size_t i = 0; i + 1 < x.size(); ++i) {
    const float v = x[i];
    const float want = 0.5f * v * (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
    if (std::fabs(want) > 1e-4f) {
      EXPECT_LE(UlpDiff(y[i], want), 64) << "gelu(" << v << ")";
    } else {
      EXPECT_NEAR(y[i], want, 1e-6f) << "gelu(" << v << ")";
    }
  }
}

// The SIMD maps run whole vectors through the 8-lane code and the remainder
// through its scalar replica. Both must give the same bits for every value,
// so a result never depends on where a value sits in the array (a GELU over
// a whole tensor equals one applied row by row or shard by shard).
TEST_F(KernelBackendsTest, SimdTranscendentalTailMatchesLane) {
  Rng rng(2024);
  std::vector<float> x;
  x.reserve(1 << 20);
  // N(0, 3^2) covers every branch of tanh/exp; 1M values.
  for (int i = 0; i < (1 << 20) - 64; ++i) {
    x.push_back(static_cast<float>(rng.Normal(0.0, 3.0)));
  }
  const float kMax = std::numeric_limits<float>::max();
  const float kMin = std::numeric_limits<float>::min();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  for (float v : {0.0f, 1e-30f, 1e-38f, kMin, kDenorm, 0.625f, 0.62499994f, 1.0f,
                  9.0f, 20.0f, 80.0f, 87.3365478515625f, 88.3762626647950f, 89.0f,
                  100.0f, 1e10f, kMax, kInf}) {
    x.push_back(v);
    x.push_back(-v);
  }
  while (x.size() % 8 != 0) x.push_back(0.5f);
  const int64_t n = static_cast<int64_t>(x.size());
  struct Map {
    const char* name;
    void (*fn)(const float*, float*, int64_t);
  };
  for (const Map& map : {Map{"exp", simd().exp_array}, Map{"tanh", simd().tanh_array},
                         Map{"sigmoid", simd().sigmoid_array},
                         Map{"gelu", simd().gelu_array}}) {
    std::vector<float> lane(n);
    map.fn(x.data(), lane.data(), n);  // n % 8 == 0: every value in a lane
    int64_t mismatches = 0;
    for (int64_t i = 0; i < n; ++i) {
      float tail = 0.0f;
      map.fn(&x[i], &tail, 1);  // a 1-element call is all tail
      uint32_t a, b;
      std::memcpy(&a, &lane[i], 4);
      std::memcpy(&b, &tail, 4);
      if (a != b && mismatches++ < 5) {
        ADD_FAILURE() << map.name << "(" << x[i] << "): lane " << lane[i] << " tail "
                      << tail;
      }
    }
    EXPECT_EQ(mismatches, 0) << map.name;
  }
}

// Each backend is a pure function: identical inputs give identical outputs
// across repeated calls (no internal state, threading, or RNG).
TEST_F(KernelBackendsTest, KernelsAreDeterministic) {
  Rng rng(41);
  const int64_t rows = 7, len = 100;
  std::vector<float> in = RandomVec(rows * len, &rng);
  for (const Backend backend : {Backend::kScalar, Backend::kSimd}) {
    const KernelTable& t = Table(backend);
    std::vector<float> a(rows * len), b(rows * len);
    t.softmax_rows(in.data(), a.data(), rows, len, 0.7f, nullptr);
    t.softmax_rows(in.data(), b.data(), rows, len, 0.7f, nullptr);
    for (int64_t i = 0; i < rows * len; ++i) EXPECT_EQ(a[i], b[i]);
    t.exp_array(in.data(), a.data(), rows * len);
    t.exp_array(in.data(), b.data(), rows * len);
    for (int64_t i = 0; i < rows * len; ++i) EXPECT_EQ(a[i], b[i]);
  }
}

// --------------------------------------------------------------------------
// bf16 weight storage + GEMM kernel
// --------------------------------------------------------------------------

float FloatFromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, 4);
  return f;
}

TEST(QuantizedTensorTest, Bf16RoundTripIsRoundToNearestEven) {
  EXPECT_EQ(Bf16FromFloat(1.0f), 0x3F80u);
  EXPECT_EQ(Bf16ToFloat(0x3F80u), 1.0f);
  EXPECT_EQ(Bf16FromFloat(0.0f), 0x0000u);
  EXPECT_EQ(Bf16FromFloat(-2.0f), 0xC000u);
  // Exactly-halfway mantissas round to the even bf16 neighbour: down when
  // the kept LSB is already 0, up when it is 1.
  EXPECT_EQ(Bf16FromFloat(FloatFromBits(0x3F808000u)), 0x3F80u);
  EXPECT_EQ(Bf16FromFloat(FloatFromBits(0x3F818000u)), 0x3F82u);
  // Just above halfway always rounds up.
  EXPECT_EQ(Bf16FromFloat(FloatFromBits(0x3F808001u)), 0x3F81u);
  // Widening then re-rounding is the identity on every finite bf16 payload.
  Rng rng(52);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint16_t h =
        static_cast<uint16_t>(rng.Uniform() * 65535.0) & 0x7F7Fu;  // finite
    EXPECT_EQ(Bf16FromFloat(Bf16ToFloat(h)), h);
  }
  // Relative error of one round trip is bounded by the 8-bit mantissa.
  for (int trial = 0; trial < 1000; ++trial) {
    const float x = -8.0f + 16.0f * static_cast<float>(rng.Uniform());
    const float y = Bf16ToFloat(Bf16FromFloat(x));
    EXPECT_NEAR(y, x, std::fabs(x) / 256.0f + 1e-38f);
  }
}

TEST_F(KernelBackendsTest, GemmBf16MatchesDequantizedReference) {
  Rng rng(55);
  const int64_t shapes[][3] = {{1, 1, 1},  {2, 16, 8},  {3, 17, 7},
                               {5, 33, 16}, {8, 40, 31}, {4, 15, 9}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    Tensor w({k, n});
    for (int64_t i = 0; i < k * n; ++i) {
      w.data()[i] = -1.5f + 3.0f * static_cast<float>(rng.Uniform());
    }
    QuantizedTensor q = QuantizedTensor::QuantizeBf16(w);
    Tensor wide = q.Dequantize();
    std::vector<float> a = RandomVec(m * k, &rng, -1.5f, 1.5f);
    std::vector<float> ref(m * n), c1(m * n), c2(m * n);
    // The scalar bf16 kernel mirrors the fp32 NN loop with exact widening,
    // so it must match an fp32 GEMM over the widened weights bit for bit.
    scalar().gemm(a.data(), wide.data(), ref.data(), m, n, k, false, false, 0, m);
    scalar().gemm_bf16(a.data(), q.bf16_data(), c1.data(), m, n, k, 0, m);
    for (int64_t i = 0; i < m * n; ++i) EXPECT_EQ(ref[i], c1[i]);
    // The AVX2 kernel uses FMA tiling: tolerance-gated like the fp32 GEMM.
    simd().gemm_bf16(a.data(), q.bf16_data(), c2.data(), m, n, k, 0, m);
    ExpectClose(c1, c2, 1e-4f, "gemm_bf16");
  }
}

// --------------------------------------------------------------------------
// Linear and LayerNorm row kernels
// --------------------------------------------------------------------------

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> out = {Backend::kScalar};
  if (SimdAvailable()) out.push_back(Backend::kSimd);
  return out;
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, sizeof(float) * n) == 0;
}

// linear_rows is the backend's own gemm -> add -> gelu_array composition,
// bit for bit, at row counts around the 6-row and 4-row SIMD tiles, every
// column-tail kind (16-wide, 8-wide, scalar) and both epilogue switches, and
// for a row range that starts inside a tile. The SIMD NN gemm itself is
// pinned to one kk-ascending fmaf chain per element, so no tile shape can
// change a bit.
TEST(KernelLinearRowsTest, MatchesGemmAddGeluPerBackend) {
  Rng rng(71);
  for (Backend backend : AvailableBackends()) {
    const KernelTable& t = Table(backend);
    for (int64_t k : {1, 64, 256}) {
      for (int64_t n : {8, 16, 24, 64, 192, 256, 17}) {
        const std::vector<float> w = RandomVec(k * n, &rng, -0.3f, 0.3f);
        const std::vector<float> bias = RandomVec(n, &rng, -1.0f, 1.0f);
        for (int64_t m : {1, 5, 6, 7, 12, 13, 42, 627}) {
          const std::vector<float> a = RandomVec(m * k, &rng, -1.5f, 1.5f);
          std::vector<float> plain(m * n);
          t.gemm(a.data(), w.data(), plain.data(), m, n, k, false, false, 0, m);
          if (backend == Backend::kSimd) {
            bool chain_ok = true;
            for (int64_t i = 0; i < m && chain_ok; ++i) {
              for (int64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (int64_t kk = 0; kk < k; ++kk) {
                  acc = std::fmaf(a[i * k + kk], w[kk * n + j], acc);
                }
                if (std::memcmp(&acc, &plain[i * n + j], sizeof(float)) != 0) {
                  chain_ok = false;
                  break;
                }
              }
            }
            EXPECT_TRUE(chain_ok) << "simd gemm vs fmaf chain m=" << m << " n=" << n
                                  << " k=" << k;
          }
          for (bool with_bias : {false, true}) {
            for (bool gelu : {false, true}) {
              std::vector<float> want = plain;
              for (int64_t r = 0; r < m; ++r) {
                if (with_bias) t.add(want.data() + r * n, bias.data(), n);
                if (gelu) t.gelu_array(want.data() + r * n, want.data() + r * n, n);
              }
              const float* pb = with_bias ? bias.data() : nullptr;
              std::vector<float> got(m * n, -7.0f);
              t.linear_rows(a.data(), w.data(), pb, gelu, got.data(), m, n, k, 0, m);
              const std::string what = std::string(BackendName(backend)) +
                                       " m=" + std::to_string(m) + " n=" + std::to_string(n) +
                                       " k=" + std::to_string(k) +
                                       " bias=" + std::to_string(with_bias) +
                                       " gelu=" + std::to_string(gelu);
              EXPECT_TRUE(SameBits(got.data(), want.data(), m * n)) << what;
              if (m > 5) {
                std::vector<float> part(m * n, -7.0f);
                t.linear_rows(a.data(), w.data(), pb, gelu, part.data(), m, n, k, 5, m);
                EXPECT_TRUE(SameBits(part.data() + 5 * n, want.data() + 5 * n, (m - 5) * n))
                    << what << " r0=5";
                EXPECT_EQ(part[5 * n - 1], -7.0f) << what << " wrote below r0";
              }
            }
          }
        }
      }
    }
  }
}

// NaN-aware bit equality: the same bits, or NaN on both sides.
bool AlikeBits(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

// The row-lane SIMD LayerNorm gives the scalar loop's bits: every row count
// mod 8 (the scalar remainder), widths with and without a column tail, with
// and without a residual, with the backward outputs, and rows holding a NaN
// or an Inf (whose whole row goes NaN on both backends, and whose
// neighbours in the same 8-row block stay finite).
TEST_F(KernelBackendsTest, LayerNormRowsSimdMatchesScalar) {
  Rng rng(72);
  for (int64_t d : {8, 64, 65}) {
    const std::vector<float> gamma = RandomVec(d, &rng, 0.5f, 1.5f);
    const std::vector<float> beta = RandomVec(d, &rng, -0.5f, 0.5f);
    for (int64_t rows = 16; rows < 24; ++rows) {
      std::vector<float> x = RandomVec(rows * d, &rng, -3.0f, 5.0f);
      const std::vector<float> res = RandomVec(rows * d, &rng, -1.0f, 1.0f);
      x[3 * d + d / 2] = std::nanf("");
      x[10 * d + 1] = kInf;
      for (bool with_res : {false, true}) {
        const float* pr = with_res ? res.data() : nullptr;
        std::vector<float> y1(rows * d), y2(rows * d), xh1(rows * d), xh2(rows * d);
        std::vector<float> is1(rows), is2(rows);
        scalar().layernorm_rows(x.data(), pr, gamma.data(), beta.data(), y1.data(),
                                xh1.data(), is1.data(), rows, d, 1e-5f);
        simd().layernorm_rows(x.data(), pr, gamma.data(), beta.data(), y2.data(),
                              xh2.data(), is2.data(), rows, d, 1e-5f);
        const std::string what = "d=" + std::to_string(d) + " rows=" + std::to_string(rows) +
                                 " residual=" + std::to_string(with_res);
        EXPECT_TRUE(AlikeBits(y1, y2)) << what;
        EXPECT_TRUE(AlikeBits(xh1, xh2)) << what;
        EXPECT_TRUE(AlikeBits(is1, is2)) << what;
        for (int64_t r : {3, 10}) {
          for (int64_t i = 0; i < d; ++i) {
            EXPECT_TRUE(std::isnan(y2[r * d + i])) << what << " row " << r;
          }
        }
        for (int64_t i = 0; i < d; ++i) {
          EXPECT_TRUE(std::isfinite(y2[2 * d + i]) && std::isfinite(y2[11 * d + i])) << what;
        }
        // Without backward outputs, and in place (y aliasing x).
        std::vector<float> y3 = x;
        simd().layernorm_rows(y3.data(), pr, gamma.data(), beta.data(), y3.data(), nullptr,
                              nullptr, rows, d, 1e-5f);
        EXPECT_TRUE(AlikeBits(y3, y1)) << what << " in place";
      }
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace rita
