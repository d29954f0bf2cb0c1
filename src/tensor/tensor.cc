#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace rita {

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    RITA_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  numel_ = ShapeNumel(shape_);
  storage_ = std::make_shared<std::vector<float>>(numel_, 0.0f);
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(Shape shape, const std::vector<float>& values) {
  // Validate before allocating so a mismatched call fails with the shapes in
  // the message instead of an opaque post-construction check.
  RITA_CHECK_EQ(ShapeNumel(shape), static_cast<int64_t>(values.size()))
      << "FromVector: shape " << ShapeToString(shape) << " wants "
      << ShapeNumel(shape) << " values, got " << values.size();
  Tensor t(std::move(shape));
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::RandNormal(Shape shape, Rng* rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::RandUniform(Shape shape, Rng* rng, float lo, float hi) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t({n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

int64_t Tensor::size(int64_t d) const {
  if (d < 0) d += dim();
  RITA_CHECK_GE(d, 0);
  RITA_CHECK_LT(d, dim());
  return shape_[d];
}

float& Tensor::At(std::initializer_list<int64_t> idx) {
  RITA_CHECK_EQ(static_cast<int64_t>(idx.size()), dim());
  int64_t flat = 0;
  int64_t d = 0;
  for (int64_t i : idx) {
    RITA_CHECK_GE(i, 0);
    RITA_CHECK_LT(i, shape_[d]);
    flat = flat * shape_[d] + i;
    ++d;
  }
  return data()[flat];
}

float Tensor::At(std::initializer_list<int64_t> idx) const {
  return const_cast<Tensor*>(this)->At(idx);
}

float Tensor::Item() const {
  RITA_CHECK_EQ(numel_, 1);
  return data()[0];
}

Tensor Tensor::Reshape(Shape new_shape) const {
  RITA_CHECK(defined());
  int64_t infer_at = -1;
  int64_t known = 1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      RITA_CHECK_EQ(infer_at, -1) << "at most one -1 dim";
      infer_at = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer_at >= 0) {
    RITA_CHECK_GT(known, 0);
    RITA_CHECK_EQ(numel_ % known, 0);
    new_shape[infer_at] = numel_ / known;
  }
  RITA_CHECK_EQ(ShapeNumel(new_shape), numel_)
      << "reshape " << ShapeToString(shape_) << " -> " << ShapeToString(new_shape);
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.numel_ = numel_;
  out.storage_ = storage_;
  return out;
}

Tensor Tensor::Clone() const {
  if (!defined()) return Tensor();
  Tensor out;
  out.shape_ = shape_;
  out.numel_ = numel_;
  out.storage_ = std::make_shared<std::vector<float>>(*storage_);
  return out;
}

void Tensor::Fill(float value) {
  float* p = data();
  std::fill(p, p + numel_, value);
}

void Tensor::CopyFrom(const Tensor& src) {
  RITA_CHECK_EQ(numel_, src.numel());
  std::copy(src.data(), src.data() + numel_, data());
}

bool Tensor::AllClose(const Tensor& other, float rtol, float atol) const {
  if (shape_ != other.shape()) return false;
  const float* a = data();
  const float* b = other.data();
  for (int64_t i = 0; i < numel_; ++i) {
    const float diff = std::fabs(a[i] - b[i]);
    if (diff > atol + rtol * std::fabs(b[i])) return false;
    if (std::isnan(a[i]) != std::isnan(b[i])) return false;
  }
  return true;
}

bool Tensor::AllFinite() const {
  const float* p = defined() ? data() : nullptr;
  // An all-ones exponent is Inf or NaN. Integer ops only, so the OR-reduction
  // vectorizes without reassociating any float arithmetic.
  uint32_t non_finite = 0;
  for (int64_t i = 0; i < numel_; ++i) {
    uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    non_finite |= static_cast<uint32_t>((bits & 0x7F800000u) == 0x7F800000u);
  }
  return non_finite == 0;
}

std::string Tensor::ToString(int64_t max_items) const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_) << " {";
  const float* p = defined() ? data() : nullptr;
  const int64_t n = std::min<int64_t>(numel_, max_items);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << p[i];
  }
  if (numel_ > n) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace rita
