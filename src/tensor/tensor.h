// Dense float32 tensor. Always contiguous row-major; shapes are small vectors
// of int64. Storage is shared (shallow copies alias), Clone() deep-copies.
// This is the numeric substrate every other module builds on.
#ifndef RITA_TENSOR_TENSOR_H_
#define RITA_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace rita {

using Shape = std::vector<int64_t>;

/// Returns the number of elements a shape describes (product of dims).
int64_t ShapeNumel(const Shape& shape);

/// Renders a shape as "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// Contiguous row-major float tensor with shared storage.
class Tensor {
 public:
  /// Empty 0-d tensor (numel 0, dim 0). Distinguishable via defined().
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);

  // -- Factories ---------------------------------------------------------

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor Ones(Shape shape) { return Full(std::move(shape), 1.0f); }
  static Tensor Full(Shape shape, float value);
  /// 0-d scalar holder represented as shape {1}.
  static Tensor Scalar(float value) { return Full({1}, value); }
  static Tensor FromVector(Shape shape, const std::vector<float>& values);
  static Tensor RandNormal(Shape shape, Rng* rng, float mean = 0.0f, float stddev = 1.0f);
  static Tensor RandUniform(Shape shape, Rng* rng, float lo = 0.0f, float hi = 1.0f);
  /// arange(0, n) as float.
  static Tensor Arange(int64_t n);

  // -- Introspection -----------------------------------------------------

  bool defined() const { return storage_ != nullptr; }
  const Shape& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t d) const;
  int64_t numel() const { return numel_; }

  float* data() {
    RITA_CHECK(defined());
    return storage_->data();
  }
  const float* data() const {
    RITA_CHECK(defined());
    return storage_->data();
  }

  /// Bounds-checked scalar accessors (slow; for tests and small tensors).
  float& At(std::initializer_list<int64_t> idx);
  float At(std::initializer_list<int64_t> idx) const;

  /// Value of a single-element tensor.
  float Item() const;

  // -- Shape manipulation (storage-sharing) -------------------------------

  /// Reinterprets the shape; numel must match. Shares storage. One dim may be
  /// -1 and is inferred.
  Tensor Reshape(Shape new_shape) const;

  /// Deep copy.
  Tensor Clone() const;

  /// Overwrites every element.
  void Fill(float value);

  /// Copies values from `src` (shapes must match in numel).
  void CopyFrom(const Tensor& src);

  /// True when shapes match and |a-b| <= atol + rtol*|b| elementwise.
  bool AllClose(const Tensor& other, float rtol = 1e-4f, float atol = 1e-5f) const;

  /// True when no element is NaN or +-Inf (an undefined tensor is finite).
  bool AllFinite() const;

  /// Debug rendering (truncated for large tensors).
  std::string ToString(int64_t max_items = 32) const;

 private:
  Shape shape_;
  int64_t numel_ = 0;
  std::shared_ptr<std::vector<float>> storage_;
};

}  // namespace rita

#endif  // RITA_TENSOR_TENSOR_H_
