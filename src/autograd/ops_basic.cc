// Arithmetic, unary, reduction and shape ops with their backward rules.
#include <cmath>

#include "autograd/function.h"
#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace ag {

namespace {

// ---------------------------------------------------------------------------
// Binary arithmetic
// ---------------------------------------------------------------------------

class AddFunction : public Function {
 public:
  AddFunction(Shape sa, Shape sb) : sa_(std::move(sa)), sb_(std::move(sb)) {}
  std::string name() const override { return "Add"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    return {ops::ReduceToShape(g, sa_), ops::ReduceToShape(g, sb_)};
  }

 private:
  Shape sa_, sb_;
};

class SubFunction : public Function {
 public:
  SubFunction(Shape sa, Shape sb) : sa_(std::move(sa)), sb_(std::move(sb)) {}
  std::string name() const override { return "Sub"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    return {ops::ReduceToShape(g, sa_), ops::ReduceToShape(ops::Neg(g), sb_)};
  }

 private:
  Shape sa_, sb_;
};

class MulFunction : public Function {
 public:
  MulFunction(Tensor a, Tensor b) : a_(std::move(a)), b_(std::move(b)) {}
  std::string name() const override { return "Mul"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    return {ops::ReduceToShape(ops::Mul(g, b_), a_.shape()),
            ops::ReduceToShape(ops::Mul(g, a_), b_.shape())};
  }

 private:
  Tensor a_, b_;
};

class DivFunction : public Function {
 public:
  DivFunction(Tensor a, Tensor b) : a_(std::move(a)), b_(std::move(b)) {}
  std::string name() const override { return "Div"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    // d/da (a/b) = 1/b ; d/db (a/b) = -a/b^2
    Tensor ga = ops::Div(g, b_);
    Tensor gb = ops::Neg(ops::Div(ops::Mul(g, a_), ops::Square(b_)));
    return {ops::ReduceToShape(ga, a_.shape()), ops::ReduceToShape(gb, b_.shape())};
  }

 private:
  Tensor a_, b_;
};

class ScalarAffineFunction : public Function {
 public:
  explicit ScalarAffineFunction(float scale) : scale_(scale) {}
  std::string name() const override { return "ScalarAffine"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    return {scale_ == 1.0f ? g : ops::MulScalar(g, scale_)};
  }

 private:
  float scale_;
};

// ---------------------------------------------------------------------------
// Unary
// ---------------------------------------------------------------------------

// Backward multiplies the upstream grad by a saved pointwise derivative.
class PointwiseFunction : public Function {
 public:
  PointwiseFunction(std::string name, Tensor dydx) : name_(std::move(name)), dydx_(std::move(dydx)) {}
  std::string name() const override { return name_; }
  std::vector<Tensor> Backward(const Tensor& g) override { return {ops::Mul(g, dydx_)}; }

 private:
  std::string name_;
  Tensor dydx_;
};

Variable MakePointwise(const std::string& name, const Variable& a, Tensor out_data,
                       Tensor dydx) {
  Variable out(std::move(out_data));
  Function::Connect(std::make_shared<PointwiseFunction>(name, std::move(dydx)), {a}, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

class SumAllFunction : public Function {
 public:
  SumAllFunction(Shape in_shape, float scale) : in_shape_(std::move(in_shape)), scale_(scale) {}
  std::string name() const override { return "SumAll"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    return {Tensor::Full(in_shape_, g.Item() * scale_)};
  }

 private:
  Shape in_shape_;
  float scale_;
};

class SumAxisFunction : public Function {
 public:
  SumAxisFunction(Shape in_shape, int64_t axis, float scale)
      : in_shape_(std::move(in_shape)), axis_(axis), scale_(scale) {}
  std::string name() const override { return "SumAxis"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    // Broadcast g back across the reduced axis.
    Shape keep = in_shape_;
    keep[axis_] = 1;
    Tensor gk = g.Reshape(keep);
    Tensor out = ops::BroadcastTo(gk, in_shape_);
    if (scale_ != 1.0f) ops::ScaleInPlace(&out, scale_);
    return {out};
  }

 private:
  Shape in_shape_;
  int64_t axis_;
  float scale_;
};

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

class ReshapeFunction : public Function {
 public:
  explicit ReshapeFunction(Shape in_shape) : in_shape_(std::move(in_shape)) {}
  std::string name() const override { return "Reshape"; }
  std::vector<Tensor> Backward(const Tensor& g) override { return {g.Reshape(in_shape_)}; }

 private:
  Shape in_shape_;
};

class TransposeLast2Function : public Function {
 public:
  std::string name() const override { return "TransposeLast2"; }
  std::vector<Tensor> Backward(const Tensor& g) override { return {ops::TransposeLast2(g)}; }
};

class PermuteFunction : public Function {
 public:
  explicit PermuteFunction(std::vector<int64_t> perm) : perm_(std::move(perm)) {}
  std::string name() const override { return "Permute"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    // Backward applies the inverse permutation.
    std::vector<int64_t> inverse(perm_.size());
    for (size_t i = 0; i < perm_.size(); ++i) inverse[perm_[i]] = static_cast<int64_t>(i);
    return {ops::Permute(g, inverse)};
  }

 private:
  std::vector<int64_t> perm_;
};

class ConcatFunction : public Function {
 public:
  ConcatFunction(std::vector<int64_t> sizes, int64_t axis)
      : sizes_(std::move(sizes)), axis_(axis) {}
  std::string name() const override { return "Concat"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    std::vector<Tensor> grads;
    int64_t offset = 0;
    for (int64_t s : sizes_) {
      grads.push_back(ops::Slice(g, axis_, offset, s));
      offset += s;
    }
    return grads;
  }

 private:
  std::vector<int64_t> sizes_;
  int64_t axis_;
};

class SliceFunction : public Function {
 public:
  SliceFunction(Shape in_shape, int64_t axis, int64_t start, int64_t len)
      : in_shape_(std::move(in_shape)), axis_(axis), start_(start), len_(len) {}
  std::string name() const override { return "Slice"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor out(in_shape_);
    int64_t outer = 1, inner = 1;
    const int64_t dim = static_cast<int64_t>(in_shape_.size());
    for (int64_t d = 0; d < axis_; ++d) outer *= in_shape_[d];
    for (int64_t d = axis_ + 1; d < dim; ++d) inner *= in_shape_[d];
    const int64_t in_row = in_shape_[axis_] * inner;
    const int64_t g_row = len_ * inner;
    const float* pg = g.data();
    float* po = out.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pg + o * g_row, pg + (o + 1) * g_row, po + o * in_row + start_ * inner);
    }
    return {out};
  }

 private:
  Shape in_shape_;
  int64_t axis_, start_, len_;
};

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  Variable out(ops::Add(a.data(), b.data()));
  Function::Connect(std::make_shared<AddFunction>(a.shape(), b.shape()), {a, b}, &out);
  return out;
}

Variable Sub(const Variable& a, const Variable& b) {
  Variable out(ops::Sub(a.data(), b.data()));
  Function::Connect(std::make_shared<SubFunction>(a.shape(), b.shape()), {a, b}, &out);
  return out;
}

Variable Mul(const Variable& a, const Variable& b) {
  Variable out(ops::Mul(a.data(), b.data()));
  Function::Connect(std::make_shared<MulFunction>(a.data(), b.data()), {a, b}, &out);
  return out;
}

Variable Div(const Variable& a, const Variable& b) {
  Variable out(ops::Div(a.data(), b.data()));
  Function::Connect(std::make_shared<DivFunction>(a.data(), b.data()), {a, b}, &out);
  return out;
}

Variable Neg(const Variable& a) {
  Variable out(ops::Neg(a.data()));
  Function::Connect(std::make_shared<ScalarAffineFunction>(-1.0f), {a}, &out);
  return out;
}

Variable AddScalar(const Variable& a, float s) {
  Variable out(ops::AddScalar(a.data(), s));
  Function::Connect(std::make_shared<ScalarAffineFunction>(1.0f), {a}, &out);
  return out;
}

Variable MulScalar(const Variable& a, float s) {
  Variable out(ops::MulScalar(a.data(), s));
  Function::Connect(std::make_shared<ScalarAffineFunction>(s), {a}, &out);
  return out;
}

Variable Exp(const Variable& a) {
  Tensor y = ops::Exp(a.data());
  return MakePointwise("Exp", a, y, y);
}

Variable Log(const Variable& a) {
  Tensor y = ops::Log(a.data());
  Tensor dydx = ops::Div(Tensor::Scalar(1.0f), a.data());
  return MakePointwise("Log", a, std::move(y), std::move(dydx));
}

Variable Sqrt(const Variable& a) {
  Tensor y = ops::Sqrt(a.data());
  Tensor dydx = ops::Div(Tensor::Scalar(0.5f), y);
  return MakePointwise("Sqrt", a, std::move(y), std::move(dydx));
}

Variable Square(const Variable& a) {
  Tensor y = ops::Square(a.data());
  Tensor dydx = ops::MulScalar(a.data(), 2.0f);
  return MakePointwise("Square", a, std::move(y), std::move(dydx));
}

Variable Tanh(const Variable& a) {
  Tensor y = ops::Tanh(a.data());
  Tensor dydx = ops::Sub(Tensor::Scalar(1.0f), ops::Square(y));
  return MakePointwise("Tanh", a, std::move(y), std::move(dydx));
}

Variable Sigmoid(const Variable& a) {
  Tensor y = ops::Sigmoid(a.data());
  Tensor one_minus = ops::Sub(Tensor::Scalar(1.0f), y);
  Tensor dydx = ops::Mul(y, one_minus);
  return MakePointwise("Sigmoid", a, std::move(y), std::move(dydx));
}

Variable Relu(const Variable& a) {
  Tensor y = ops::Relu(a.data());
  Tensor dydx(a.shape());
  const float* px = a.data().data();
  float* pd = dydx.data();
  for (int64_t i = 0; i < dydx.numel(); ++i) pd[i] = px[i] > 0.0f ? 1.0f : 0.0f;
  return MakePointwise("Relu", a, std::move(y), std::move(dydx));
}

Variable Gelu(const Variable& a) {
  // Value from the kernel table (the scalar backend is this closed form
  // verbatim). Grad-free callers — every serving forward — skip the
  // derivative tensor entirely.
  Tensor y = ops::Gelu(a.data());
  if (!GradModeEnabled()) return Variable(std::move(y));
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  const Tensor& x = a.data();
  Tensor dydx(x.shape());
  const float* px = x.data();
  float* pd = dydx.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float v = px[i];
    const float t = std::tanh(kC * (v + 0.044715f * v * v * v));
    const float du = kC * (1.0f + 3.0f * 0.044715f * v * v);
    pd[i] = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
  }
  return MakePointwise("Gelu", a, std::move(y), std::move(dydx));
}

Variable SumAll(const Variable& a) {
  Variable out(ops::SumAll(a.data()));
  Function::Connect(std::make_shared<SumAllFunction>(a.shape(), 1.0f), {a}, &out);
  return out;
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  Variable out(ops::MulScalar(ops::SumAll(a.data()), inv));
  Function::Connect(std::make_shared<SumAllFunction>(a.shape(), inv), {a}, &out);
  return out;
}

Variable Sum(const Variable& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.dim();
  Variable out(ops::Sum(a.data(), axis, keepdim));
  Function::Connect(std::make_shared<SumAxisFunction>(a.shape(), axis, 1.0f), {a}, &out);
  return out;
}

Variable Mean(const Variable& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.dim();
  const float inv = 1.0f / static_cast<float>(a.size(axis));
  Variable out(ops::Mean(a.data(), axis, keepdim));
  Function::Connect(std::make_shared<SumAxisFunction>(a.shape(), axis, inv), {a}, &out);
  return out;
}

Variable Reshape(const Variable& a, Shape shape) {
  Variable out(a.data().Reshape(std::move(shape)));
  Function::Connect(std::make_shared<ReshapeFunction>(a.shape()), {a}, &out);
  return out;
}

Variable TransposeLast2(const Variable& a) {
  Variable out(ops::TransposeLast2(a.data()));
  Function::Connect(std::make_shared<TransposeLast2Function>(), {a}, &out);
  return out;
}

Variable Permute(const Variable& a, std::vector<int64_t> perm) {
  Variable out(ops::Permute(a.data(), perm));
  Function::Connect(std::make_shared<PermuteFunction>(std::move(perm)), {a}, &out);
  return out;
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  RITA_CHECK(!parts.empty());
  if (axis < 0) axis += parts[0].dim();
  std::vector<Tensor> datas;
  std::vector<int64_t> sizes;
  datas.reserve(parts.size());
  for (const Variable& p : parts) {
    datas.push_back(p.data());
    sizes.push_back(p.size(axis));
  }
  Variable out(ops::Concat(datas, axis));
  Function::Connect(std::make_shared<ConcatFunction>(std::move(sizes), axis), parts, &out);
  return out;
}

Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t len) {
  if (axis < 0) axis += a.dim();
  Variable out(ops::Slice(a.data(), axis, start, len));
  Function::Connect(std::make_shared<SliceFunction>(a.shape(), axis, start, len), {a}, &out);
  return out;
}

}  // namespace ag
}  // namespace rita
