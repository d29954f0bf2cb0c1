// MatMul / Bmm with full transpose-flag support in forward and backward, and
// the backward node of nn::Linear.
#include "autograd/function.h"
#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace rita {
namespace ag {

namespace {

class MatMulFunction : public Function {
 public:
  MatMulFunction(Tensor a, Tensor b, bool ta, bool tb)
      : a_(std::move(a)), b_(std::move(b)), ta_(ta), tb_(tb) {}
  std::string name() const override { return "MatMul"; }

  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor da, db;
    if (!ta_ && !tb_) {
      da = ops::MatMul(g, b_, false, true);
      db = ops::MatMul(a_, g, true, false);
    } else if (!ta_ && tb_) {
      da = ops::MatMul(g, b_, false, false);
      db = ops::MatMul(g, a_, true, false);
    } else if (ta_ && !tb_) {
      da = ops::MatMul(b_, g, false, true);
      db = ops::MatMul(a_, g, false, false);
    } else {
      da = ops::MatMul(b_, g, true, true);
      db = ops::MatMul(g, a_, true, true);
    }
    return {da, db};
  }

 private:
  Tensor a_, b_;
  bool ta_, tb_;
};

class BmmFunction : public Function {
 public:
  BmmFunction(Tensor a, Tensor b, bool ta, bool tb)
      : a_(std::move(a)), b_(std::move(b)), ta_(ta), tb_(tb) {}
  std::string name() const override { return "Bmm"; }

  std::vector<Tensor> Backward(const Tensor& g) override {
    const bool shared_b = (b_.dim() == 2);
    Tensor da, db;
    if (shared_b) {
      RITA_CHECK(!ta_) << "Bmm with shared 2-D b requires trans_a == false";
      // Flatten the batch into rows; C = A_flat op(B).
      const Tensor a_flat = a_.Reshape({a_.size(0) * a_.size(1), a_.size(2)});
      const Tensor g_flat = g.Reshape({g.size(0) * g.size(1), g.size(2)});
      if (!tb_) {
        da = ops::MatMul(g_flat, b_, false, true).Reshape(a_.shape());
        db = ops::MatMul(a_flat, g_flat, true, false);
      } else {
        da = ops::MatMul(g_flat, b_, false, false).Reshape(a_.shape());
        db = ops::MatMul(g_flat, a_flat, true, false);
      }
      return {da, db};
    }
    if (!ta_ && !tb_) {
      da = ops::Bmm(g, b_, false, true);
      db = ops::Bmm(a_, g, true, false);
    } else if (!ta_ && tb_) {
      da = ops::Bmm(g, b_, false, false);
      db = ops::Bmm(g, a_, true, false);
    } else if (ta_ && !tb_) {
      da = ops::Bmm(b_, g, false, true);
      db = ops::Bmm(a_, g, false, false);
    } else {
      da = ops::Bmm(b_, g, true, true);
      db = ops::Bmm(g, a_, true, true);
    }
    return {da, db};
  }

 private:
  Tensor a_, b_;
  bool ta_, tb_;
};

// y = x W + b with x flattened to [rows, in]. The gradients are the ones the
// Reshape -> MatMul -> Reshape -> Add chain produced, bit for bit: the same
// ops::MatMul pair for dx/dW and ops::ReduceToShape over y's own shape for b.
class LinearFunction : public Function {
 public:
  LinearFunction(Tensor x, Tensor w, bool has_bias)
      : x_(std::move(x)), w_(std::move(w)), has_bias_(has_bias) {}
  std::string name() const override { return "Linear"; }

  std::vector<Tensor> Backward(const Tensor& g) override {
    const int64_t in = w_.size(0), out = w_.size(1);
    const Tensor g_flat = g.Reshape({-1, out});
    const Tensor x_flat = x_.Reshape({-1, in});
    std::vector<Tensor> grads = {
        ops::MatMul(g_flat, w_, false, true).Reshape(x_.shape()),
        ops::MatMul(x_flat, g_flat, true, false)};
    if (has_bias_) grads.push_back(ops::ReduceToShape(g, {out}));
    return grads;
  }

 private:
  Tensor x_, w_;
  bool has_bias_;
};

}  // namespace

void ConnectLinear(const Variable& x, const Variable& weight, const Variable& bias,
                   Variable* out) {
  if (!GradModeEnabled()) return;
  const bool has_bias = bias.defined();
  std::vector<Variable> inputs = {x, weight};
  if (has_bias) inputs.push_back(bias);
  Function::Connect(std::make_shared<LinearFunction>(x.data(), weight.data(), has_bias),
                    std::move(inputs), out);
}

Variable MatMul(const Variable& a, const Variable& b, bool trans_a, bool trans_b) {
  Variable out(ops::MatMul(a.data(), b.data(), trans_a, trans_b));
  Function::Connect(std::make_shared<MatMulFunction>(a.data(), b.data(), trans_a, trans_b),
                    {a, b}, &out);
  return out;
}

Variable Bmm(const Variable& a, const Variable& b, bool trans_a, bool trans_b) {
  Variable out(ops::Bmm(a.data(), b.data(), trans_a, trans_b));
  Function::Connect(std::make_shared<BmmFunction>(a.data(), b.data(), trans_a, trans_b),
                    {a, b}, &out);
  return out;
}

}  // namespace ag
}  // namespace rita
