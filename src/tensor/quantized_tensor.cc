#include "tensor/quantized_tensor.h"

#include <cstring>

#include "util/check.h"

namespace rita {

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kBf16:
      return "bf16";
  }
  return "?";
}

uint16_t Bf16FromFloat(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  // Round to nearest, ties to even on the truncated mantissa half. NaN would
  // need a payload guard, but frozen weights are finite by construction.
  const uint32_t rounding = 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

float Bf16ToFloat(uint16_t value) {
  const uint32_t bits = static_cast<uint32_t>(value) << 16;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

QuantizedTensor QuantizedTensor::QuantizeBf16(const Tensor& weight) {
  RITA_CHECK_EQ(weight.dim(), 2) << "bf16 quantization expects a [in, out] matrix";
  const int64_t rows = weight.size(0);
  const int64_t cols = weight.size(1);
  QuantizedTensor q(rows, cols);
  q.bf16_.resize(static_cast<size_t>(rows * cols));
  const float* w = weight.data();
  for (int64_t i = 0; i < rows * cols; ++i) q.bf16_[static_cast<size_t>(i)] = Bf16FromFloat(w[i]);
  return q;
}

int64_t QuantizedTensor::WeightBytes() const {
  return static_cast<int64_t>(bf16_.size() * sizeof(uint16_t));
}

Tensor QuantizedTensor::Dequantize() const {
  Tensor out({rows_, cols_});
  float* o = out.data();
  for (int64_t i = 0; i < rows_ * cols_; ++i) {
    o[i] = Bf16ToFloat(bf16_[static_cast<size_t>(i)]);
  }
  return out;
}

const uint16_t* QuantizedTensor::bf16_data() const { return bf16_.data(); }

}  // namespace rita
