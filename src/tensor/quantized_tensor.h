// Reduced-precision weight storage for the frozen serving path. A
// QuantizedTensor is produced once at freeze time from a 2-D fp32 weight
// matrix [in, out] and is immutable afterwards: each fp32 value is
// round-to-nearest-even truncated to its upper 16 bits (bfloat16), 0.5x the
// fp32 bytes, and widened back in-register by the kernel table's gemm_bf16.
// nn::Linear routes grad-free forwards through that GEMM when a frozen
// quantized weight is attached.
#ifndef RITA_TENSOR_QUANTIZED_TENSOR_H_
#define RITA_TENSOR_QUANTIZED_TENSOR_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rita {

/// Serving precision of a frozen weight set. kFp32 means "no quantization":
/// the untouched fp32 path, still covered by the bitwise CI gates. The values
/// are the wire byte and the rita_model_precision gauge; 1 stays unused.
enum class Precision { kFp32 = 0, kBf16 = 2 };

const char* PrecisionName(Precision precision);

/// bf16 <-> fp32 conversion. FromFloat rounds to nearest-even; ToFloat is
/// exact (bit shift), so a round-trip through bf16 is a pure precision drop.
uint16_t Bf16FromFloat(float value);
float Bf16ToFloat(uint16_t value);

class QuantizedTensor {
 public:
  /// bf16 truncation of `weight` [in, out].
  static QuantizedTensor QuantizeBf16(const Tensor& weight);

  int64_t rows() const { return rows_; }  // in_features (contraction dim)
  int64_t cols() const { return cols_; }  // out_features (output channels)

  /// Bytes this representation actually occupies on the serving path.
  int64_t WeightBytes() const;

  /// fp32 reconstruction (tests / accuracy analysis, not the serving path).
  Tensor Dequantize() const;

  const uint16_t* bf16_data() const;

 private:
  QuantizedTensor(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {}

  int64_t rows_, cols_;
  std::vector<uint16_t> bf16_;  // [rows, cols] row-major
};

}  // namespace rita

#endif  // RITA_TENSOR_QUANTIZED_TENSOR_H_
