// Little-endian binary (de)serialization for model checkpoints and bench CSV
// side files. Format: tagged key/value records of PODs, strings and float
// buffers; see checkpoint.cc for the model container layout.
#ifndef RITA_UTIL_SERIALIZE_H_
#define RITA_UTIL_SERIALIZE_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace rita {

/// Buffered binary writer over a file.
class BinaryWriter {
 public:
  /// Opens `path` for truncating binary write.
  static Result<BinaryWriter> Open(const std::string& path);

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteFloats(const float* data, int64_t count);

  /// Flushes and reports any stream failure.
  Status Close();

 private:
  explicit BinaryWriter(std::ofstream out) : out_(std::move(out)) {}
  std::ofstream out_;
};

/// Binary reader mirroring BinaryWriter.
class BinaryReader {
 public:
  static Result<BinaryReader> Open(const std::string& path);

  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadI64(int64_t* v);
  Status ReadF32(float* v);
  Status ReadF64(double* v);
  /// Fails without allocating when the stored length exceeds the bytes left.
  Status ReadString(std::string* s);
  Status ReadFloats(float* data, int64_t count);
  /// Consumes a WriteFloats record of `count` floats without storing it.
  Status SkipFloats(int64_t count);

  bool AtEof();

 private:
  BinaryReader(std::ifstream in, int64_t size) : in_(std::move(in)), size_(size) {}
  Status ReadRaw(void* dst, int64_t bytes);
  // Bytes between the read position and the end of the file.
  int64_t Remaining();
  std::ifstream in_;
  int64_t size_;
};

}  // namespace rita

#endif  // RITA_UTIL_SERIALIZE_H_
