#include "util/serialize.h"

namespace rita {

Result<BinaryWriter> BinaryWriter::Open(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for write: " + path);
  }
  return BinaryWriter(std::move(out));
}

void BinaryWriter::WriteU32(uint32_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::WriteU64(uint64_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::WriteI64(int64_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::WriteF32(float v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::WriteF64(double v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}
void BinaryWriter::WriteFloats(const float* data, int64_t count) {
  WriteI64(count);
  out_.write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(count * static_cast<int64_t>(sizeof(float))));
}

Status BinaryWriter::Close() {
  out_.flush();
  if (!out_.good()) return Status::IoError("write failure on close");
  out_.close();
  return Status::OK();
}

Result<BinaryReader> BinaryReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open for read: " + path);
  }
  in.seekg(0, std::ios::end);
  const int64_t size = static_cast<int64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (size < 0 || !in.good()) return Status::IoError("cannot size: " + path);
  return BinaryReader(std::move(in), size);
}

int64_t BinaryReader::Remaining() {
  const int64_t pos = static_cast<int64_t>(in_.tellg());
  return pos < 0 ? 0 : size_ - pos;
}

Status BinaryReader::ReadRaw(void* dst, int64_t bytes) {
  in_.read(reinterpret_cast<char*>(dst), bytes);
  if (in_.gcount() != bytes) return Status::IoError("short read");
  return Status::OK();
}

Status BinaryReader::ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
Status BinaryReader::ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
Status BinaryReader::ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
Status BinaryReader::ReadF32(float* v) { return ReadRaw(v, sizeof(*v)); }
Status BinaryReader::ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }

Status BinaryReader::ReadString(std::string* s) {
  uint64_t len = 0;
  RITA_RETURN_NOT_OK(ReadU64(&len));
  if (len > static_cast<uint64_t>(Remaining())) {
    return Status::IoError("corrupt string length");
  }
  s->resize(len);
  return ReadRaw(s->data(), static_cast<int64_t>(len));
}

Status BinaryReader::ReadFloats(float* data, int64_t count) {
  int64_t stored = 0;
  RITA_RETURN_NOT_OK(ReadI64(&stored));
  if (stored != count) {
    return Status::IoError("float buffer count mismatch: expected " + std::to_string(count) +
                           " got " + std::to_string(stored));
  }
  return ReadRaw(data, count * static_cast<int64_t>(sizeof(float)));
}

Status BinaryReader::SkipFloats(int64_t count) {
  int64_t stored = 0;
  RITA_RETURN_NOT_OK(ReadI64(&stored));
  if (stored != count) {
    return Status::IoError("float buffer count mismatch: expected " + std::to_string(count) +
                           " got " + std::to_string(stored));
  }
  const int64_t remaining = Remaining();
  if (count < 0 || count > remaining / static_cast<int64_t>(sizeof(float))) {
    return Status::IoError("short read");
  }
  in_.seekg(count * static_cast<int64_t>(sizeof(float)), std::ios::cur);
  return Status::OK();
}

bool BinaryReader::AtEof() {
  in_.peek();
  return in_.eof();
}

}  // namespace rita
