#include "stream/window_assembler.h"

#include <algorithm>

namespace rita {
namespace stream {

WindowAssembler::WindowAssembler(const Options& options) : options_(options) {
  RITA_CHECK_GT(options_.channels, 0);
  RITA_CHECK_GT(options_.window_length, 0);
  RITA_CHECK_GE(options_.hop, 1);
  RITA_CHECK_LE(options_.hop, options_.window_length);
  RITA_CHECK_GE(options_.max_buffered, 0);
}

Status WindowAssembler::Append(const Tensor& samples) {
  if (!samples.defined()) {
    return Status::InvalidArgument("appended samples tensor is undefined");
  }
  int64_t n = 0;
  if (samples.dim() == 1 && options_.channels == 1) {
    n = samples.size(0);
  } else if (samples.dim() == 2 && samples.size(1) == options_.channels) {
    n = samples.size(0);
  } else {
    return Status::InvalidArgument(
        "appended samples must be [n, " + std::to_string(options_.channels) +
        "]" + (options_.channels == 1 ? " or [n]" : "") + ", got " +
        ShapeToString(samples.shape()));
  }
  if (!samples.AllFinite()) {
    // Refused whole, before anything is buffered: the session stays usable.
    return Status::InvalidArgument("appended samples hold a non-finite value");
  }
  if (options_.max_buffered > 0 && buffered() + n > options_.max_buffered) {
    // All-or-nothing: the caller keeps the chunk and can retry after the
    // stream drains — the streaming analogue of admission backpressure.
    return Status::OutOfMemory(
        "stream buffer full (backpressure): " + std::to_string(buffered()) +
        " buffered + " + std::to_string(n) + " appended > budget " +
        std::to_string(options_.max_buffered));
  }
  if (n > 0) {
    const float* src = samples.data();
    buffer_.insert(buffer_.end(), src, src + n * options_.channels);
    total_ingested_ += n;
  }
  return Status::OK();
}

bool WindowAssembler::HasWindow() const {
  return base_ + buffered() >= next_start_ + options_.window_length;
}

Tensor WindowAssembler::PeekWindow(int64_t* start) const {
  RITA_CHECK(HasWindow());
  const int64_t c = options_.channels;
  const int64_t offset = (next_start_ - base_) * c;
  Tensor window({options_.window_length, c});
  std::copy(buffer_.begin() + offset,
            buffer_.begin() + offset + options_.window_length * c,
            window.data());
  if (start != nullptr) *start = next_start_;
  return window;
}

void WindowAssembler::AdvanceWindow() {
  RITA_CHECK(HasWindow());
  next_start_ += options_.hop;
  DiscardConsumedPrefix();
}

Tensor WindowAssembler::PopWindow(int64_t* start) {
  Tensor window = PeekWindow(start);
  AdvanceWindow();
  return window;
}

int64_t WindowAssembler::TailLength() const {
  return std::max<int64_t>(0, base_ + buffered() - next_start_);
}

Tensor WindowAssembler::PeekTail(int64_t* start) const {
  const int64_t m = TailLength();
  if (start != nullptr) *start = next_start_;
  if (m == 0) return Tensor();
  const int64_t c = options_.channels;
  const int64_t offset = (next_start_ - base_) * c;
  Tensor tail({m, c});
  std::copy(buffer_.begin() + offset, buffer_.begin() + offset + m * c,
            tail.data());
  return tail;
}

void WindowAssembler::DiscardTail() {
  const int64_t m = TailLength();
  buffer_.clear();
  base_ = next_start_ + m;
  next_start_ = base_;
}

Tensor WindowAssembler::TakeTail(int64_t* start) {
  Tensor tail = PeekTail(start);
  DiscardTail();
  return tail;
}

void WindowAssembler::DiscardConsumedPrefix() {
  // Everything before the next window's start is dead: future windows begin
  // at next_start_, next_start_ + hop, ... — the overlap region stays.
  const int64_t dead_rows = next_start_ - base_;
  if (dead_rows <= 0) return;
  buffer_.erase(buffer_.begin(), buffer_.begin() + dead_rows * options_.channels);
  base_ = next_start_;
}

}  // namespace stream
}  // namespace rita
