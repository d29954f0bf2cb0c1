// Per-stream ingestion buffer: accepts appended sample chunks of any size,
// slices hop-aligned windows of a fixed length, and exposes the ragged tail
// for the final flush. Window boundaries are fixed from the stream's first
// sample (window k covers samples [k*hop, k*hop + window_length)), so the
// emitted windows are a pure function of the sample sequence — never of the
// chunk sizes it arrived in. That invariance is what makes a StreamSession's
// stitched output bit-identical across ingestion chunkings.
//
// Buffering is bounded: Append() refuses (typed kOutOfMemory reject, chunk
// untouched) when the chunk would push the buffer past `max_buffered` —
// backpressure surfaces to the caller instead of growing memory without
// bound, mirroring the serving engine's admission rejects.
//
// Not thread-safe; the owning StreamSession serializes access.
#ifndef RITA_STREAM_WINDOW_ASSEMBLER_H_
#define RITA_STREAM_WINDOW_ASSEMBLER_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace rita {
namespace stream {

class WindowAssembler {
 public:
  struct Options {
    int64_t channels = 1;
    int64_t window_length = 0;  // > 0
    int64_t hop = 0;            // in [1, window_length]
    /// Buffered-sample budget; 0 = unbounded. Appends that would exceed it
    /// are rejected whole (all-or-nothing).
    int64_t max_buffered = 0;
  };

  explicit WindowAssembler(const Options& options);

  /// Ingests a chunk: [n, channels], or [n] when channels == 1 (n >= 0). A
  /// chunk holding NaN or Inf is refused whole with kInvalidArgument.
  Status Append(const Tensor& samples);

  /// True when a full hop-aligned window is buffered.
  bool HasWindow() const;

  /// Copies out the next window [window_length, channels] WITHOUT consuming
  /// it; `start` (optional) receives its absolute sample index. Requires
  /// HasWindow(). Peek/Advance are split so a caller whose downstream
  /// (engine admission) refuses the window can retry it later — nothing is
  /// lost on backpressure.
  Tensor PeekWindow(int64_t* start) const;

  /// Consumes the peeked window: advances to the next window start and
  /// discards samples no future window can cover. Requires HasWindow().
  void AdvanceWindow();

  /// PeekWindow + AdvanceWindow in one call.
  Tensor PopWindow(int64_t* start);

  /// Samples buffered past the last emitted window: in [0, window_length)
  /// once HasWindow() is false.
  int64_t TailLength() const;

  /// Copies out the ragged tail [TailLength(), channels] (undefined tensor
  /// when empty) without consuming it; `start` (optional) receives its
  /// absolute index. Only meaningful after PopWindow() has been drained.
  Tensor PeekTail(int64_t* start) const;

  /// Discards the tail (after its flush succeeded downstream).
  void DiscardTail();

  /// PeekTail + DiscardTail in one call.
  Tensor TakeTail(int64_t* start);

  int64_t buffered() const {
    return static_cast<int64_t>(buffer_.size()) / options_.channels;
  }
  int64_t total_ingested() const { return total_ingested_; }
  const Options& options() const { return options_; }

 private:
  /// Drops buffered samples that no future window can cover.
  void DiscardConsumedPrefix();

  Options options_;
  std::vector<float> buffer_;  // row-major [buffered, channels]
  int64_t base_ = 0;           // absolute sample index of buffer_ row 0
  int64_t next_start_ = 0;     // absolute start of the next window
  int64_t total_ingested_ = 0;
};

}  // namespace stream
}  // namespace rita

#endif  // RITA_STREAM_WINDOW_ASSEMBLER_H_
