#include "util/execution_context.h"

#include "autograd/variable.h"
#include "obs/trace.h"

namespace rita {

namespace {

// Installs a grad mode for the current scope and restores the previous one on
// exit (exception-safe: a throwing shard must not leak its caller's mode into
// an unrelated task later scheduled on the same worker).
class ScopedGradMode {
 public:
  explicit ScopedGradMode(bool mode) : prev_(ag::SetGradModeEnabled(mode)) {}
  ~ScopedGradMode() { ag::SetGradModeEnabled(prev_); }
  ScopedGradMode(const ScopedGradMode&) = delete;
  ScopedGradMode& operator=(const ScopedGradMode&) = delete;

 private:
  bool prev_;
};

}  // namespace

void ExecutionContext::ParallelFor(int64_t begin, int64_t end,
                                   const std::function<void(int64_t, int64_t)>& body,
                                   int64_t min_shard) const {
  const bool grad_mode = ag::GradModeEnabled();
  const uint64_t trace_id = obs::CurrentTrace().trace_id;
  pool()->ParallelFor(
      begin, end,
      [&body, grad_mode, trace_id](int64_t b, int64_t e) {
        ScopedGradMode scope(grad_mode);
        obs::ScopedTrace trace(trace_id);
        body(b, e);
      },
      min_shard);
}

ScratchArena::Lease::~Lease() {
  if (arena_ != nullptr) arena_->Release(chunk_);
}

float* ScratchArena::Lease::Floats(int64_t n) {
  if (chunk_->next == chunk_->buffers.size()) chunk_->buffers.emplace_back();
  std::vector<float>& buf = chunk_->buffers[chunk_->next++];
  if (static_cast<int64_t>(buf.size()) < n) buf.resize(n);
  return buf.data();
}

namespace {

size_t ChunkBytes(const std::deque<std::vector<float>>& buffers) {
  size_t bytes = 0;
  for (const auto& b : buffers) bytes += b.capacity() * sizeof(float);
  return bytes;
}

}  // namespace

ScratchArena::Lease ScratchArena::Acquire() {
  Chunk* chunk = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      chunk = free_.back();
      free_.pop_back();
      retained_bytes_ -= ChunkBytes(chunk->buffers);
    } else {
      chunks_.push_back(std::make_unique<Chunk>());
      chunk = chunks_.back().get();
    }
  }
  chunk->next = 0;
  return Lease(this, chunk);
}

void ScratchArena::Release(Chunk* chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t bytes = ChunkBytes(chunk->buffers);
  if (retained_bytes_ + bytes > max_retained_bytes_) {
    // Over the cap: hand the storage back to the allocator instead of caching
    // it. The (empty) chunk stays on the free list for reuse.
    chunk->buffers.clear();
  } else {
    retained_bytes_ += bytes;
  }
  free_.push_back(chunk);
}

ExecutionContext* ExecutionContext::Default() {
  static ExecutionContext* context = new ExecutionContext();
  return context;
}

}  // namespace rita
