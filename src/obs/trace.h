// rita::obs — per-request tracing.
//
// A request sampled at admission (RITA_TRACE) carries a non-zero trace id on
// its InferenceRequest. The id rides the scheduler into the executor, is
// installed as a thread-local TraceContext around the forward (and re-
// installed in every ExecutionContext::ParallelFor shard, since shards run on
// pool threads), and every instrumented scope on the way down — queue wait,
// batch forward, kernel call — records a complete span into a bounded
// per-thread ring buffer. obs::DumpTrace serializes the rings as Chrome trace_event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev.
//
// Cost model: when tracing is off, SampleTrace() is one relaxed atomic load
// and every Span construction is one thread-local read + compare — no clock
// reads, no allocation, no stores. Tracing never touches model inputs or
// outputs, so traced and untraced runs are bitwise identical (CI-gated).
//
// RITA_TRACE values: unset/"0"/"off"/"false" = disabled; "1"/"on" = trace
// every request; an integer N>1 = trace one request in N.

#ifndef RITA_OBS_TRACE_H_
#define RITA_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace rita {
namespace obs {

// True if any sampling is armed (RITA_TRACE or SetTracingForTesting).
bool TracingEnabled();

// Overrides RITA_TRACE for the process: 0 disables, 1 traces every request,
// N traces one in N. Tests and the obs bench use this; pass the sentinel
// kTracingFromEnv to drop back to the environment setting.
inline constexpr uint64_t kTracingFromEnv = ~uint64_t{0};
void SetTracingForTesting(uint64_t sample_every);

// Draws the admission sample: a fresh non-zero trace id if this request is
// sampled, 0 otherwise. One relaxed load when tracing is off.
uint64_t SampleTrace();

// Trace clock: steady microseconds since a process-wide epoch. The serving
// stack stamps requests with the same std::chrono::steady_clock, so queue
// timestamps convert losslessly.
double TraceNowUs();
double TraceUsAt(std::chrono::steady_clock::time_point t);

// Thread-local trace context. The executor installs the active request's id
// around the forward; ExecutionContext::ParallelFor re-installs it in every
// shard on the pool threads, so kernel call sites deep in the model pick it
// up without any API threading.
struct TraceContext {
  uint64_t trace_id = 0;
};
TraceContext CurrentTrace();

class ScopedTrace {
 public:
  explicit ScopedTrace(uint64_t trace_id);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceContext prev_;
};

// Records one complete ("ph":"X") span. `name` and `cat` are copied into the
// ring (truncated to the ring's fixed field widths). No-op when trace_id is 0.
void RecordSpan(uint64_t trace_id, const char* name, const char* cat,
                double ts_us, double dur_us);

// RAII span: arms from the current thread's TraceContext (or an explicit
// id), reads the clock only when armed, records on destruction.
class Span {
 public:
  Span(const char* name, const char* cat)
      : Span(CurrentTrace().trace_id, name, cat) {}
  Span(uint64_t trace_id, const char* name, const char* cat)
      : trace_id_(trace_id), name_(name), cat_(cat) {
    if (trace_id_ != 0) start_us_ = TraceNowUs();
  }
  ~Span() {
    if (trace_id_ != 0) {
      RecordSpan(trace_id_, name_, cat_, start_us_, TraceNowUs() - start_us_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool armed() const { return trace_id_ != 0; }

 private:
  uint64_t trace_id_;
  const char* name_;
  const char* cat_;
  double start_us_ = 0.0;
};

// Number of span events currently buffered across all thread rings. Each
// ring holds the most recent kTraceRingCapacity events for its thread.
inline constexpr size_t kTraceRingCapacity = 8192;
uint64_t TraceEventCount();

// Drops every buffered event (rings stay registered). Tests isolate with it.
void ClearTraceForTesting();

// Chrome trace_event JSON of everything buffered, time-sorted. DumpTrace
// returns false if the file cannot be opened.
void DumpTraceTo(std::ostream& os);
bool DumpTrace(const std::string& path);

}  // namespace obs
}  // namespace rita

#endif  // RITA_OBS_TRACE_H_
