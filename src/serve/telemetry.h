// Process memory probe: lifetime peak resident-set size, the CPU substrate's
// stand-in for the paper's PeakMemoryUsage GPU query. The latency ledger
// reports it as `peak_rss_mb`.
#ifndef RITA_SERVE_TELEMETRY_H_
#define RITA_SERVE_TELEMETRY_H_

#include <cstdint>

namespace rita {
namespace serve {

/// Lifetime peak RSS in bytes (getrusage ru_maxrss). 0 when unavailable.
int64_t PeakRssBytes();

}  // namespace serve
}  // namespace rita

#endif  // RITA_SERVE_TELEMETRY_H_
