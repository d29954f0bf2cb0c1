#include "serve/telemetry.h"

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace rita {
namespace serve {

int64_t PeakRssBytes() {
#if defined(__linux__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<int64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace serve
}  // namespace rita
