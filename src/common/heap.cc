#include "common/heap.h"

#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace ros2::common {

void KeepFreedHeapResident() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    // Fixing one threshold switches off glibc's dynamic adjustment of
    // both, so both are set. 32 MiB is the largest mmap threshold glibc
    // accepts on 64-bit hosts; -1 (SIZE_MAX) disables trimming.
    (void)mallopt(M_MMAP_THRESHOLD, 32 << 20);
    (void)mallopt(M_TRIM_THRESHOLD, -1);
  });
#endif
}

}  // namespace ros2::common
