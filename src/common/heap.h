// Process heap policy for the data path.
//
// Every RPC on the inline (TCP) path allocates and frees payload-sized
// temporaries: the encoded request and reply, the queued message, the
// engine's staging buffer. With glibc's default thresholds a free() that
// leaves more than a few hundred KiB unused at the top of the heap hands
// that memory back to the kernel, and the next RPC page-faults it in again.
// Whether an op pays those faults depends only on where its buffers land
// relative to the heap top, so the same op cost up to 2x more in some
// rounds of a run than in others. RDMA stacks keep freed memory resident
// for the same reason (Open MPI's leave_pinned mode turns trimming off).
#pragma once

namespace ros2::common {

/// Keeps memory the process frees mapped for reuse: the heap top is never
/// trimmed, and only blocks of 32 MiB or more are mapped on their own (and
/// unmapped when freed). Applied once per process; later calls do nothing.
/// A no-op outside glibc. daos::Cluster::Boot calls it.
void KeepFreedHeapResident();

}  // namespace ros2::common
