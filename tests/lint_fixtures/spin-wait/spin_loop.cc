// Seeded violation: a second client wait loop that spins on its own
// instead of waiting through RpcClient's one loop. Must make lint.sh fail
// with `spin-wait`.
#include <atomic>
#include <thread>

namespace ros2::lintfixture {

void WaitForReply(const std::atomic<bool>& done) {
  while (!done.load()) std::this_thread::yield();
}

}  // namespace ros2::lintfixture
