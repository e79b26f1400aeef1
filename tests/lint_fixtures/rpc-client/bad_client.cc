// Seeded violation: a second engine-client stack that dials an engine with
// its own rpc::RpcClient instead of going through DaosClient. Must make
// lint.sh fail with `rpc-client`.
#include <memory>

#include "rpc/data_rpc.h"

namespace ros2::lintfixture {

std::unique_ptr<rpc::RpcClient> Dial(net::Qp* qp, net::Endpoint* ep) {
  return std::make_unique<rpc::RpcClient>(qp, ep, nullptr);
}

}  // namespace ros2::lintfixture
