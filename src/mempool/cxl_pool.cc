#include "src/mempool/cxl_pool.h"

namespace trenv {

Status CxlPool::AttachNode(uint32_t node_id) {
  if (attached_.contains(node_id)) {
    return Status::AlreadyExists("node already attached to CXL pool");
  }
  if (attached_.size() >= kPortCount) {
    return Status::ResourceExhausted("all CXL device ports in use");
  }
  attached_.insert(node_id);
  return Status::Ok();
}

Status CxlPool::DetachNode(uint32_t node_id) {
  if (attached_.erase(node_id) == 0) {
    return Status::NotFound("node not attached to CXL pool");
  }
  return Status::Ok();
}

}  // namespace trenv
