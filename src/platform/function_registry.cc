#include "src/platform/function_registry.h"

namespace trenv {

Status FunctionRegistry::Deploy(FunctionProfile profile) {
  if (profile.name.empty()) {
    return Status::InvalidArgument("function needs a name");
  }
  const FunctionId id = InternFunction(profile.name);
  if (FindById(id) != nullptr) {
    return Status::AlreadyExists("function already deployed: " + profile.name);
  }
  profile.id = id;
  if (by_id_.size() <= id) {
    by_id_.resize(id + 1);
  }
  by_id_[id] = std::make_unique<const FunctionProfile>(std::move(profile));
  ++size_;
  return Status::Ok();
}

}  // namespace trenv
