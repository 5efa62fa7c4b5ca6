// FunctionRegistry: deployed functions, indexed by interned FunctionId. The
// name is resolved once, at Deploy; every later lookup is by id.
#ifndef TRENV_PLATFORM_FUNCTION_REGISTRY_H_
#define TRENV_PLATFORM_FUNCTION_REGISTRY_H_

#include <memory>
#include <vector>

#include "src/common/interner.h"
#include "src/common/status.h"
#include "src/runtime/function_profile.h"

namespace trenv {

class FunctionRegistry {
 public:
  // Interns the function name and stores the profile with its id set.
  // Rejects an empty name and a name already deployed here.
  Status Deploy(FunctionProfile profile);
  // O(1) lookup; nullptr if `id` was never deployed here.
  const FunctionProfile* FindById(FunctionId id) const {
    return id < by_id_.size() ? by_id_[id].get() : nullptr;
  }
  size_t size() const { return size_; }

 private:
  // Indexed by FunctionId (global id space, so the vector may be sparse when
  // several registries coexist). unique_ptr keeps profile addresses stable
  // across growth: in-flight invocations hold them.
  std::vector<std::unique_ptr<const FunctionProfile>> by_id_;
  size_t size_ = 0;
};

}  // namespace trenv

#endif  // TRENV_PLATFORM_FUNCTION_REGISTRY_H_
