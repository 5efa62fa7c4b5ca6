#include "src/common/interner.h"

namespace trenv {

FunctionId Interner::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) {
    return it->second;
  }
  const FunctionId id = static_cast<FunctionId>(names_.size());
  auto [inserted, _] = index_.emplace(std::string(name), id);
  names_.push_back(&inserted->first);
  return id;
}

FunctionId Interner::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidFunctionId : it->second;
}

std::string_view Interner::NameOf(FunctionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < names_.size() ? std::string_view(*names_[id]) : kUnknownFunctionName;
}

size_t Interner::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

Interner& GlobalFunctionInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

FunctionId InternFunction(std::string_view name) {
  return GlobalFunctionInterner().Intern(name);
}

std::string_view FunctionName(FunctionId id) {
  return GlobalFunctionInterner().NameOf(id);
}

}  // namespace trenv
