// Function-name interning: one FunctionId per function, from the moment a
// name enters the system to the moment it leaves.
//
// Names become ids once, at the boundaries where they enter:
//   * deployment: FunctionRegistry::Deploy, engine Prepare,
//     SandboxPool::RegisterFunctionLayer (and FunctionIdOf for hand-built
//     profiles, which only deploy-time code and direct engine tests hold);
//   * trace generation: the arrival streams, the industry-trace generators
//     and the CSV loader intern each name at construction, and
//     Invocation(SimTime, std::string_view) interns a hand-written one;
//   * PipelineDriver::Run, once per stage.
// From there on, arrivals, submits, dispatch, the registry, keep-alive pool,
// pre-warm policy, sandbox pool, engines and instances carry only the id.
// Ids become names again only where they leave: reports (the name-keyed
// MetricsCollector::per_function() and registry counter names), CSV export,
// error messages and trace annotations.
//
// The interner is process-global and mutex-guarded: interning happens on
// cold paths, so the lock is uncontended in steady state, and a single id
// space means engines, platforms, and pools can never alias two different
// functions under one id — even when parallel sweeps drive many platforms
// concurrently. Ids are dense but their numeric order depends on interning
// order; nothing output-visible may iterate in id order (reporting
// structures stay string-keyed and sorted).
#ifndef TRENV_COMMON_INTERNER_H_
#define TRENV_COMMON_INTERNER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace trenv {

using FunctionId = uint32_t;
inline constexpr FunctionId kInvalidFunctionId = 0xFFFFFFFFu;
// What NameOf prints for an id that was never interned.
inline constexpr std::string_view kUnknownFunctionName = "<unknown function>";

// A string -> dense id table. Thread-safe; ids are assigned in interning
// order and never change or disappear for the lifetime of the interner.
class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  // Returns the id for `name`, assigning the next dense id on first sight.
  FunctionId Intern(std::string_view name);
  // Returns the id for `name` or kInvalidFunctionId if never interned.
  FunctionId Find(std::string_view name) const;
  // The interned string for `id`, or kUnknownFunctionName for an id this
  // table never issued (kInvalidFunctionId included).
  std::string_view NameOf(FunctionId id) const;
  size_t size() const;

 private:
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, FunctionId, StringHash, std::equal_to<>> index_;
  // Pointers into index_ keys: stable for the table's lifetime.
  std::vector<const std::string*> names_;
};

// The process-wide function-name id space.
Interner& GlobalFunctionInterner();

// Convenience wrappers over the global interner.
FunctionId InternFunction(std::string_view name);
std::string_view FunctionName(FunctionId id);

}  // namespace trenv

#endif  // TRENV_COMMON_INTERNER_H_
