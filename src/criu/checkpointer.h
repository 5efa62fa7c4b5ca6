// Checkpointer: produces FunctionSnapshots, either synthesized from a
// FunctionProfile (the offline preprocessing of step A1, with a realistic
// address-space layout) or dumped from a live simulated process.
//
// The synthesized layout is what makes cross-function dedup meaningful:
// functions of the same language share their interpreter/runtime regions
// (identical logical content), all functions share base C libraries, and
// heap/code regions are function-specific.
#ifndef TRENV_CRIU_CHECKPOINTER_H_
#define TRENV_CRIU_CHECKPOINTER_H_

#include <string>

#include "src/criu/process_image.h"
#include "src/runtime/function_profile.h"
#include "src/runtime/process.h"

namespace trenv {

// Fractions of a function's image attributed to each sharing class.
struct ImageLayoutModel {
  double common_libs = 0.10;      // glibc & friends: shared by everything
  double language_runtime = 0.33; // interpreter + stdlib: shared per language
  double function_code = 0.12;    // imports + user code (RO): unique per function
  double data_sections = 0.15;    // .data/.bss, writable private file maps
  double heap = 0.25;             // unique per function
  double stack_misc = 0.05;       // unique per function
};

class Checkpointer {
 public:
  Checkpointer(ImageLayoutModel layout = ImageLayoutModel()) : layout_(layout) {}

  // Step A1: synthesize the post-initialization snapshot for a function.
  FunctionSnapshot Checkpoint(const FunctionProfile& profile) const;

  // Dumps a live process's memory state (used in tests).
  ProcessImage CheckpointProcess(const Process& process) const;

  const ImageLayoutModel& layout() const { return layout_; }

 private:
  ImageLayoutModel layout_;
};

}  // namespace trenv

#endif  // TRENV_CRIU_CHECKPOINTER_H_
