// Checkpointing: produces FunctionSnapshots, either synthesized from a
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

// Step A1: synthesize the post-initialization snapshot for a function.
FunctionSnapshot Checkpoint(const FunctionProfile& profile);

// Dumps a live process's memory state (used in tests).
ProcessImage CheckpointProcess(const Process& process);

}  // namespace trenv

#endif  // TRENV_CRIU_CHECKPOINTER_H_
