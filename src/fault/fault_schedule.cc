#include "src/fault/fault_schedule.h"

namespace trenv {

FaultWindow NodeCrashWindow(SimTime start, SimTime end, double probability, uint32_t node,
                            SimDuration restart_after) {
  FaultWindow w;
  w.domain = FaultDomain::kNodeCrash;
  w.start = start;
  w.end = end;
  w.probability = probability;
  w.target = node;
  w.restart_after = restart_after;
  return w;
}

FaultWindow PoolCrashWindow(SimTime start, SimTime end, double probability, uint32_t pool_node,
                            SimDuration restart_after) {
  FaultWindow w;
  w.domain = FaultDomain::kPoolNodeCrash;
  w.start = start;
  w.end = end;
  w.probability = probability;
  w.target = pool_node;
  w.restart_after = restart_after;
  return w;
}

FaultWindow LinkFaultWindow(FaultDomain domain, SimTime start, SimTime end, double probability,
                            double severity) {
  FaultWindow w;
  w.domain = domain;
  w.start = start;
  w.end = end;
  w.probability = probability;
  w.severity = severity;
  return w;
}

FaultWindow PoolPressureWindow(SimTime start, SimTime end, double cap_scale, uint32_t node) {
  FaultWindow w;
  w.domain = FaultDomain::kPoolPressure;
  w.start = start;
  w.end = end;
  w.probability = 1.0;
  w.target = node;
  w.severity = cap_scale;
  return w;
}

}  // namespace trenv
