// Calibrated cost constants for the TrEnv simulation.
//
// Every latency/bandwidth constant the simulator uses lives here, annotated
// with the paper section or figure it was calibrated against. Benchmarks and
// the kernel/sandbox models consume these so that a single edit re-calibrates
// the whole system.
#ifndef TRENV_COMMON_COST_MODEL_H_
#define TRENV_COMMON_COST_MODEL_H_

#include "src/common/time.h"
#include "src/common/units.h"

namespace trenv {
namespace cost {

// ---------------------------------------------------------------------------
// Sandbox component creation (paper Table 1, Fig 4, section 4.1).
// ---------------------------------------------------------------------------

// Network namespace + veth pair. 80 ms in the uncontended case; under
// concurrent cold starts the kernel's global locks inflate this badly (the
// paper observes 400 ms at 15-way concurrency and up to 10 s in the worst
// case, section 3.3). Modelled as base + per-concurrent-creation penalty.
inline constexpr SimDuration kNetNsCreateBase = SimDuration::Millis(80);
inline constexpr SimDuration kNetNsCreatePerConcurrent = SimDuration::FromMillisF(23.0);
// Resetting a pooled netns (flush conntrack entries, close sockets) is cheap.
inline constexpr SimDuration kNetNsReset = SimDuration::FromMicrosF(120.0);

// Rootfs: mount namespace plus >9 mounts / 6 mknod / pivot_root (section
// 5.2.1). 10-800 ms in Table 1; concurrency pressure comes from superblock
// locks. TrEnv's reconfiguration needs only 2 mounts.
inline constexpr SimDuration kRootfsCreateBase = SimDuration::Millis(30);
inline constexpr SimDuration kRootfsCreatePerConcurrent = SimDuration::FromMillisF(8.0);
inline constexpr SimDuration kMountSyscall = SimDuration::FromMicrosF(180.0);
inline constexpr SimDuration kUmountSyscall = SimDuration::FromMicrosF(150.0);
inline constexpr SimDuration kMknodSyscall = SimDuration::FromMicrosF(60.0);
inline constexpr SimDuration kPivotRootSyscall = SimDuration::FromMicrosF(200.0);
// Remount of an overlayfs to flush stale inode caches during purge.
inline constexpr SimDuration kOverlayRemount = SimDuration::FromMicrosF(250.0);
// Deleting one file from the overlay upper dir during cleansing.
inline constexpr SimDuration kUpperDirDeletePerFile = SimDuration::FromMicrosF(12.0);

// Cgroup: creation 16-32 ms; migration 10-50 ms dominated by two global
// rw-semaphores and an RCU grace period (section 5.2.2, Fig 14).
inline constexpr SimDuration kCgroupCreateBase = SimDuration::Millis(16);
inline constexpr SimDuration kCgroupCreateMax = SimDuration::Millis(32);
inline constexpr SimDuration kCgroupMigrateBase = SimDuration::Millis(10);
inline constexpr SimDuration kCgroupMigratePerConcurrent = SimDuration::FromMillisF(2.5);
inline constexpr SimDuration kCgroupMigrateMax = SimDuration::Millis(50);
// CLONE_INTO_CGROUP bypasses the migration path entirely: 100-300 us.
inline constexpr SimDuration kCloneIntoCgroupMin = SimDuration::FromMicrosF(100.0);
inline constexpr SimDuration kCloneIntoCgroupMax = SimDuration::FromMicrosF(300.0);
// Re-applying limits to a pooled cgroup (writes to cgroupfs files).
inline constexpr SimDuration kCgroupReconfigure = SimDuration::FromMicrosF(80.0);

// Remaining namespaces (pid, uts, ipc, time): < 1 ms in Table 1.
inline constexpr SimDuration kMiscNamespaces = SimDuration::FromMicrosF(700.0);

// Killing and reaping one process during sandbox cleansing (step B1).
inline constexpr SimDuration kProcessKill = SimDuration::FromMicrosF(450.0);

// ---------------------------------------------------------------------------
// Process restore (CRIU; paper Table 1, Fig 4, section 7).
// ---------------------------------------------------------------------------

// Copy bandwidth of CRIU's memory restoration from a DRAM/CXL tmpfs snapshot:
// the paper measures ~60 ms for a 60 MiB image and >220 ms for 360 MiB, i.e.
// roughly 1 GiB/s end to end including page-table churn.
inline constexpr double kCriuMemCopyBytesPerSec = 1.0 * static_cast<double>(kGiB);
// Each restored VMA costs one mmap() replay.
inline constexpr SimDuration kMmapSyscall = SimDuration::FromMicrosF(2.2);
// Non-memory process state (fds, sockets, registers): 3-15 ms (Table 1),
// scaling with thread count; clone() per extra thread.
inline constexpr SimDuration kCriuMiscRestoreBase = SimDuration::Millis(3);
inline constexpr SimDuration kCriuPerThreadClone = SimDuration::FromMicrosF(85.0);
inline constexpr SimDuration kCriuPerOpenFd = SimDuration::FromMicrosF(15.0);
// Issuing the "repurpose" request and joining existing namespaces (step B3).
inline constexpr SimDuration kCriuRepurposeRequest = SimDuration::FromMicrosF(900.0);

// mm-template attach: copies only metadata (page-table runs + VMA records).
// ~400 KiB of metadata for a 70 MiB image (section 9.4) copied at memcpy
// speed, plus one ioctl round trip.
inline constexpr double kMmtMetadataBytesPerPage = 22.0;
inline constexpr double kMmtAttachCopyBytesPerSec = 6.0 * static_cast<double>(kGiB);
inline constexpr SimDuration kMmtIoctl = SimDuration::FromMicrosF(25.0);
// Setting up one PTE run during preprocessing (offline, not critical path).
inline constexpr SimDuration kMmtSetupPtPerRun = SimDuration::FromMicrosF(3.0);

// Function bootstrap from scratch (interpreter launch + imports) is profiled
// per function; this is only the floor for a trivial handler.
inline constexpr SimDuration kBootstrapFloor = SimDuration::Millis(120);

// ---------------------------------------------------------------------------
// Memory fabrics (sections 3.1, 9.1, 9.5).
// ---------------------------------------------------------------------------

// CXL load latency. The testbed table reports "641.1" for CXL (the unit in
// the paper text is a typo; real CXL 2.0 device loads are in the hundreds of
// nanoseconds, consistent with the cited measurements) - we use 641 ns.
inline constexpr SimDuration kCxlLoadLatency = SimDuration::Nanos(641);
inline constexpr SimDuration kLocalDramLatency = SimDuration::Nanos(95);
inline constexpr double kCxlBandwidthBytesPerSec = 22.0 * static_cast<double>(kGiB);
// Execution-time inflation for running with hot data on CXL instead of DRAM:
// the paper reports ~2x for very short memory-bound functions (DH, IR) and
// ~10% on average for the rest (section 9.2.1). The model scales between
// these with the function's memory-bound fraction.
inline constexpr double kCxlExecSlowdownPerMemBoundFraction = 1.0;

// RDMA: 6 us one-sided read for a 4 KiB page, plus heavy-tail behaviour under
// load (section 9.5: P99 cliffs of up to ~5x during bursts; extra CPU usage
// of ~1.24x vs CXL).
inline constexpr SimDuration kRdmaPageFetchBase = SimDuration::Micros(6);
// Sequential demand faults benefit from limited readahead on the RDMA
// backend (multi-page fetches), amortizing the round trip but staying far
// from fully-pipelined bandwidth.
inline constexpr double kRdmaReadaheadFactor = 0.4;  // per-page cost vs a lone fault
inline constexpr double kRdmaLoadLatencyFactor = 0.18;   // per concurrent stream
inline constexpr uint32_t kRdmaLoadFreeStreams = 4;      // contention-free streams
inline constexpr double kRdmaTailSigma = 0.55;           // lognormal sigma for jitter
inline constexpr SimDuration kRdmaPerFetchCpu = SimDuration::FromMicrosF(1.6);
// Planned bulk reads (working-set prefetch) post the whole scatter list as
// large pipelined one-sided reads, so the per-page cost approaches line rate
// (~8.5 GB/s on the 100 Gb fabric) instead of the fault-driven readahead
// factor above. Each extra run in the scatter list costs one descriptor.
inline constexpr double kRdmaBulkStreamFactor = 0.08;  // per-page cost vs a lone fault
inline constexpr SimDuration kBulkFetchPerRun = SimDuration::FromMicrosF(0.5);

// NAS / network-attached storage tier: block I/O, ~60 us per 4 KiB.
inline constexpr SimDuration kNasPageFetchBase = SimDuration::Micros(60);

// Fetch-path retry under injected faults (src/fault/retry_policy.h,
// docs/fault_injection.md). Attempts per fetch include the first; after the
// last one the fetch is served fail-open. A failed attempt is declared dead
// after the timeout, and retry k sleeps the initial backoff times the
// multiplier^(k-1), capped. Retrying stops once timeouts and backoffs reach
// the deadline.
inline constexpr uint32_t kRetryMaxAttempts = 4;
inline constexpr SimDuration kRetryAttemptTimeout = SimDuration::Micros(500);
inline constexpr SimDuration kRetryInitialBackoff = SimDuration::Micros(200);
inline constexpr int64_t kRetryBackoffMultiplier = 2;
inline constexpr SimDuration kRetryMaxBackoff = SimDuration::Millis(10);
inline constexpr SimDuration kRetryDeadline = SimDuration::Millis(50);

// Capacity of a rack's shared CXL device and of its pool-side RDMA fabric.
inline constexpr uint64_t kRackCxlPoolBytes = 512 * kGiB;  // the 7.5 TB-class MHD, scaled down

// ---------------------------------------------------------------------------
// Pool control plane (src/poolmgr, src/poolctl; docs/control_plane.md).
// ---------------------------------------------------------------------------

// Attach metadata: lease table update + template descriptor copy per shard.
inline constexpr SimDuration kPoolAttachMetadataBase = SimDuration::FromMicrosF(25.0);
inline constexpr SimDuration kPoolAttachMetadataPerShard = SimDuration::FromMicrosF(2.0);
// NIC fan-in (incast) latency penalty per concurrent source beyond the first.
inline constexpr double kNicIncastPenalty = 0.04;
// A read to a down-but-undeclared replica times out before failing over.
inline constexpr SimDuration kDeadReadTimeout = SimDuration::FromMicrosF(200.0);
// NAS fallback for cold attaches no replica serves or admission sheds.
inline constexpr SimDuration kNasFallbackBase = SimDuration::FromMicrosF(400.0);
inline constexpr SimDuration kNasFallbackPerPage = SimDuration::FromMicrosF(1.2);

// ---------------------------------------------------------------------------
// Shared state and stateful pipelines (src/shstate, fig27).
// ---------------------------------------------------------------------------

// Region window map, ownership move, and per-reader invalidation costs.
inline constexpr SimDuration kShStateMapMetadata = SimDuration::FromMicrosF(15.0);
inline constexpr SimDuration kShStateOwnershipTransfer = SimDuration::FromMicrosF(20.0);
inline constexpr SimDuration kShStateInvalidatePerReader = SimDuration::FromMicrosF(8.0);
// Inter-pool-node link of cross-home ownership transfers (bytes/s).
inline constexpr double kPoolToPoolBytesPerSec = 12.0 * 1e9;
// Pipeline baselines: copy-through-worker (NIC) and NAS round-trip edge
// bandwidths (bytes/s), and the per-edge control cost both charge.
inline constexpr double kPipelineWorkerCopyBytesPerSec = 10.0 * 1e9;
inline constexpr double kPipelineNasBytesPerSec = 1.0 * 1e9;
inline constexpr SimDuration kPipelineHandoffMetadata = SimDuration::FromMicrosF(15.0);

// ---------------------------------------------------------------------------
// Page faults (sections 3.3, 5.1, 9.2.2).
// ---------------------------------------------------------------------------

// Kernel minor fault (zero-fill or mapping already resident).
inline constexpr SimDuration kMinorFault = SimDuration::FromMicrosF(0.9);
// Copy-on-write fault: fault entry/exit plus a 4 KiB copy.
inline constexpr SimDuration kCowFault = SimDuration::FromMicrosF(2.6);
// userfaultfd round trip to a userspace pager (REAP/FaaSnap lazy restore):
// "several microseconds ... even when snapshots are on a CXL-backed tmpfs".
inline constexpr SimDuration kUserfaultfdFault = SimDuration::FromMicrosF(5.5);
// Fault-path cost of a major fault before the backend fetch is added.
inline constexpr SimDuration kMajorFaultEntry = SimDuration::FromMicrosF(1.8);

// ---------------------------------------------------------------------------
// MicroVM / hypervisor (sections 6, 9.6, Fig 23).
// ---------------------------------------------------------------------------

// Vanilla Cloud Hypervisor restore performs a full guest-memory copy: >700 ms
// for the 2 GiB Blackjack guest (Fig 23) => ~2.7 GiB/s effective copy rate.
inline constexpr double kVmMemCopyBytesPerSec = 2.7 * static_cast<double>(kGiB);
// VMM process spawn + KVM vm/vcpu setup.
inline constexpr SimDuration kVmmSpawn = SimDuration::Millis(28);
inline constexpr SimDuration kVmDeviceSetupPerDevice = SimDuration::FromMillisF(3.5);
// E2B's observed startup components (section 9.6.1): ~97 ms network setup and
// ~63 ms cgroup migration.
inline constexpr SimDuration kE2bNetworkSetup = SimDuration::Millis(97);
inline constexpr SimDuration kE2bCgroupMigration = SimDuration::Millis(63);
// Restoring VM memory by mmap of a DAX device / image file (TrEnv CH patch):
// a single syscall-ish cost, pages populated lazily afterwards.
inline constexpr SimDuration kVmMmapRestore = SimDuration::FromMillisF(2.0);
// Two-dimensional (EPT) page fault costs in the guest.
inline constexpr SimDuration kEptViolation = SimDuration::FromMicrosF(4.0);

// Guest boot (kernel + init) when no snapshot is used at all.
inline constexpr SimDuration kGuestColdBoot = SimDuration::Millis(650);

// Loading VM snapshot metadata (device state, vCPU registers) sans memory.
inline constexpr SimDuration kVmSnapshotLoad = SimDuration::FromMillisF(4.0);
// Guest userspace wake-up after resume: vsock/network re-handshake with the
// agent server inside the guest. Common to every system.
inline constexpr SimDuration kVmGuestResume = SimDuration::Millis(120);
// Firecracker/E2B snapshot resume: mmap of the memory file plus touching the
// eager set.
inline constexpr SimDuration kE2bSnapshotMemResume = SimDuration::Millis(34);
// Extra DAX/virtiofs mapping setup for the RunD rootfs scheme (E2B+).
inline constexpr SimDuration kRundRootfsMapSetup = SimDuration::Millis(24);
// Fixed local-memory overhead of a microVM instance: guest kernel, VMM
// process, device buffers.
inline constexpr uint64_t kVmGuestOverheadBytes = 80 * kMiB;
// FaaSnap's asynchronous prefetch policy: fraction of the recorded working
// set loaded eagerly at restore, and the fraction of post-restore fault
// latency its overlap hides relative to REAP.
inline constexpr double kFaasnapEagerFraction = 0.4;
inline constexpr double kFaasnapHiddenFraction = 0.65;

// ---------------------------------------------------------------------------
// Billing (section 2.3).
// ---------------------------------------------------------------------------

// AWS Lambda: $1.67e-8 per ms per GB.
inline constexpr double kServerlessUsdPerMsPerGb = 1.67e-8;
// 2025 frontier-efficient LLM pricing: $0.5 / 1M input, $2 / 1M output
// (the efficient-model price class the paper's cost analysis assumes). With
// these prices and the Table 2/3 measurements, the serverless share of an
// agent's cost peaks at the paper's "up to 71%" (Fig 3).
inline constexpr double kLlmUsdPerInputToken = 0.5e-6;
inline constexpr double kLlmUsdPerOutputToken = 2.0e-6;

// ---------------------------------------------------------------------------
// Platform policy defaults (section 9.1).
// ---------------------------------------------------------------------------

inline constexpr SimDuration kKeepAliveTtl = SimDuration::Minutes(10);
inline constexpr double kNodeCores = 64;  // dual 32-core Xeon Gold 6454S
inline constexpr uint64_t kNodeDramBytes = 256 * kGiB;
inline constexpr uint64_t kDefaultSoftMemCap = 64 * kGiB;
inline constexpr uint64_t kW2SoftMemCap = 32 * kGiB;
// Floor for injected soft-mem-cap pressure scales: a scale below this would
// shrink the cap to (near) zero and flush the entire keep-alive pool on the
// next enforcement pass, turning a transient pressure *window* into a cold
// restart of the whole node. 1% of the configured cap keeps eviction
// aggressive under the worst injected pressure while leaving the hottest
// instances parked.
inline constexpr double kSoftMemCapScaleFloor = 0.01;

// ---------------------------------------------------------------------------
// Rack failover (docs/fault_injection.md).
// ---------------------------------------------------------------------------

// Health-check lag before the dispatcher re-dispatches a dead node's work.
inline constexpr SimDuration kFailoverDetectionLatency = SimDuration::Millis(50);

}  // namespace cost
}  // namespace trenv

#endif  // TRENV_COMMON_COST_MODEL_H_
