// FaultHandler: resolves memory accesses against an MmStruct, implementing
// the paper's PTE state machine (section 5.1):
//
//   read  of valid local page            -> direct local load
//   read  of valid WP CXL page           -> direct remote load, NO fault
//   write of valid WP page               -> CoW fault: copy to local frame
//   touch of invalid remote (RDMA/NAS)   -> major fault: fetch 4 KiB, map local
//   touch of unpopulated anonymous page  -> minor fault: zero-fill local
//
// Shared-region extensions (src/shstate/, gated on PteFlags::shared so the
// classic states above are untouched):
//   write of shared owner page (!wp)     -> direct remote store, marks dirty
//   write of shared reader page (wp)     -> refused: needs ownership upgrade
//                                           (never CoW — a private copy would
//                                           silently fork the shared data)
//
// One implementation serves every entry point: the run loop behind
// AccessRange processes whole PTE runs at once, so the platform can model
// multi-GiB working sets in O(runs), and the single-page Access is that same
// loop over a one-page range.
#ifndef TRENV_SIMKERNEL_FAULT_HANDLER_H_
#define TRENV_SIMKERNEL_FAULT_HANDLER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/mempool/backend.h"
#include "src/obs/registry.h"
#include "src/simkernel/frame_allocator.h"
#include "src/simkernel/mm_struct.h"

namespace trenv {

enum class AccessKind : uint8_t {
  kDirectLocal,
  kDirectRemote,
  kMinorFault,
  kMajorFault,
  kCowFault,
};

struct AccessOutcome {
  AccessKind kind;
  SimDuration latency;
  PageContent content = kZeroPageContent;  // content observed by a read
};

// Observes page touches as accesses resolve. The TrEnv working-set recorder
// hooks this during a function's first invocation to capture its access
// footprint — every touched page, whatever its PTE state, since the same
// profile drives both remote prefetch (which filters to lazy runs at plan
// time) and promotion heat (where direct CXL reads matter most). A null
// observer costs one branch per access run.
class PageTouchObserver {
 public:
  virtual ~PageTouchObserver() = default;
  // `npages` pages starting at `vpn` in `mm` were just touched (as one run).
  virtual void OnTouch(const MmStruct& mm, Vpn vpn, uint64_t npages) = 0;
};

// Aggregate result of touching a page range.
struct BulkAccessStats {
  uint64_t pages = 0;
  uint64_t direct_local = 0;
  uint64_t direct_remote = 0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
  uint64_t cow_faults = 0;
  uint64_t bytes_fetched = 0;
  uint64_t new_local_pages = 0;
  SimDuration latency;      // wall latency of the touches
  SimDuration fetch_cpu;    // host CPU burned by fetch completions

  void MergeFrom(const BulkAccessStats& other);
};

class FaultHandler {
 public:
  // `stats` (optional) receives per-kind fault/fetch counters under the
  // "faults." / "fetch." / "reads." prefixes. `observer` (optional) is
  // notified of every touched page run (working-set recording).
  FaultHandler(FrameAllocator* frames, const BackendRegistry* backends,
               obs::Registry* stats = nullptr, PageTouchObserver* observer = nullptr);

  // True when the handler was constructed over exactly these three.
  bool BoundTo(const FrameAllocator* frames, const BackendRegistry* backends,
               const obs::Registry* stats) const {
    return frames_ == frames && backends_ == backends && stats_ == stats;
  }

  // Returns the handler to the state a newly constructed one has (the first
  // write seed, `observer` notified of touches) while keeping its bindings,
  // cached counters and scratch buffer, so a long-lived handler can serve
  // many independent access sequences without per-sequence setup.
  void Restart(PageTouchObserver* observer) {
    observer_ = observer;
    write_seed_ = kFirstWriteSeed;
  }

  // Touches one page. `write` requests write access. new_content is the
  // content a write stores (ignored for reads). Unlike a bulk touch, the
  // outcome's latency includes the load itself on a direct access: local
  // DRAM, or the backend's direct-load latency for a CXL read or an owner's
  // write-through.
  Result<AccessOutcome> Access(MmStruct& mm, Vaddr addr, bool write,
                               PageContent new_content = kZeroPageContent);

  Result<PageContent> ReadPage(MmStruct& mm, Vaddr addr);
  Status WritePage(MmStruct& mm, Vaddr addr, PageContent content);

  // Touches [addr, addr + npages * kPageSize). Each written run stores fresh
  // content (modelling in-place updates). Direct loads are charged no latency
  // here: the execution model accounts the slowdown in aggregate. An address
  // outside every VMA is kPermissionDenied (a segfault), as is a read of a
  // non-readable or a write of a non-writable VMA; a range that leaves its
  // VMA is kInvalidArgument.
  Result<BulkAccessStats> AccessRange(MmStruct& mm, Vaddr addr, uint64_t npages, bool write);

 private:
  struct Segment {
    Vpn vpn;
    PteRun run;
  };

  // The PTE state machine behind every entry point. `next_content()` yields
  // the content each written run stores; it is a template parameter so the
  // bulk path's choice costs nothing per run.
  template <typename NextContent>
  Result<BulkAccessStats> Touch(MmStruct& mm, Vaddr addr, uint64_t npages, bool write,
                                NextContent next_content);

  // Applies a BulkAccessStats delta to the bound counters (no-op unbound).
  // Zero deltas are skipped: adding 0 to a counter changes nothing.
  void Count(const BulkAccessStats& stats);

  static constexpr uint64_t kFirstWriteSeed = 0x57a7e;

  FrameAllocator* frames_;
  const BackendRegistry* backends_;
  obs::Registry* stats_;
  PageTouchObserver* observer_ = nullptr;
  uint64_t write_seed_ = kFirstWriteSeed;  // distinguishes freshly written content
  // Scratch for AccessRange's run snapshot, reused across calls so bulk
  // accesses don't allocate once the buffer has grown to the working size.
  std::vector<Segment> segments_scratch_;
  // Telemetry counters, created and cached at construction so the hot path
  // pays one add per nonzero delta and exports list all six from the start.
  obs::Counter* minor_ = nullptr;
  obs::Counter* major_ = nullptr;
  obs::Counter* cow_ = nullptr;
  obs::Counter* fetched_bytes_ = nullptr;
  obs::Counter* direct_remote_ = nullptr;
  obs::Counter* direct_local_ = nullptr;
};

}  // namespace trenv

#endif  // TRENV_SIMKERNEL_FAULT_HANDLER_H_
