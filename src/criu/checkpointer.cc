#include "src/criu/checkpointer.h"

#include <algorithm>

#include "src/common/rng.h"

namespace trenv {

namespace {

// Fractions of a function's image attributed to each sharing class.
constexpr double kCommonLibs = 0.10;      // glibc & friends: shared by everything
constexpr double kLanguageRuntime = 0.33; // interpreter + stdlib: shared per language
constexpr double kFunctionCode = 0.12;    // imports + user code (RO): unique per function
constexpr double kDataSections = 0.15;    // .data/.bss, writable private file maps
constexpr double kHeap = 0.25;            // unique per function
constexpr double kStackMisc = 0.05;       // unique per function

// Stable 64-bit FNV-1a so snapshots are identical across runs and builds.
uint64_t HashName(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Content bases are spaced far apart so distinct progressions never collide.
PageContent ContentBaseFor(const std::string& tag) {
  return MixU64(HashName(tag)) | (1ULL << 63);  // keep clear of small literals
}

MemoryRegion MakeRegion(Vaddr start, uint64_t npages, Protection prot, VmaType type,
                        std::string name, PageContent content_base) {
  MemoryRegion region;
  region.start = start;
  region.npages = npages;
  region.prot = prot;
  region.type = type;
  region.name = std::move(name);
  region.content_base = content_base;
  return region;
}

}  // namespace

FunctionSnapshot Checkpoint(const FunctionProfile& profile) {
  FunctionSnapshot snapshot;
  snapshot.function = profile.name;
  // Function-specific regions key their content off the software identity:
  // profiles sharing a content_tag produce byte-identical images (and the
  // dedup store collapses them); distinct tags produce distinct pages.
  const std::string& tag = profile.content_tag.empty() ? profile.name : profile.content_tag;

  const uint64_t total_pages = profile.ImagePages();
  auto share = [&](double fraction) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(fraction * static_cast<double>(total_pages)));
  };

  ProcessImage image;
  image.process_name = profile.name + "-main";
  image.threads = profile.threads;
  image.open_fds = profile.open_fds;

  // Layout mirrors a real interpreter process. Shared classes use content
  // bases derived from what they contain, so identical software maps to
  // identical logical content across functions and across nodes.
  Vaddr cursor = 0x7f0000000000;
  const uint64_t libs = share(kCommonLibs);
  image.regions.push_back(MakeRegion(cursor, libs, Protection::ReadExec(), VmaType::kFileBacked,
                                     "libc+base-libs", ContentBaseFor("common-libs")));
  cursor += PageAlignUp(libs * kPageSize) + kPageSize;

  const uint64_t runtime = share(kLanguageRuntime);
  image.regions.push_back(MakeRegion(cursor, runtime, Protection::ReadExec(),
                                     VmaType::kFileBacked, profile.language + "-runtime",
                                     ContentBaseFor("runtime-" + profile.language)));
  cursor += PageAlignUp(runtime * kPageSize) + kPageSize;

  const uint64_t code = share(kFunctionCode);
  image.regions.push_back(MakeRegion(cursor, code, Protection::ReadOnly(), VmaType::kFileBacked,
                                     "imports+user-code", ContentBaseFor("code-" + tag)));
  cursor += PageAlignUp(code * kPageSize) + kPageSize;

  const uint64_t data = share(kDataSections);
  image.regions.push_back(MakeRegion(cursor, data, Protection::ReadWrite(),
                                     VmaType::kFileBacked, ".data+.bss",
                                     ContentBaseFor("data-" + tag)));

  const uint64_t heap = share(kHeap);
  image.regions.push_back(MakeRegion(0x555500000000, heap, Protection::ReadWrite(),
                                     VmaType::kAnonymous, "[heap]",
                                     ContentBaseFor("heap-" + tag)));

  const uint64_t stack = share(kStackMisc);
  image.regions.push_back(MakeRegion(0x7ffc00000000, stack, Protection::ReadWrite(),
                                     VmaType::kAnonymous, "[stack]",
                                     ContentBaseFor("stack-" + tag)));

  snapshot.processes.push_back(std::move(image));

  // Helper processes (multi-process functions): small per-process images.
  for (uint32_t p = 1; p < profile.processes; ++p) {
    ProcessImage helper;
    helper.process_name = profile.name + "-helper" + std::to_string(p);
    helper.threads = 2;
    helper.open_fds = 8;
    helper.regions.push_back(MakeRegion(0x7f0000000000, share(kCommonLibs),
                                        Protection::ReadExec(), VmaType::kFileBacked,
                                        "libc+base-libs", ContentBaseFor("common-libs")));
    helper.regions.push_back(
        MakeRegion(0x555500000000, std::max<uint64_t>(1, share(kHeap) / 8),
                   Protection::ReadWrite(), VmaType::kAnonymous, "[heap]",
                   ContentBaseFor("heap-" + tag + "-p" + std::to_string(p))));
    snapshot.processes.push_back(std::move(helper));
  }
  return snapshot;
}

ProcessImage CheckpointProcess(const Process& process) {
  ProcessImage image;
  image.process_name = process.name();
  image.threads = process.threads();
  image.open_fds = process.open_fds();
  const MmStruct& mm = process.mm();
  for (const auto& [start, vma] : mm.vmas()) {
    // Dump each mapped run as one region; unmapped holes are skipped (CRIU
    // does not dump never-touched pages).
    mm.page_table().ForEachRunIn(AddrToVpn(vma.start), vma.npages(),
                                 [&](Vpn vpn, const PteRun& run) {
                                   MemoryRegion region;
                                   region.start = VpnToAddr(vpn);
                                   region.npages = run.npages;
                                   region.prot = vma.prot;
                                   region.is_private = vma.is_private;
                                   region.type = vma.type;
                                   region.name = vma.name;
                                   region.content_base = run.content_base;
                                   region.constant_content = run.constant_content;
                                   image.regions.push_back(std::move(region));
                                 });
  }
  return image;
}

}  // namespace trenv
