// Byte-size units and page-size constants shared across the simulator.
#ifndef TRENV_COMMON_UNITS_H_
#define TRENV_COMMON_UNITS_H_

#include <cstdint>
#include <string>

namespace trenv {

inline constexpr uint64_t kKiB = 1024;
inline constexpr uint64_t kMiB = 1024 * kKiB;
inline constexpr uint64_t kGiB = 1024 * kMiB;

// The simulated architecture uses 4 KiB base pages, matching x86-64 Linux.
inline constexpr uint64_t kPageSize = 4 * kKiB;
inline constexpr uint64_t kPageShift = 12;
// CXL transfers happen at cache-line granularity.
inline constexpr uint64_t kCacheLineSize = 64;

constexpr uint64_t BytesToPages(uint64_t bytes) {
  return (bytes + kPageSize - 1) / kPageSize;
}

constexpr bool IsPageAligned(uint64_t addr) { return (addr & (kPageSize - 1)) == 0; }

constexpr uint64_t PageAlignDown(uint64_t addr) { return addr & ~(kPageSize - 1); }

constexpr uint64_t PageAlignUp(uint64_t addr) {
  return (addr + kPageSize - 1) & ~(kPageSize - 1);
}

// Renders a byte count as a short human-readable string, e.g. "74.0 MiB".
std::string FormatBytes(uint64_t bytes);

}  // namespace trenv

#endif  // TRENV_COMMON_UNITS_H_
