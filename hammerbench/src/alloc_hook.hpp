// Allocation counters fed by a replaced global operator new (alloc_hook.cpp),
// linked into the benchmark binary only.
//
// Two scopes:
//   - per thread: always on and contention-free. The layer ledger replays
//     on one thread, so its counts repeat exactly for one seed.
//   - process-wide: off by default (shared atomics would tax every
//     allocation of an untraced run); the traced run switches it on around
//     HammerDriver::run for process.allocs_per_tx.
#pragma once

#include <cstdint>

namespace hammer::bench {

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& o) const { return {allocs - o.allocs, bytes - o.bytes}; }
};

// Allocations made by the calling thread since it started.
AllocCount thread_allocs();

// Allocations made by every thread while process counting was on.
AllocCount process_allocs();
void set_process_counting(bool on);

}  // namespace hammer::bench
