// Per-thread heap-allocation counter.
//
// Linking this TU (any reference to heap_allocation_count() pulls it in)
// replaces the global operator new/delete family with malloc-backed
// versions that bump the calling thread's count per allocation. The
// engine brackets the compute window of Engine::execute with two reads on
// the executing thread and publishes the delta as the
// `jigsaw.engine.submit.allocations` counter; the steady-state regression
// tests assert the delta is zero once the per-worker arenas are warm
// (docs/PERFORMANCE.md).
//
// The count is per thread, so a window measures only its own thread:
// concurrent requests on other workers (or any unrelated thread) never
// leak into it. Allocations made inside the kernel's OpenMP parallel
// bodies run on other threads and are not counted here; those bodies are
// guarded by the `hot-path-alloc` lint rule instead (container
// construction is banned in `jigsaw-lint: hot-path` files).
#pragma once

#include <cstdint>

namespace jigsaw {

/// Number of heap allocations (operator new calls, all forms) performed
/// by the calling thread so far. Monotonic; never reset.
std::uint64_t heap_allocation_count();

}  // namespace jigsaw
