// Tests for the per-worker scratch arenas (common/arena.hpp) and the
// per-thread heap-allocation counter (common/alloc_count.hpp) — the two
// pieces behind the engine's zero-allocation steady state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/arena.hpp"

namespace jigsaw {
namespace {

TEST(Arena, ReturnsAlignedDistinctStorage) {
  Arena arena;
  float* a = arena.alloc<float>(100);
  double* b = arena.alloc<double>(50);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % Arena::kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Arena::kAlign, 0u);
  // Writes to one range must not alias the other.
  std::memset(a, 0xAB, 100 * sizeof(float));
  std::memset(b, 0xCD, 50 * sizeof(double));
  EXPECT_EQ(reinterpret_cast<unsigned char*>(a)[0], 0xAB);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(b)[0], 0xCD);
}

TEST(Arena, PointersStayValidAcrossGrowth) {
  // Growth appends blocks; earlier pointers keep their storage. Fill a
  // first allocation, force several growths, then re-check the bytes.
  Arena arena;
  const std::size_t n = Arena::kMinBlockBytes / sizeof(int);
  int* first = arena.alloc<int>(n);
  for (std::size_t i = 0; i < n; ++i) first[i] = static_cast<int>(i);
  for (int g = 0; g < 4; ++g) {
    int* more = arena.alloc<int>(n * 2);
    more[0] = -1;  // touch it
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(first[i], static_cast<int>(i)) << "clobbered at " << i;
  }
}

TEST(Arena, ResetKeepsCapacityAndStopsHeapTraffic) {
  Arena arena;
  arena.alloc<float>(10000);
  arena.alloc<float>(50000);
  const std::size_t capacity = arena.capacity_bytes();
  EXPECT_GT(capacity, 0u);
  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.capacity_bytes(), capacity);

  // Same-shape refills after the warm-up touch the heap zero times.
  const std::uint64_t before = heap_allocation_count();
  for (int iter = 0; iter < 8; ++iter) {
    arena.alloc<float>(10000);
    arena.alloc<float>(50000);
    arena.reset();
  }
  EXPECT_EQ(heap_allocation_count() - before, 0u);
  EXPECT_EQ(arena.capacity_bytes(), capacity);
}

TEST(Arena, OversizedRequestGetsItsOwnBlock) {
  Arena arena;
  const std::size_t huge = 4 * Arena::kMinBlockBytes;
  auto* p = static_cast<unsigned char*>(arena.allocate(huge));
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[huge - 1] = 2;
  EXPECT_GE(arena.capacity_bytes(), huge);
}

TEST(Arena, MarkReleaseRewindsNestedScopes) {
  Arena arena;
  arena.alloc<float>(100);
  const std::size_t outer_used = arena.used_bytes();
  {
    ArenaScope scope(arena);
    scope.alloc<float>(5000);
    EXPECT_GT(arena.used_bytes(), outer_used);
    {
      ArenaScope inner(arena);
      inner.alloc<double>(20000);  // may spill into a new block
    }
  }
  EXPECT_EQ(arena.used_bytes(), outer_used);
  // The rewound storage is reused rather than re-grown.
  const std::size_t capacity = arena.capacity_bytes();
  {
    ArenaScope scope(arena);
    scope.alloc<float>(5000);
    scope.alloc<double>(20000);
  }
  EXPECT_EQ(arena.capacity_bytes(), capacity);
}

TEST(Arena, ThreadScratchArenaIsPerThread) {
  Arena* main_arena = &thread_scratch_arena();
  EXPECT_EQ(main_arena, &thread_scratch_arena());  // stable per thread
  Arena* other_arena = nullptr;
  std::thread t([&] { other_arena = &thread_scratch_arena(); });
  t.join();
  EXPECT_NE(other_arena, nullptr);
  EXPECT_NE(other_arena, main_arena);
}

TEST(Arena, ScopedInstallOverridesAndRestores) {
  Arena* fallback = &thread_scratch_arena();
  Arena mine;
  {
    ScopedArenaInstall install(mine);
    EXPECT_EQ(&thread_scratch_arena(), &mine);
    Arena nested;
    {
      ScopedArenaInstall inner(nested);
      EXPECT_EQ(&thread_scratch_arena(), &nested);
    }
    EXPECT_EQ(&thread_scratch_arena(), &mine);
  }
  EXPECT_EQ(&thread_scratch_arena(), fallback);
}

TEST(AllocCount, CountsOperatorNewMonotonically) {
  const std::uint64_t before = heap_allocation_count();
  {
    // jigsaw-lint: allow(bounded-alloc,hot-path-alloc): n/a in tests
    std::vector<int> v(1000);
    v[999] = 7;
  }
  const std::uint64_t after = heap_allocation_count();
  EXPECT_GE(after - before, 1u);  // the vector's buffer at minimum
  EXPECT_GE(heap_allocation_count(), after);  // never decreases
}

}  // namespace
}  // namespace jigsaw
