#include "src/util/fiber.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cfenv>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace lupine {
namespace {

TEST(FiberTest, RunsToCompletion) {
  int x = 0;
  Fiber fiber([&] { x = 42; });
  EXPECT_FALSE(fiber.finished());
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(x, 42);
}

TEST(FiberTest, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber fiber([&] {
    order.push_back(1);
    Fiber::Yield();
    order.push_back(3);
    Fiber::Yield();
    order.push_back(5);
  });
  fiber.Resume();
  order.push_back(2);
  fiber.Resume();
  order.push_back(4);
  EXPECT_FALSE(fiber.finished());
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FiberTest, CurrentTracksRunningFiber) {
  EXPECT_EQ(Fiber::Current(), nullptr);
  Fiber* seen = nullptr;
  Fiber fiber([&] { seen = Fiber::Current(); });
  fiber.Resume();
  EXPECT_EQ(seen, &fiber);
  EXPECT_EQ(Fiber::Current(), nullptr);
}

TEST(FiberTest, NestedFibers) {
  std::vector<int> order;
  Fiber inner([&] {
    order.push_back(2);
    Fiber::Yield();
    order.push_back(4);
  });
  Fiber outer([&] {
    order.push_back(1);
    inner.Resume();
    order.push_back(3);
    inner.Resume();
    order.push_back(5);
  });
  outer.Resume();
  EXPECT_TRUE(outer.finished());
  EXPECT_TRUE(inner.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FiberTest, ManyFibersInterleave) {
  constexpr int kFibers = 100;
  int counter = 0;
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&] {
      ++counter;
      Fiber::Yield();
      ++counter;
    }));
  }
  for (auto& f : fibers) {
    f->Resume();
  }
  EXPECT_EQ(counter, kFibers);
  for (auto& f : fibers) {
    f->Resume();
  }
  EXPECT_EQ(counter, 2 * kFibers);
  for (auto& f : fibers) {
    EXPECT_TRUE(f->finished());
  }
}

TEST(FiberTest, StackLocalStatePersistsAcrossYields) {
  int out = 0;
  Fiber fiber([&] {
    int local = 7;
    Fiber::Yield();
    local += 10;
    Fiber::Yield();
    out = local;
  });
  fiber.Resume();
  fiber.Resume();
  fiber.Resume();
  EXPECT_EQ(out, 17);
}

// Recurses until `limit`; the volatile buffer keeps every frame on the stack
// and the addition after the call rules out a tail call.
int Recurse(int depth, int limit) {
  volatile char pad[256];
  pad[depth % 256] = static_cast<char>(depth);
  if (depth >= limit) {
    return pad[0];
  }
  return Recurse(depth + 1, limit) + pad[depth % 256];
}

// An address near the top of the overflowing fiber's stack, and the SIGSEGV
// handler (run on an alternate stack) that reports whether the fault landed
// on the guard page just below the stack's lowest usable byte.
uintptr_t g_overflow_stack_top = 0;

void ReportOverflowFault(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<uintptr_t>(info->si_addr);
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  // g_overflow_stack_top sits less than a page below the stack's
  // page-aligned top.
  const uintptr_t top = (g_overflow_stack_top + page - 1) / page * page;
  const uintptr_t lowest = top - Fiber::kDefaultStackSize;
  const bool on_guard = addr >= lowest - page && addr < lowest;
  const char* message = on_guard ? "fault on the guard page\n" : "fault elsewhere\n";
  (void)!write(STDERR_FILENO, message, strlen(message));
  _exit(on_guard ? 3 : 4);
}

TEST(FiberDeathTest, StackOverflowHitsTheGuardPage) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        static char alt_stack[64 * 1024];
        stack_t ss = {};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof(alt_stack);
        sigaltstack(&ss, nullptr);
        struct sigaction action = {};
        action.sa_sigaction = ReportOverflowFault;
        action.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &action, nullptr);
        // Far deeper than a 256 KiB stack holds.
        volatile int limit = 1 << 30;
        Fiber fiber([&limit] {
          // The frame address, not a local's: under ASan's use-after-return
          // mode addressable locals live off the real stack.
          g_overflow_stack_top = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
          (void)Recurse(0, limit);
        });
        fiber.Resume();
      },
      testing::ExitedWithCode(3), "fault on the guard page");
}

TEST(FiberTest, RoundingModeStaysWithItsFiber) {
  const int outer = std::fegetround();
  ASSERT_NE(outer, FE_UPWARD);
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;
  int sibling_mode = -1;
  int mode_after_yield = -1;
  double quotient_after_yield = 0.0;
  Fiber upward([&] {
    std::fesetround(FE_UPWARD);
    Fiber::Yield();
    mode_after_yield = std::fegetround();        // x87 control word
    quotient_after_yield = one / three;          // SSE: MXCSR
  });
  Fiber sibling([&] { sibling_mode = std::fegetround(); });

  upward.Resume();
  EXPECT_EQ(std::fegetround(), outer);
  EXPECT_EQ(one / three, nearest);
  sibling.Resume();
  EXPECT_EQ(sibling_mode, outer);
  upward.Resume();
  EXPECT_EQ(mode_after_yield, FE_UPWARD);
  EXPECT_GT(quotient_after_yield, nearest);
  EXPECT_EQ(std::fegetround(), outer);
  EXPECT_EQ(one / three, nearest);
}

void ThrowAfterYield(const std::string& what) {
  Fiber::Yield();
  throw std::runtime_error(what);
}

TEST(FiberTest, ExceptionThrownAndCaughtAcrossYield) {
  std::string caught;
  Fiber fiber([&] {
    try {
      ThrowAfterYield("thrown in the fiber");
    } catch (const std::runtime_error& error) {
      caught = error.what();
    }
    Fiber::Yield();
  });
  fiber.Resume();
  EXPECT_TRUE(caught.empty());
  // The resumer's own throw/catch in between must not disturb the fiber's.
  try {
    throw std::logic_error("thrown by the resumer");
  } catch (const std::logic_error&) {
  }
  fiber.Resume();
  EXPECT_EQ(caught, "thrown in the fiber");
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
}

TEST(FiberTest, UnresumedFiberMapsNoStack) {
  const Fiber::StackCounts before = Fiber::Stacks();
  {
    Fiber fiber([] {});
    const Fiber::StackCounts held = Fiber::Stacks();
    EXPECT_EQ(held.mapped, before.mapped);
    EXPECT_EQ(held.pooled, before.pooled);
  }
  const Fiber::StackCounts after = Fiber::Stacks();
  EXPECT_EQ(after.mapped, before.mapped);
  EXPECT_EQ(after.pooled, before.pooled);
}

TEST(FiberTest, CreateRunDestroyCyclesReusePooledStacks) {
  {
    Fiber warm([] {});
    warm.Resume();
  }
  const Fiber::StackCounts before = Fiber::Stacks();
  ASSERT_GE(before.pooled, 1u);
  int steps = 0;
  for (int i = 0; i < 2000; ++i) {
    Fiber fiber([&steps] {
      ++steps;
      Fiber::Yield();
      ++steps;
    });
    fiber.Resume();
    fiber.Resume();
  }
  EXPECT_EQ(steps, 4000);
  EXPECT_EQ(Fiber::Stacks().mapped, before.mapped);
  EXPECT_EQ(Fiber::Stacks().pooled, before.pooled);
}

TEST(FiberTest, SuspendedFibersReturnStacksToABoundedPool) {
  const Fiber::StackCounts before = Fiber::Stacks();
  constexpr size_t kFibers = 300;
  {
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (size_t i = 0; i < kFibers; ++i) {
      fibers.push_back(std::make_unique<Fiber>([] { Fiber::Yield(); }));
      fibers.back()->Resume();  // suspended, holding its stack
    }
    EXPECT_GE(Fiber::Stacks().mapped, kFibers);
  }
  const Fiber::StackCounts after = Fiber::Stacks();
  EXPECT_LT(after.pooled, kFibers);
  // Every stack is either pooled or unmapped: none leaks.
  EXPECT_EQ(after.mapped - after.pooled, before.mapped - before.pooled);
}

}  // namespace
}  // namespace lupine
