#include "src/util/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <mutex>
#include <new>
#include <set>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#include <sanitizer/lsan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// lupine_fiber_switch(save, load): pushes the callee-saved registers, MXCSR
// and the x87 control word on the current stack, stores the stack pointer to
// *save, loads `load` as the stack pointer and pops the same frame from it.
// Everything else is caller-saved in the SysV ABI, so the compiler already
// treats it as clobbered by the call.
extern "C" void lupine_fiber_switch(void** save, void* load);
asm(R"(
  .text
  .p2align 4
  .globl lupine_fiber_switch
  .hidden lupine_fiber_switch
  .type lupine_fiber_switch, @function
lupine_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size lupine_fiber_switch, .-lupine_fiber_switch
)");
#endif

namespace lupine {
namespace {

// The fiber currently executing on this host thread (nullptr in scheduler
// context). Also how Fiber::Main finds its fiber on first entry.
thread_local Fiber* g_current_fiber = nullptr;

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Free stacks shared by every host thread: the scenario pool and the serving
// scheduler start fresh threads per run, so a per-thread list would map anew
// each run. Bounded so a burst of finished guests does not pin its stacks.
class StackPool {
 public:
  static constexpr size_t kMaxPooled = 64;

  static StackPool& Get() {
    static StackPool* pool = new StackPool;  // outlives static destructors
    return *pool;
  }

  // `size` is a multiple of the page size; returns the lowest usable byte.
  char* Acquire(size_t size) {
    {
      std::lock_guard lock(mu_);
      for (size_t i = free_.size(); i-- > 0;) {
        if (free_[i].second == size) {
          char* stack = free_[i].first;
          free_[i] = free_.back();
          free_.pop_back();
          return stack;
        }
      }
    }
    const size_t guard = PageSize();
    void* base = mmap(nullptr, size + guard, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) {
      throw std::bad_alloc();
    }
    if (mprotect(base, guard, PROT_NONE) != 0) {
      munmap(base, size + guard);
      throw std::bad_alloc();
    }
    std::lock_guard lock(mu_);
    ++mapped_;
    return static_cast<char*>(base) + guard;
  }

  void Release(char* stack, size_t size) {
#if defined(__SANITIZE_ADDRESS__)
    // A fiber destroyed while suspended leaves its frames' redzones behind.
    ASAN_UNPOISON_MEMORY_REGION(stack, size);
#endif
    {
      std::lock_guard lock(mu_);
      if (free_.size() < kMaxPooled) {
        free_.emplace_back(stack, size);
        return;
      }
      --mapped_;
    }
    munmap(stack - PageSize(), size + PageSize());
  }

  Fiber::StackCounts Counts() {
    std::lock_guard lock(mu_);
    return {mapped_, free_.size()};
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<char*, size_t>> free_;
  size_t mapped_ = 0;
};

#if defined(__SANITIZE_ADDRESS__)
// A fiber destroyed mid-run abandons whatever its frames own, as a guest
// process that exits never unwinds. Marks every heap object referenced from
// the live part of its real stack, or from a live use-after-return frame
// reachable from there, as a deliberate leak for LeakSanitizer. Reads raw
// frame memory, redzones included, hence no instrumentation.
__attribute__((no_sanitize_address)) void IgnoreAbandonedObjects(const char* begin,
                                                                  const char* end,
                                                                  void* fake_stack) {
  std::vector<std::pair<const char*, const char*>> ranges = {{begin, end}};
  std::set<void*> frames;
  while (!ranges.empty()) {
    const auto [lo, hi] = ranges.back();
    ranges.pop_back();
    for (const char* at = lo; at + sizeof(void*) <= hi; at += sizeof(void*)) {
      void* word = *reinterpret_cast<void* const*>(at);
      void* frame_begin = nullptr;
      void* frame_end = nullptr;
      if (__asan_addr_is_in_fake_stack(fake_stack, word, &frame_begin, &frame_end) != nullptr) {
        if (frames.insert(frame_begin).second) {
          ranges.emplace_back(static_cast<const char*>(frame_begin),
                              static_cast<const char*>(frame_end));
        }
      } else {
        __lsan_ignore_object(word);  // a no-op unless `word` is in a heap block
      }
    }
  }
}
#endif

}  // namespace

Fiber::Fiber(Entry entry, size_t stack_size)
    : entry_(std::move(entry)),
      stack_size_((stack_size + PageSize() - 1) / PageSize() * PageSize()) {}

Fiber::~Fiber() {
  // Destroying a suspended (started, unfinished) fiber leaks whatever its
  // stack owned; the guest kernel only destroys fibers after exit or via
  // explicit kill, where leak-free teardown is not required for simulation
  // correctness. Its stack goes back to the pool.
  assert(!running_ && "cannot destroy a running fiber");
#if defined(__SANITIZE_ADDRESS__)
  if (stack_ != nullptr) {  // started and suspended: a finished one has no stack
#if defined(__x86_64__)
    const char* live = static_cast<const char*>(sp_);
#else
    const char* live = stack_;
#endif
    IgnoreAbandonedObjects(live, stack_ + stack_size_, fake_stack_);
  }
#endif
  ReleaseStack();
}

Fiber::StackCounts Fiber::Stacks() { return StackPool::Get().Counts(); }

void Fiber::PrepareStack() {
  stack_ = StackPool::Get().Acquire(stack_size_);
#if defined(__x86_64__)
  // The frame lupine_fiber_switch pops, from the lowest address: x87 control
  // word, MXCSR (both inherited from the first resumer, as getcontext did),
  // r15..r12, rbx, rbp, then Main as the return address. Above it a null
  // return address ends unwinding and leaves rsp at Main's entry as a call
  // would (8 mod 16).
  auto* frame = reinterpret_cast<uint64_t*>(stack_ + stack_size_) - 10;
  uint16_t fpucw = 0;
  uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(fpucw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  frame[0] = fpucw;
  frame[1] = mxcsr;
  for (int reg = 2; reg < 8; ++reg) {
    frame[reg] = 0;
  }
  frame[8] = reinterpret_cast<uint64_t>(&Fiber::Main);
  frame[9] = 0;
  sp_ = frame;
#else
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = stack_size_;
  context_.uc_link = nullptr;
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::Main), 0);
#endif
}

void Fiber::ReleaseStack() {
  if (stack_ != nullptr) {
    StackPool::Get().Release(stack_, stack_size_);
    stack_ = nullptr;
  }
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
  }
#endif
}

void Fiber::SwitchIn() {
#if defined(__SANITIZE_THREAD__)
  tsan_resumer_ = __tsan_get_current_fiber();
  if (tsan_fiber_ == nullptr) {
    tsan_fiber_ = __tsan_create_fiber(0);
  }
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack, stack_, stack_size_);
#endif
#if defined(__x86_64__)
  lupine_fiber_switch(&resumer_sp_, sp_);
#else
  swapcontext(&return_context_, &context_);
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::SwitchOut(bool finishing) {
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // A null save slot tells ASan this stack is done for good.
  __sanitizer_start_switch_fiber(finishing ? nullptr : &fake_stack_, resumer_stack_,
                                 resumer_stack_size_);
#else
  (void)finishing;
#endif
#if defined(__x86_64__)
  lupine_fiber_switch(&sp_, resumer_sp_);
#else
  swapcontext(&context_, &return_context_);
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack_, &resumer_stack_, &resumer_stack_size_);
#endif
}

void Fiber::Main() noexcept {
  Fiber* self = g_current_fiber;
  assert(self != nullptr);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &self->resumer_stack_, &self->resumer_stack_size_);
#endif
  self->entry_();
  self->finished_ = true;
  self->SwitchOut(/*finishing=*/true);
  __builtin_unreachable();
}

void Fiber::Resume() {
  assert(!finished_ && "cannot resume a finished fiber");
  assert(!running_ && "fiber is already running");
  if (stack_ == nullptr) {
    PrepareStack();
  }
  Fiber* previous = g_current_fiber;
  g_current_fiber = this;
  running_ = true;
  SwitchIn();
  running_ = false;
  g_current_fiber = previous;
  if (finished_) {
    ReleaseStack();
  }
}

void Fiber::Yield() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "Yield called outside any fiber");
  self->SwitchOut(/*finishing=*/false);
}

Fiber* Fiber::Current() { return g_current_fiber; }

}  // namespace lupine
