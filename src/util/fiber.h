// Stackful cooperative fibers.
//
// Guest threads in src/guestos are fibers: the guest scheduler decides which
// fiber runs, and a fiber gives up the CPU only at simulated blocking points
// (syscalls, futex waits, ...). Running everything on one host thread keeps
// the simulation fully deterministic and lets experiments spawn thousands of
// guest processes (Figs. 11-12 sweep to 1024+) with small, fixed-size stacks.
//
// On x86-64 a switch is one asm routine that saves the callee-saved
// registers, the stack pointer, MXCSR and the x87 control word: no signal
// mask syscall, unlike swapcontext. Other targets fall back to ucontext.
// A stack is mapped on the fiber's first Resume (a fiber that never runs
// costs no stack), sits above a PROT_NONE guard page so an overflow faults
// instead of corrupting the heap, and goes back to a process-wide pool when
// the fiber finishes or is destroyed. Switches are annotated for
// AddressSanitizer and ThreadSanitizer.
#ifndef SRC_UTIL_FIBER_H_
#define SRC_UTIL_FIBER_H_

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>

namespace lupine {

class Fiber {
 public:
  using Entry = std::function<void()>;

  // Default stack: plenty for app models; tiny versus pthread's 8 MiB.
  static constexpr size_t kDefaultStackSize = 256 * 1024;

  explicit Fiber(Entry entry, size_t stack_size = kDefaultStackSize);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Runs the fiber until it yields or returns. Must be called from outside
  // any fiber (the scheduler context) or from another fiber.
  void Resume();

  // Yields from inside the currently running fiber back to its resumer.
  static void Yield();

  // The fiber currently executing, or nullptr when in scheduler context.
  static Fiber* Current();

  bool finished() const { return finished_; }
  bool running() const { return running_; }

  // Process-wide stack accounting: stacks mapped (held by a fiber or
  // pooled) and, of those, stacks waiting in the pool.
  struct StackCounts {
    size_t mapped = 0;
    size_t pooled = 0;
  };
  static StackCounts Stacks();

 private:
  // First frame on the fiber's stack: runs entry_, then switches out for
  // good.
  [[noreturn]] static void Main() noexcept;

  void PrepareStack();
  void ReleaseStack();
  void SwitchIn();                 // resumer -> fiber
  void SwitchOut(bool finishing);  // fiber -> resumer

  Entry entry_;
  size_t stack_size_;
  char* stack_ = nullptr;  // lowest usable byte; null until the first Resume
#if defined(__x86_64__)
  void* sp_ = nullptr;          // saved stack pointer while suspended
  void* resumer_sp_ = nullptr;  // the resumer's, while this fiber runs
#else
  ucontext_t context_;
  ucontext_t return_context_;
#endif
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack_ = nullptr;  // this fiber's use-after-return frames
  const void* resumer_stack_ = nullptr;
  size_t resumer_stack_size_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
#endif
  bool finished_ = false;
  bool running_ = false;
};

}  // namespace lupine

#endif  // SRC_UTIL_FIBER_H_
