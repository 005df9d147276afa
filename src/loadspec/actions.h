// The scenario action registry: the vocabulary of per-iteration behaviors a
// spec's worker groups can compose.
//
// One table drives both halves of the subsystem: the validator checks ops,
// parameter names, ranges and mix syscall names against it (so speccheck
// and the interpreter can never disagree about what a spec means), and the
// interpreter dispatches through the same entries to execute actions
// against a guest's SyscallApi.
//
// Library actions re-express the hand-coded workloads as data:
//   syscall_mix    weighted draws over a curated syscall menu (lmbench-ish)
//   compute        user-mode CPU burn
//   mem_touch      demand-page a heap range (brk + touch)
//   brk_grow       grow the heap
//   send / recv    message exchange over a declared channel (hackbench,
//                  perf-messaging, pipe-latency shapes)
//   futex_contend  the stress.cc futex baton generalized to group size
//   sem_lock       sem_posix lock/compute/unlock/yield (stress.cc)
//   fork_work      make -j style fork + compute + object-file write + wait
//   sleep          timer wait (nanosleep)
//   yield          sched_yield
#ifndef SRC_LOADSPEC_ACTIONS_H_
#define SRC_LOADSPEC_ACTIONS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/guestos/syscall_api.h"
#include "src/loadspec/spec.h"
#include "src/util/prng.h"
#include "src/workload/guest_sync.h"

namespace lupine::loadspec {

// A worker's endpoints for one channel. out/in are paired by peer index:
// out_fds[i] writes toward peer i, in_fds[i] reads from peer i.
struct ChannelEnds {
  ChannelKind kind = ChannelKind::kPipe;
  std::vector<int> out_fds;
  std::vector<int> in_fds;
};

// Per-group state shared by all of a group's workers (they live in one
// guest, scheduled cooperatively, so plain ints are safe).
struct GroupShared {
  std::shared_ptr<int> word = std::make_shared<int>(0);  // futex_contend baton
  std::shared_ptr<workload::GuestSemaphore> sem =
      std::make_shared<workload::GuestSemaphore>();
  int workers = 1;
};

// Everything an action body needs: the syscall interface, the worker's
// deterministic PRNG stream, its channel endpoints, and lazily-created
// resources (device fds, heap growth) cached across iterations.
struct ActionCtx {
  guestos::SyscallApi* sys = nullptr;
  Prng prng;
  int worker = 0;
  GroupShared* group = nullptr;
  // Indexed like ScenarioSpec::channels; channels that do not reach this
  // worker stay empty.
  std::vector<ChannelEnds> channels;

  int dev_zero = -1;
  int dev_null = -1;
  Bytes heap_bytes = 0;   // brk growth issued so far (beyond startup heap)
  uint64_t scratch = 0;   // unique names for created files
};

// Declarative parameter metadata, consumed by the validator.
struct NumParam {
  const char* key;
  bool required = false;
  double min_value = 0.0;
  double max_value = 1e12;
  double def = 0.0;
};

struct StrParam {
  const char* key;
  bool required = false;
};

struct BoundAction;

struct ActionDef {
  const char* op;
  std::vector<NumParam> nums;
  std::vector<StrParam> strs;
  bool takes_mix = false;       // accepts the "mix" object
  bool channel_ref = false;     // "channel" names a declared channel
  void (*run)(const BoundAction& action, ActionCtx& ctx);
};

// An ActionSpec resolved against the registry and the spec's channels once,
// before any worker runs, so the per-iteration path does no string lookup.
// Immutable while the scenario runs: VMs on different host threads share it.
struct BoundAction {
  const ActionDef* def = nullptr;
  std::vector<double> nums;  // def->nums order, defaults filled in
  // syscall_mix (weight, menu entry) pairs in spec order; an entry is null
  // for a name outside the menu. mix_total sums the weights in that order.
  std::vector<std::pair<double, void (*)(ActionCtx&)>> mix;
  double mix_total = 0.0;
  int channel = -1;          // index into ActionCtx::channels; -1 = none
  std::string message;       // send's payload
};

// The registry, in stable order.
const std::vector<ActionDef>& ActionRegistry();
const ActionDef* FindAction(std::string_view op);

// Names accepted inside a syscall_mix "mix" object.
const std::vector<std::string>& MixableSyscalls();

// Resolves `action` for a spec whose channels are `channels`. Returns a
// BoundAction with a null def for an op outside the registry.
BoundAction BindAction(const ActionSpec& action, const std::vector<ChannelSpec>& channels);

}  // namespace lupine::loadspec

#endif  // SRC_LOADSPEC_ACTIONS_H_
