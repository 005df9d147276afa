#include "src/loadspec/actions.h"

#include <string>

namespace lupine::loadspec {
namespace {

using guestos::SyscallApi;

// ---- syscall_mix menu -------------------------------------------------------
// Each entry issues one (or one small composite of) priced guest syscalls.
// The menu is curated rather than exhaustive: entries must be safe to issue
// from any worker at any time, against the bench rootfs, without leaking
// unbounded guest resources across millions of draws.

void EnsureDevFds(ActionCtx& ctx) {
  if (ctx.dev_zero < 0) {
    auto fd = ctx.sys->Open("/dev/zero");
    ctx.dev_zero = fd.ok() ? fd.value() : -1;
  }
  if (ctx.dev_null < 0) {
    auto fd = ctx.sys->Open("/dev/null");
    ctx.dev_null = fd.ok() ? fd.value() : -1;
  }
}

void MixGetppid(ActionCtx& ctx) { (void)ctx.sys->Getppid(); }
void MixGetpid(ActionCtx& ctx) { (void)ctx.sys->Getpid(); }
void MixClockGettime(ActionCtx& ctx) { (void)ctx.sys->ClockGettime(); }
void MixUname(ActionCtx& ctx) { (void)ctx.sys->Uname(); }
void MixYield(ActionCtx& ctx) { ctx.sys->SchedYield(); }
void MixNanosleep(ActionCtx& ctx) { ctx.sys->Nanosleep(Micros(1)); }

void MixRead(ActionCtx& ctx) {
  EnsureDevFds(ctx);
  if (ctx.dev_zero >= 0) {
    (void)ctx.sys->Read(ctx.dev_zero, 64);
  }
}

void MixWrite(ActionCtx& ctx) {
  static const std::string kPayload(64, 'w');
  EnsureDevFds(ctx);
  if (ctx.dev_null >= 0) {
    (void)ctx.sys->Write(ctx.dev_null, kPayload);
  }
}

void MixOpenClose(ActionCtx& ctx) {
  // One file per worker, created on first use and reopened after that, so
  // the VFS does not grow with the draw count.
  auto fd = ctx.sys->Open("/tmp/mix_" + std::to_string(ctx.worker), /*create=*/true);
  if (fd.ok()) {
    (void)ctx.sys->Close(fd.value());
  }
}

void MixStat(ActionCtx& ctx) { (void)ctx.sys->Stat("/sbin/init"); }

void MixBrk(ActionCtx& ctx) {
  if (ctx.sys->BrkGrow(4096).ok()) {
    ctx.heap_bytes += 4096;
  }
}

void MixMmapMunmap(ActionCtx& ctx) {
  auto vma = ctx.sys->Mmap(4096);
  if (vma.ok()) {
    (void)ctx.sys->Munmap(vma.value());
  }
}

void MixPipeClose(ActionCtx& ctx) {
  auto fds = ctx.sys->Pipe();
  if (fds.ok()) {
    (void)ctx.sys->Close(fds.value().first);
    (void)ctx.sys->Close(fds.value().second);
  }
}

void MixDupClose(ActionCtx& ctx) {
  EnsureDevFds(ctx);
  if (ctx.dev_null >= 0) {
    auto fd = ctx.sys->Dup(ctx.dev_null);
    if (fd.ok()) {
      (void)ctx.sys->Close(fd.value());
    }
  }
}

void MixFutex(ActionCtx& ctx) {
  // A wake with no waiters: the cheapest futex kernel entry.
  (void)ctx.sys->FutexWake(ctx.group->word.get(), 1);
}

struct MixEntry {
  const char* name;
  void (*run)(ActionCtx&);
};

const MixEntry kMixMenu[] = {
    {"getppid", MixGetppid},   {"getpid", MixGetpid},
    {"clock_gettime", MixClockGettime}, {"uname", MixUname},
    {"sched_yield", MixYield}, {"nanosleep", MixNanosleep},
    {"read", MixRead},         {"write", MixWrite},
    {"open_close", MixOpenClose}, {"stat", MixStat},
    {"brk", MixBrk},           {"mmap_munmap", MixMmapMunmap},
    {"pipe_close", MixPipeClose}, {"dup_close", MixDupClose},
    {"futex", MixFutex},
};

void (*MixRunner(std::string_view name))(ActionCtx&) {
  for (const MixEntry& entry : kMixMenu) {
    if (name == entry.name) {
      return entry.run;
    }
  }
  return nullptr;
}

// ---- actions ----------------------------------------------------------------
// Each body reads action.nums by its registry entry's parameter order.

void RunSyscallMix(const BoundAction& action, ActionCtx& ctx) {
  if (action.mix_total <= 0.0) {
    return;
  }
  const auto count = static_cast<uint64_t>(action.nums[0]);  // count
  for (uint64_t i = 0; i < count; ++i) {
    double draw = ctx.prng.NextDouble() * action.mix_total;
    for (const auto& [weight, run] : action.mix) {
      draw -= weight;
      if (draw < 0.0) {
        if (run != nullptr) {
          run(ctx);
        }
        break;
      }
    }
  }
}

void RunCompute(const BoundAction& action, ActionCtx& ctx) {
  ctx.sys->Compute(static_cast<Nanos>(action.nums[0] * kNanosPerMicro));  // us
}

void RunMemTouch(const BoundAction& action, ActionCtx& ctx) {
  const Bytes length = static_cast<Bytes>(action.nums[0]) * kKiB;  // kb
  if (ctx.heap_bytes < length) {
    if (ctx.sys->BrkGrow(length - ctx.heap_bytes).ok()) {
      ctx.heap_bytes = length;
    }
  }
  (void)ctx.sys->TouchHeap(0, length);
}

void RunBrkGrow(const BoundAction& action, ActionCtx& ctx) {
  const Bytes grow = static_cast<Bytes>(action.nums[0]) * kKiB;  // kb
  if (ctx.sys->BrkGrow(grow).ok()) {
    ctx.heap_bytes += grow;
  }
}

void RunSend(const BoundAction& action, ActionCtx& ctx) {
  if (action.channel < 0) {
    return;
  }
  const ChannelEnds& ends = ctx.channels[action.channel];
  const auto count = static_cast<uint64_t>(action.nums[1]);  // count
  for (uint64_t m = 0; m < count; ++m) {
    for (int fd : ends.out_fds) {
      if (ends.kind == ChannelKind::kPipe) {
        (void)ctx.sys->Write(fd, action.message);
      } else {
        (void)ctx.sys->Send(fd, action.message);
      }
    }
  }
}

void RunRecv(const BoundAction& action, ActionCtx& ctx) {
  if (action.channel < 0) {
    return;
  }
  const ChannelEnds& ends = ctx.channels[action.channel];
  const auto bytes = static_cast<size_t>(action.nums[0]);   // bytes
  const auto count = static_cast<uint64_t>(action.nums[1]);  // count
  for (uint64_t m = 0; m < count; ++m) {
    for (int fd : ends.in_fds) {
      size_t got = 0;
      while (got < bytes) {
        Result<std::string> data = ends.kind == ChannelKind::kPipe
                                       ? ctx.sys->Read(fd, bytes - got)
                                       : ctx.sys->Recv(fd, bytes - got);
        if (!data.ok() || data.value().empty()) {
          return;  // Peer closed; a mismatched spec shows up as short recv.
        }
        got += data.value().size();
      }
    }
  }
}

void RunFutexContend(const BoundAction& action, ActionCtx& ctx) {
  // The stress.cc baton: workers take strict turns on one futex word,
  // blocking until the word is theirs (mod group size), then waking the
  // rest. One action call advances this worker `rounds` turns.
  const auto rounds = static_cast<int>(action.nums[0]);  // rounds
  int* word = ctx.group->word.get();
  const int workers = ctx.group->workers;
  for (int r = 0; r < rounds; ++r) {
    for (;;) {
      int v = *word;
      if (v % workers == ctx.worker) {
        break;
      }
      if (ctx.sys->FutexWait(word, v).err() == Err::kNoSys) {
        return;
      }
    }
    ++*word;
    (void)ctx.sys->FutexWake(word, workers > 1 ? workers - 1 : 1);
  }
}

void RunSemLock(const BoundAction& action, ActionCtx& ctx) {
  workload::SemWait(*ctx.sys, ctx.group->sem.get());
  ctx.sys->Compute(static_cast<Nanos>(action.nums[0]));  // compute_ns
  workload::SemPost(*ctx.sys, ctx.group->sem.get());
  ctx.sys->SchedYield();  // Hand the semaphore to a sibling.
}

void RunForkWork(const BoundAction& action, ActionCtx& ctx) {
  const auto units = static_cast<int>(action.nums[0]);                       // units
  const auto compute = static_cast<Nanos>(action.nums[1] * kNanosPerMicro);  // compute_us
  const auto write_bytes = static_cast<size_t>(action.nums[2]) * kKiB;       // write_kb
  for (int u = 0; u < units; ++u) {
    const std::string path =
        "/tmp/fw_" + std::to_string(ctx.worker) + "_" + std::to_string(ctx.scratch++ % 16);
    auto pid = ctx.sys->Fork([compute, write_bytes, path](SyscallApi& cc) -> int {
      cc.Compute(compute);
      auto fd = cc.Open(path, /*create=*/true);
      if (fd.ok()) {
        (void)cc.Write(fd.value(), std::string(write_bytes, 'o'));
        (void)cc.Close(fd.value());
      }
      return 0;
    });
    if (pid.ok()) {
      (void)ctx.sys->Wait4(pid.value());
    }
  }
}

void RunSleep(const BoundAction& action, ActionCtx& ctx) {
  ctx.sys->Nanosleep(static_cast<Nanos>(action.nums[0] * kNanosPerMicro));  // us
}

void RunYield(const BoundAction& action, ActionCtx& ctx) {
  (void)action;
  ctx.sys->SchedYield();
}

}  // namespace

const std::vector<ActionDef>& ActionRegistry() {
  static const std::vector<ActionDef> kRegistry = {
      {"syscall_mix",
       {{"count", /*required=*/true, 1, 1e9, 1}},
       {},
       /*takes_mix=*/true,
       /*channel_ref=*/false,
       RunSyscallMix},
      {"compute", {{"us", true, 0, 1e9, 10}}, {}, false, false, RunCompute},
      {"mem_touch", {{"kb", true, 1, 1 << 20, 64}}, {}, false, false, RunMemTouch},
      {"brk_grow", {{"kb", true, 1, 1 << 20, 16}}, {}, false, false, RunBrkGrow},
      {"send",
       {{"bytes", false, 1, 1 << 20, 100}, {"count", false, 1, 1e6, 1}},
       {{"channel", true}},
       false,
       /*channel_ref=*/true,
       RunSend},
      {"recv",
       {{"bytes", false, 1, 1 << 20, 100}, {"count", false, 1, 1e6, 1}},
       {{"channel", true}},
       false,
       /*channel_ref=*/true,
       RunRecv},
      {"futex_contend", {{"rounds", false, 1, 1e6, 1}}, {}, false, false, RunFutexContend},
      {"sem_lock", {{"compute_ns", false, 0, 1e9, 120}}, {}, false, false, RunSemLock},
      {"fork_work",
       {{"units", false, 1, 1e4, 1},
        {"compute_us", false, 0, 1e7, 1500},
        {"write_kb", false, 1, 1 << 16, 8}},
       {},
       false,
       false,
       RunForkWork},
      {"sleep", {{"us", false, 0, 1e9, 100}}, {}, false, false, RunSleep},
      {"yield", {}, {}, false, false, RunYield},
  };
  return kRegistry;
}

const ActionDef* FindAction(std::string_view op) {
  for (const ActionDef& def : ActionRegistry()) {
    if (op == def.op) {
      return &def;
    }
  }
  return nullptr;
}

const std::vector<std::string>& MixableSyscalls() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const MixEntry& entry : kMixMenu) {
      names.emplace_back(entry.name);
    }
    return names;
  }();
  return kNames;
}

BoundAction BindAction(const ActionSpec& action, const std::vector<ChannelSpec>& channels) {
  BoundAction bound;
  bound.def = FindAction(action.op);
  if (bound.def == nullptr) {
    return bound;
  }
  for (const NumParam& param : bound.def->nums) {
    auto it = action.nums.find(param.key);
    bound.nums.push_back(it == action.nums.end() ? param.def : it->second);
  }
  for (const auto& [name, weight] : action.mix) {
    bound.mix.emplace_back(weight, MixRunner(name));
    bound.mix_total += weight;
  }
  auto channel = action.strs.find("channel");
  if (bound.def->channel_ref && channel != action.strs.end()) {
    for (size_t i = 0; i < channels.size(); ++i) {
      if (channels[i].name == channel->second) {
        bound.channel = static_cast<int>(i);
        break;
      }
    }
  }
  if (bound.def->run == RunSend) {
    bound.message.assign(static_cast<size_t>(bound.nums[0]), 'm');  // bytes
  }
  return bound;
}

}  // namespace lupine::loadspec
