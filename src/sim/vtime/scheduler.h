// Scheduler: the virtual-time discrete-event core (docs/SIMULATION.md).
//
// The simulator's RTT emulation used to be a wall-clock sleep per wave, so a
// realistic-latency campaign burned real seconds doing nothing. Under this
// scheduler the same waits happen on a *simulated* clock instead: a probe
// wave schedules its reply delivery at `now + delay` as an Event in the
// deterministic EventQueue and blocks; when every registered worker is
// blocked waiting for a delivery — i.e. nobody can make progress at the
// current simulated instant — the clock jumps straight to the earliest
// pending deliver_at and wakes the waiters it satisfies. Wall time decouples
// entirely from simulated wire time (the architecture Shadow uses to
// simulate whole Tor networks on one box), which is what makes
// million-probe campaigns at realistic RTTs finish in wall milliseconds.
//
// Determinism: the clock only ever advances to EventQueue::min() under the
// (deliver_at, ordinal, seq) order, and — crucially — reply *content* never
// depends on waiting at all (sim::Network computes the reply before
// scheduling its delivery, and all order-sensitive draws key off injection
// slots, not the clock). So a virtual-time run is byte-identical to a
// wall-sleep run for the same (topology, seed, fault spec), at any --jobs /
// --window. The VirtualTime ctest suite and the virtual-time-determinism CI
// job pin exactly that.
//
// Turns: waiters leave one at a time. The earliest pending event goes next,
// and only once every registered worker is blocked again, so registered
// workers run one at a time in (deliver_at, ordinal, seq) order — the way
// discrete-event simulators such as ns-3 and Shadow run their hosts. What
// workers do to shared state (target claims, shared-cache misses, stop-set
// inserts) then happens in one order on every run, not the OS's: makespans
// and wire counts repeat, not just outputs. Virtual concurrency is
// unchanged; wall-clock parallelism under virtual time goes.
//
// Deadlock discipline: while registered (WorkerGuard), a worker must not
// block on anything that only another *virtually waiting* worker can
// release. In this codebase that means: under virtual time the ProbePacer
// must run on the scheduler's clock (CampaignRuntime wires this up), and
// plain mutexes are fine (their holders always run to release without
// waiting on the clock). Threads that never registered may call sleep_us /
// wait_until too: they count as blocked workers for the duration of the
// wait, so a serial driver advances the clock immediately.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "sim/vtime/event_queue.h"
#include "sim/vtime/virtual_clock.h"
#include "util/clock.h"

namespace tn::sim::vtime {

// Ordinal used for waits issued by threads that never declared one; sorts
// after every real target ordinal, like the journal's campaign shard.
inline constexpr std::uint64_t kUnassignedOrdinal = ~0ULL;

class Scheduler final : public util::Clock {
 public:
  Scheduler() = default;

  // util::Clock: simulated now, and a blocking simulated sleep. This is the
  // clock the ProbePacer runs on under --virtual-time.
  std::uint64_t now_us() override { return clock_.now_us(); }
  void sleep_us(std::uint64_t us) override;

  // Blocks the caller until the virtual clock reaches `deadline_us` and its
  // turn comes. The wait is admitted into the EventQueue as (deadline,
  // current ordinal, next seq); the calling thread performs the clock
  // advance itself when its event is the earliest.
  void wait_until(std::uint64_t deadline_us);

  // Blocks the caller until its turn at the current instant, as a wait that
  // is already due. The campaign runtime's workers take one before their
  // first action, so even their start-up runs one worker at a time.
  void wait_turn();

  const VirtualClock& clock() const noexcept { return clock_; }

  // Declares the target ordinal for waits issued by *this thread* from now
  // on (the campaign runtime calls this as workers claim targets). Purely a
  // determinism tie-break; threads that never call it use
  // kUnassignedOrdinal.
  static void set_current_ordinal(std::uint64_t ordinal) noexcept;

  // Registers a worker for the guard's lifetime: no waiter leaves, and the
  // clock does not advance, while a registered worker is runnable (outside
  // a virtual wait). Every campaign worker that probes a virtual-time
  // network must hold one, or the clock would jump while it still had work
  // to do at the current instant. The campaign runtime builds every
  // worker's guard before starting any worker, so a thread that starts
  // late still holds the clock; each worker destroys its own guard.
  class WorkerGuard {
   public:
    explicit WorkerGuard(Scheduler& scheduler) : scheduler_(scheduler) {
      scheduler_.add_worker();
    }
    ~WorkerGuard() {
      scheduler_.remove_worker();
      set_current_ordinal(kUnassignedOrdinal);
    }
    WorkerGuard(const WorkerGuard&) = delete;
    WorkerGuard& operator=(const WorkerGuard&) = delete;

   private:
    Scheduler& scheduler_;
  };

  // Introspection (tests, bench reporting).
  std::uint64_t waits() const;     // wait_until calls that actually blocked
  std::uint64_t advances() const;  // discrete clock jumps performed

 private:
  void add_worker();
  void remove_worker();
  // Queues the caller's event and returns once it is the earliest and
  // every registered worker is blocked, with the clock at its deadline.
  void take_turn(std::unique_lock<std::mutex>& lock, std::uint64_t deadline_us);
  // Wakes the owner of the earliest event when the turn rule lets it go:
  // one thread per handoff, not every waiter.
  void wake_next();

  VirtualClock clock_;
  EventQueue queue_;
  mutable std::mutex mutex_;
  // Each waiter's own condition variable, by its event's seq.
  std::unordered_map<std::uint64_t, std::condition_variable*> turns_;
  std::size_t workers_ = 0;  // registered via WorkerGuard
  std::size_t blocked_ = 0;  // threads currently waiting for their turn
  std::uint64_t next_seq_ = 0;
  std::uint64_t waits_ = 0;
  std::uint64_t advances_ = 0;
};

}  // namespace tn::sim::vtime
