#include "sim/vtime/scheduler.h"

namespace tn::sim::vtime {

namespace {
thread_local std::uint64_t tl_ordinal = kUnassignedOrdinal;
}  // namespace

void Scheduler::set_current_ordinal(std::uint64_t ordinal) noexcept {
  tl_ordinal = ordinal;
}

void Scheduler::sleep_us(std::uint64_t us) {
  if (us == 0) return;
  // "Wake when the clock reaches now-at-call + us". A concurrent advance
  // between the read and the wait only means part of the sleep has already
  // elapsed — wait_until returns early or immediately, which is exactly the
  // sleep's semantics on a clock that moved on.
  wait_until(clock_.now_us() + us);
}

void Scheduler::wait_until(std::uint64_t deadline_us) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (clock_.now_us() >= deadline_us) return;
  ++waits_;
  take_turn(lock, deadline_us);
}

void Scheduler::wait_turn() {
  std::unique_lock<std::mutex> lock(mutex_);
  take_turn(lock, clock_.now_us());
}

void Scheduler::take_turn(std::unique_lock<std::mutex>& lock,
                          std::uint64_t deadline_us) {
  const Event event{deadline_us, tl_ordinal, next_seq_++};
  std::condition_variable turn;
  queue_.push(event);
  turns_.emplace(event.seq, &turn);
  ++blocked_;
  // The turn rule:
  //  * every registered worker is blocked (nobody is still acting at the
  //    current simulated instant), and
  //  * this waiter's event is the earliest pending one; its owner moves
  //    the clock to it if it lies ahead.
  // Unregistered waiters count themselves via blocked_, so a serial driver
  // (workers_ == 0) takes its turn on its own wait immediately.
  const auto my_turn = [&] {
    return blocked_ >= workers_ && queue_.min() == event;
  };
  if (!my_turn()) {
    wake_next();
    turn.wait(lock, my_turn);
  }
  if (clock_.now_us() < deadline_us) {
    clock_.advance_to(deadline_us);
    ++advances_;
  }
  queue_.erase(event);
  turns_.erase(event.seq);
  --blocked_;
  // An unregistered waiter leaving keeps the workforce blocked: the next
  // event's owner may go at once.
  wake_next();
}

void Scheduler::wake_next() {
  if (!queue_.empty() && blocked_ >= workers_)
    turns_.at(queue_.min().seq)->notify_one();
}

void Scheduler::add_worker() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++workers_;
}

void Scheduler::remove_worker() {
  const std::lock_guard<std::mutex> lock(mutex_);
  --workers_;
  // This thread leaving may make the remaining waiters the whole workforce.
  wake_next();
}

std::uint64_t Scheduler::waits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return waits_;
}

std::uint64_t Scheduler::advances() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return advances_;
}

}  // namespace tn::sim::vtime
