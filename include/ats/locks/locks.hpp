#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "common/timing.hpp"

namespace ats {

/// Bounded-then-yield waiter used by every spinning lock here.  A few
/// hundred pause iterations cover the multicore case (the holder is
/// running and will release soon); after that we yield so oversubscribed
/// or single-core hosts — the CI box included — make forward progress
/// instead of burning the holder's timeslice.
class SpinWait {
 public:
  void spin() {
    if (spins_ < kSpinLimit) {
      ++spins_;
      cpuRelax();
    } else {
      std::this_thread::yield();
    }
  }

  void reset() { spins_ = 0; }

 private:
  static constexpr int kSpinLimit = 256;
  int spins_ = 0;
};

/// Test-and-test-and-set spinlock.  The baseline "simple" lock of §3.2:
/// cheap uncontended, unfair and coherence-noisy when contended.
class SpinLock {
 public:
  void lock() {
    SpinWait w;
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      while (locked_.load(std::memory_order_relaxed)) w.spin();
    }
  }

  bool tryLock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

/// Classic two-counter ticket lock: FIFO-fair, but every waiter spins on
/// the single `serving_` word, so the release invalidates every waiter's
/// cache line — the scaling cliff the PTLock's waiting array removes.
class TicketLock {
 public:
  void lock() {
    const std::uint64_t ticket =
        next_.fetch_add(1, std::memory_order_relaxed);
    SpinWait w;
    while (serving_.load(std::memory_order_acquire) != ticket) w.spin();
  }

  void unlock() {
    serving_.store(serving_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }

 private:
  alignas(64) std::atomic<std::uint64_t> next_{0};
  alignas(64) std::atomic<std::uint64_t> serving_{0};
};

/// MCS queue lock: waiters link into an explicit queue and spin on their
/// own node.  Included as the §3.2 comparison point ("PTLocks perform as
/// well as more complex designs such as MCS").
///
/// The queue node lives in thread-local storage keyed per thread, not per
/// (thread, lock) pair, so a thread may hold at most one McsLock at a
/// time.  Fine for the scheduler and benches; do not nest two McsLocks.
class McsLock {
 public:
  void lock() {
    Node& node = localNode();
    node.next.store(nullptr, std::memory_order_relaxed);
    node.locked.store(true, std::memory_order_relaxed);
    Node* prev = tail_.exchange(&node, std::memory_order_acq_rel);
    if (prev != nullptr) {
      prev->next.store(&node, std::memory_order_release);
      SpinWait w;
      while (node.locked.load(std::memory_order_acquire)) w.spin();
    }
  }

  void unlock() {
    Node& node = localNode();
    Node* next = node.next.load(std::memory_order_acquire);
    if (next == nullptr) {
      Node* expected = &node;
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
        return;
      }
      SpinWait w;
      while ((next = node.next.load(std::memory_order_acquire)) == nullptr)
        w.spin();
    }
    next->locked.store(false, std::memory_order_release);
  }

 private:
  struct alignas(64) Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<bool> locked{false};
  };

  static Node& localNode() {
    static thread_local Node node;
    return node;
  }

  std::atomic<Node*> tail_{nullptr};
};

/// Ticket lock augmented with a waiting array (TWA, Dice & Kogan).  Far
/// waiters park on a hashed slot of a small array and only the threads
/// near the front spin on `serving_`, bounding the release broadcast.
/// Correctness rests solely on the ticket counters; the array is a
/// wake-up hint.
class TWALock {
 public:
  void lock() {
    const std::uint64_t ticket =
        next_.fetch_add(1, std::memory_order_relaxed);
    SpinWait w;
    if (ticket - serving_.load(std::memory_order_acquire) > kNearThreshold) {
      // Far from the front: park on the hashed array slot so releases
      // do not broadcast to us through serving_ — that bounded
      // invalidation set is the whole point of TWA.  Dice and Kogan's
      // order: read the slot, THEN re-check serving_.  A release stores
      // serving_ before it bumps the slot, so a bump we did not see in
      // `seen` either comes later (and ends the wait) or published a
      // serving_ the re-check reads.  Reading serving_ first would let
      // the bump land between the two loads and be lost.
      PaddedCounter& slot = waitArray_[slotOf(ticket)];
      for (;;) {
        const std::uint64_t seen = slot.load(std::memory_order_acquire);
        if (ticket - serving_.load(std::memory_order_acquire) <=
            kNearThreshold)
          break;
        while (slot.load(std::memory_order_acquire) == seen) w.spin();
      }
    }
    // Close to the front: spin on serving_ directly.
    while (serving_.load(std::memory_order_acquire) != ticket) w.spin();
  }

  void unlock() {
    const std::uint64_t nextServing =
        serving_.load(std::memory_order_relaxed) + 1;
    serving_.store(nextServing, std::memory_order_release);
    // Nudge the slot where the soon-to-be-near waiter parks so it
    // promotes itself to direct spinning.
    waitArray_[slotOf(nextServing + kNearThreshold)].fetch_add(
        1, std::memory_order_release);
  }

 private:
  static constexpr std::uint64_t kNearThreshold = 1;
  static constexpr std::size_t kSlots = 64;

  static std::size_t slotOf(std::uint64_t ticket) {
    return static_cast<std::size_t>(ticket) & (kSlots - 1);
  }

  alignas(64) std::atomic<std::uint64_t> next_{0};
  alignas(64) std::atomic<std::uint64_t> serving_{0};
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> v{0};

    std::uint64_t load(std::memory_order o) const { return v.load(o); }
    void fetch_add(std::uint64_t d, std::memory_order o) { v.fetch_add(d, o); }
  };
  PaddedCounter waitArray_[kSlots];
};

/// PTLock — the paper's ticket lock with a per-thread waiting array
/// (§3.2).  Ticket t spins on its own padded slot `grants_[t % n]` until
/// the previous holder writes t there, so a release touches exactly one
/// waiter's cache line and hand-off cost stays flat as threads grow.
/// `n` must be at least the number of threads that can contend.
class PTLock {
 public:
  explicit PTLock(std::size_t maxThreads = 64)
      : slots_(std::bit_ceil(maxThreads < 2 ? std::size_t{2} : maxThreads)),
        mask_(slots_ - 1),
        grants_(std::make_unique<TicketSlot[]>(slots_)) {
    grants_[0].v.store(0, std::memory_order_relaxed);  // ticket 0 may enter
  }

  void lock() {
    const std::uint64_t ticket =
        next_.fetch_add(1, std::memory_order_relaxed);
    SpinWait w;
    while (!granted(ticket)) w.spin();
    held_ = ticket;
  }

  /// Take the next ticket only when it is already granted (lock free and
  /// no queue).  Never joins the FIFO queue, so pollers cannot convoy
  /// behind a preempted holder on oversubscribed hosts.
  bool tryLock() {
    std::uint64_t ticket = next_.load(std::memory_order_relaxed);
    if (!granted(ticket)) return false;
    if (!next_.compare_exchange_strong(ticket, ticket + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      return false;
    }
    held_ = ticket;
    return true;
  }

  /// Grant the first ticket the hold did not consume.
  void unlock() {
    const std::uint64_t nextTicket = held_ + 1;
    grants_[nextTicket & mask_].v.store(nextTicket,
                                        std::memory_order_release);
  }

 protected:
  /// One padded word per ticket slot: a grant, or a DTLock request.  The
  /// initial ~0 matches no ticket that can reach the slot.
  struct alignas(64) TicketSlot {
    std::atomic<std::uint64_t> v{~std::uint64_t{0}};
  };

  /// Acquire read of `ticket`'s grant: true once the lock is its turn.
  bool granted(std::uint64_t ticket) const {
    return grants_[ticket & mask_].v.load(std::memory_order_acquire) ==
           ticket;
  }

  const std::size_t slots_;
  const std::uint64_t mask_;
  // Off next_'s line: every spinning waiter reloads this pointer, and
  // next_ takes every arrival's ticket RMW.
  std::unique_ptr<TicketSlot[]> grants_;
  alignas(64) std::atomic<std::uint64_t> next_{0};
  // Last ticket the current hold consumed: its own, plus every waiter a
  // DTLock holder served.  Only ever touched by the thread that owns the
  // lock; the grant release/acquire chain orders the hand-off.
  std::uint64_t held_ = 0;
};

/// DTLock — the paper's Delegation Ticket Lock (§3.3, Listing 5): a
/// PTLock whose waiters may publish the *request* they would have
/// executed under the lock.  The holder performs that work on the
/// waiter's behalf and posts the result, releasing the waiter without it
/// ever owning the lock.  One core ends up doing the scheduler's
/// critical-section work for everybody while the others keep their caches
/// on application data — that is the 4x of §3.4.
///
/// `lock()`, `tryLock()` and `unlock()` are PTLock's, for callers that
/// must mutate state themselves (e.g. draining their own add-buffer on
/// overflow).  `lockOrDelegate(cpu, items, n)` instead publishes "CPU
/// `cpu` wants work": true means the caller acquired the lock after all
/// (it must then do its own work, serve others, and unlock); false means
/// the holder served it — `items[0, n)` carry the posted answer and its
/// extras, and the caller must NOT unlock.
///
/// Holder-side protocol between lock acquisition and `unlock()` (§8 flat
/// combining):
///     while ((n = popWaiters(cpus, maxN)) != 0)
///       serveBatch(cpus, items, counts, n);
/// It snapshots a run of queued requests in one pass over the request
/// array, instead of paying one acquire probe of `next_` per waiter as
/// Listing 5's serve-one loop does, and publishes each answer with its
/// own release store, as Listing 5 does.  A served ticket counts
/// as consumed by the hold (`held_`), so `unlock()` grants the first
/// ticket nobody served.
///
/// Results travel through a slot owned by the requesting CPU, not by the
/// ticket.  That distinction is load-bearing: a served waiter applies no
/// back-pressure on the ticket chain (the holder moves on immediately),
/// so a ticket-indexed result slot could be recycled and overwritten
/// before a descheduled waiter ever looked at it.  The per-CPU slot can
/// only be rewritten by that CPU's *next* request, which cannot exist
/// until the waiter consumed this one.  Grant slots are written by
/// `unlock()` alone, so they keep the array-ticket-lock invariant that
/// every grant is consumed before the chain can lap the array.
///
/// Each result slot is one cache line: the answer word plus up to
/// `kMaxItems - 1` extras, so one serve can hand a waiter several items
/// for the price of one line transfer.  The holder writes the extras
/// before the answer's release store; the waiter reads them
/// only after its acquire load returns a non-zero answer, and copies
/// them out before it can publish the request that would let a holder
/// rewrite them.
///
/// Contract: `cpu` < maxCpus (16-bit), at most one concurrent
/// lockOrDelegate per cpu id, and a served item is never 0 (the
/// "nothing" answer, which carries no extras) nor ~0 (the internal
/// "pending" sentinel) — task pointers never are.
class DTLock : public PTLock {
 public:
  /// Bytes in one waiter's result slot: one cache line.
  static constexpr std::size_t kResultLineBytes = 64;
  /// Most items one answer carries: the answer word plus the extras that
  /// fill the rest of its result line.
  static constexpr std::size_t kMaxItems =
      kResultLineBytes / sizeof(std::uintptr_t);

  explicit DTLock(std::size_t maxThreads = 64, std::size_t maxCpus = 64)
      : PTLock(maxThreads),
        maxCpus_(maxCpus),
        requests_(std::make_unique<TicketSlot[]>(slots_)),
        results_(std::make_unique<ResultSlot[]>(maxCpus)) {
    assert(maxCpus_ >= 1 && maxCpus_ < (std::uint64_t{1} << kCpuBits));
  }

  /// Delegating acquire.  True: lock acquired, caller is now the server.
  /// False: request was served; `items[0, n)` hold the answer and its
  /// extras in the order the holder gave them (n == 0: answered 0).
  bool lockOrDelegate(std::uint64_t cpu, std::uintptr_t (&items)[kMaxItems],
                      std::size_t& n) {
    assert(cpu < maxCpus_);
    // Free and unqueued: take the lock without publishing anything.
    // Delegation only pays when somebody actually holds the lock; an
    // uncontended acquire should cost what a plain lock costs.
    if (tryLock()) return true;
    // Arm our response slot before publishing the request; the request's
    // release store orders the reset before any server's write.
    results_[cpu].v.store(kPendingResult, std::memory_order_relaxed);
    const std::uint64_t ticket =
        next_.fetch_add(1, std::memory_order_relaxed);
    requests_[ticket & mask_].v.store((ticket << kCpuBits) | cpu,
                                      std::memory_order_release);
    SpinWait w;
    for (;;) {
      if (granted(ticket)) {
        held_ = ticket;
        return true;
      }
      const ResultSlot& slot = results_[cpu];
      const std::uintptr_t r = slot.v.load(std::memory_order_acquire);
      if (r != kPendingResult) {
        n = 0;
        if (r != 0) {
          items[n++] = r;
          while (n < kMaxItems && slot.extras[n - 1] != 0) {
            items[n] = slot.extras[n - 1];
            ++n;
          }
        }
        return false;
      }
      w.spin();
    }
  }

  /// Holder only: snapshot the run of consecutive delegation requests at
  /// the head of the queue — up to `maxN` of them — into `cpus` in ticket
  /// order.  One acquire read of `next_` bounds the whole pass; each
  /// request slot still needs its own acquire load, because that is the
  /// edge that makes the waiter's armed result slot visible.  Stops early
  /// at the first waiter that wants the lock itself (or has not
  /// published yet).  Does NOT consume: repeated calls re-report the same
  /// run until `serveBatch` advances past it.
  std::size_t popWaiters(std::uint64_t* cpus, std::size_t maxN) {
    const std::uint64_t limit = next_.load(std::memory_order_acquire);
    std::uint64_t ticket = held_ + 1;
    std::size_t n = 0;
    while (n < maxN && ticket != limit) {
      const std::uint64_t req =
          requests_[ticket & mask_].v.load(std::memory_order_acquire);
      if ((req >> kCpuBits) != ticket) break;  // wants the lock
      cpus[n++] = req & ((std::uint64_t{1} << kCpuBits) - 1);
      ++ticket;
    }
    return n;
  }

  /// Holder only: answer the `n` waiters the last `popWaiters` reported.
  /// Waiter `cpus[i]` receives the next `counts[i]` (<= kMaxItems) entries
  /// of `items`: the first as its answer, the rest as extras.  A count of
  /// 0 answers 0 ("nothing").  Each waiter's extras are written before
  /// its answer's release store, which synchronizes with that waiter's
  /// acquire load of the answer, so it observes its extras and
  /// everything the holder did under the lock.
  void serveBatch(const std::uint64_t* cpus, const std::uintptr_t* items,
                  const std::size_t* counts, std::size_t n) {
    const std::uintptr_t* next = items;
    for (std::size_t i = 0; i < n; ++i) {
      writeExtras(cpus[i], next, counts[i]);
      results_[cpus[i]].v.store(counts[i] != 0 ? *next : 0,
                                std::memory_order_release);
      next += counts[i];
    }
    held_ += n;
  }

 private:
  static constexpr std::uint64_t kCpuBits = 16;
  static constexpr std::uintptr_t kPendingResult = ~std::uintptr_t{0};

  /// `items[1, count)` into `cpu`'s extras, 0-terminated when they do not
  /// fill the line.  Plain stores: the waiter reads them only after the
  /// answer's release, and has copied them out before its next request
  /// (the acquire edge every later holder's write follows).
  void writeExtras(std::uint64_t cpu, const std::uintptr_t* items,
                   std::size_t count) {
    assert(count <= kMaxItems);
    for (std::size_t j = 0; j < count; ++j)
      assert(items[j] != 0 && items[j] != kPendingResult);
    ResultSlot& slot = results_[cpu];
    for (std::size_t j = 1; j < count; ++j) slot.extras[j - 1] = items[j];
    if (count != 0 && count < kMaxItems) slot.extras[count - 1] = 0;
  }

  struct alignas(kResultLineBytes) ResultSlot {
    std::atomic<std::uintptr_t> v{kPendingResult};
    std::uintptr_t extras[kMaxItems - 1] = {};
  };
  static_assert(sizeof(std::atomic<std::uintptr_t>) +
                        sizeof(std::uintptr_t) * (kMaxItems - 1) ==
                    kResultLineBytes,
                "an answer and its extras fill exactly one result line");

  // A line of their own: left unaligned they would fill PTLock's tail
  // padding, on next_'s line, and every delegating waiter reloads them.
  alignas(64) const std::uint64_t maxCpus_;
  std::unique_ptr<TicketSlot[]> requests_;
  std::unique_ptr<ResultSlot[]> results_;
};

}  // namespace ats
