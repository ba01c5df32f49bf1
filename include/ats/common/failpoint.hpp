#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ats {

/// What an armed failpoint does when its probability/count gate fires.
enum class FailpointMode : std::uint8_t {
  Off,      ///< not armed; the site costs one relaxed load
  Throw,    ///< throw FailpointError (exception-containment drills)
  DelayUs,  ///< sleep `delayUs` microseconds (latency/stall injection)
  Abort,    ///< ats::fatal (crash-consistency drills; dumps the tracer)
};

/// The failpoints, one per planted site name.  A row's id is its
/// enumerator + 1, so 0 stays "not a failpoint" in a TaskFailed payload.
enum class FailpointId : std::uint8_t {
  closure_spill, deps_register, table_insert, pool_carve, task_invoke,
  addbuf_overflow, serve_batch, deque_grow, kCount
};

/// The exception Throw-mode failpoints raise.  Carries the failpoint's
/// id so the runtime's catch frame can stamp it into the TaskFailed
/// trace payload — a trace reader can then tell WHICH chokepoint was
/// injected without string matching.
class FailpointError : public std::runtime_error {
 public:
  FailpointError(const char* name, std::uint32_t id)
      : std::runtime_error(std::string("ats::failpoint fired: ") + name),
        id_(id) {}

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// One row of the failpoint table.  Sites reach their row through the
/// ATS_FAILPOINT macro below; arming happens out-of-band (ATS_FAILPOINTS
/// or arm()), so the site itself never takes a lock: the unarmed check
/// is a single relaxed load of `armed_`.  One row per cache line, so an
/// armed row's counter RMWs never touch another row's armed flag.
class alignas(64) Failpoint {
 public:
  constexpr Failpoint(FailpointId id, const char* name, bool mayThrow)
      : name_(name),
        id_(static_cast<std::uint32_t>(id) + 1),
        mayThrow_(mayThrow) {}

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  const char* name() const { return name_; }
  std::uint32_t id() const { return id_; }

  /// The site-side unarmed check: one relaxed load, no fence, no RMW.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Slow path, reached only while armed: roll the probability gate,
  /// spend one shot of the count budget, and perform the mode action.
  /// May throw FailpointError (Throw mode) or not return (Abort mode).
  void evaluate();

  /// Arm with `prob` in [0,1] per evaluation and `count` total fires
  /// (0 = unlimited).  `delayUs` only matters for DelayUs mode.  Returns
  /// false, arming nothing, for Throw on a row that may not throw.
  bool arm(FailpointMode mode, double prob, std::uint64_t count,
           std::uint64_t delayUs = 0);
  void disarm();

  FailpointMode mode() const {
    return static_cast<FailpointMode>(mode_.load(std::memory_order_relaxed));
  }

  /// Times an armed site reached evaluate() / times the action actually
  /// ran.  Unarmed sites count nothing — the fast path stays one load.
  std::uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  std::uint64_t fires() const {
    return fires_.load(std::memory_order_relaxed);
  }
  void resetCounters() {
    evaluations_.store(0, std::memory_order_relaxed);
    fires_.store(0, std::memory_order_relaxed);
  }

 private:
  const char* name_;
  std::uint32_t id_;
  /// False where a throw would lose a task or unwind through a held
  /// lock (DESIGN.md, "Failure domains"): such a row is delay-only.
  bool mayThrow_;

  std::atomic<bool> armed_{false};
  std::atomic<std::uint8_t> mode_{
      static_cast<std::uint8_t>(FailpointMode::Off)};
  /// Fire when the thread-local RNG's upper 32 bits fall below this.
  std::atomic<std::uint32_t> probThreshold_{0};
  /// Remaining fires; < 0 means unlimited.
  std::atomic<std::int64_t> remaining_{0};
  std::atomic<std::uint64_t> delayUs_{0};
  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> fires_{0};
};

inline constexpr std::size_t kFailpointCount =
    static_cast<std::size_t>(FailpointId::kCount);

/// The table, defined in failpoint.cpp.
extern constinit Failpoint gFailpoints[kFailpointCount];

inline Failpoint& failpoint(FailpointId id) {
  return gFailpoints[static_cast<std::size_t>(id)];
}

/// Parse and apply one spec:
///
///   name:prob:count[:mode[:delay_us]]
///
/// where `prob` is the per-evaluation fire probability in [0,1], `count`
/// caps total fires (0 = unlimited), and `mode` is one of `throw`
/// (default), `abort`, `delay-us` (with `delay_us` microseconds, default
/// 100).  Returns false, arming nothing, on malformed input, a name no
/// row carries, or a throw at a delay-only row.
bool armFailpointSpec(const std::string& spec);

/// Apply a comma-separated list of specs; ats::fatal names the first one
/// that cannot be armed.  Before main, failpoint.cpp applies
/// `ATS_FAILPOINTS` through it — the CI smoke's 1% task-invoke throw:
///
///   ATS_FAILPOINTS=task_invoke:0.01:0
void armFailpointList(const std::string& list);

void disarmAllFailpoints();

}  // namespace ats

/// Plant a fault-injection chokepoint: one relaxed load of the row's
/// armed flag while unarmed; the evaluate() slow path is only reachable
/// once armed.  `name` is a bare FailpointId enumerator, so a misspelled
/// site does not compile.
#define ATS_FAILPOINT(name)                                             \
  do {                                                                  \
    ::ats::Failpoint& ats_failpoint_site_ =                             \
        ::ats::failpoint(::ats::FailpointId::name);                     \
    if (ats_failpoint_site_.armed()) [[unlikely]]                       \
      ats_failpoint_site_.evaluate();                                   \
  } while (0)
