#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace ats {

/// Stall detector: one monitor thread that watches a monotonic
/// completion counter and fires when work is in flight but the counter
/// has not moved for `timeout` — turning a silent hang (lost wake-up,
/// deadlocked chain, livelocked scheduler) into an actionable report
/// instead of a CI job that times out with no evidence.
///
/// Progress model: the runtime's completion counter bumps on EVERY
/// task retirement, including skips, so a cancelling graph draining
/// thousands of tasks is visibly making progress.  False-positive
/// bound: a single task body legitimately running longer than
/// `timeout` with nothing else retiring IS reported — the timeout is
/// the operator's statement that no healthy task takes that long
/// (DESIGN.md "Failure domains" quantifies the polling slack: a stall
/// is reported between `timeout` and `timeout + poll interval` after
/// the last retirement, poll interval = timeout/4 clamped to
/// [10ms, 1s]).
///
/// The default onStall prints the report and calls ats::fatal — which
/// flushes the attached tracer's rings to ATS_TRACE_DIR, so the last
/// thing the record shows is per-worker activity right up to the hang.
/// Tests (and embedders that prefer to limp on) install their own
/// onStall; after firing, the watchdog re-arms only when progress
/// resumes, so a persistent stall fires once, not once per poll.
class Watchdog {
 public:
  struct Options {
    std::chrono::milliseconds timeout{1000};
    std::function<std::uint64_t()> progress;  ///< monotonic retirements
    std::function<bool()> busy;               ///< true while work in flight
    std::function<std::string()> report;      ///< state dump for the message
    /// Called with the report on stall detection; nullptr = print +
    /// ats::fatal (the production behavior).
    std::function<void(const std::string&)> onStall;
  };

  explicit Watchdog(Options options);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void loop();

  Options options_;
  std::mutex lock_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread monitor_;
};

}  // namespace ats
