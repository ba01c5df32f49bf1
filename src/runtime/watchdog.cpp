#include "runtime/watchdog.hpp"

#include <algorithm>
#include <cstdio>

#include "common/fatal.hpp"

namespace ats {

Watchdog::Watchdog(Options options) : options_(std::move(options)) {
  monitor_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> guard(lock_);
    stop_ = true;
  }
  wake_.notify_all();
  monitor_.join();
}

void Watchdog::loop() {
  using Clock = std::chrono::steady_clock;
  // Poll at a quarter of the timeout so detection lands within
  // [timeout, timeout + poll] of the last retirement, clamped so a
  // tiny test timeout does not busy-poll and a huge production one
  // still notices destruction promptly.
  const auto poll = std::clamp(options_.timeout / 4,
                               std::chrono::milliseconds(10),
                               std::chrono::milliseconds(1000));
  std::uint64_t lastProgress = options_.progress();
  Clock::time_point lastChange = Clock::now();
  bool firedThisEpisode = false;
  std::unique_lock<std::mutex> guard(lock_);
  while (!stop_) {
    wake_.wait_for(guard, poll, [this] { return stop_; });
    if (stop_) break;
    const std::uint64_t progress = options_.progress();
    const Clock::time_point now = Clock::now();
    if (progress != lastProgress) {
      lastProgress = progress;
      lastChange = now;
      firedThisEpisode = false;  // progress resumed: re-arm
      continue;
    }
    if (!options_.busy()) {
      // Idle quiescence is not a stall: restart the clock so the next
      // batch gets a full timeout from its first dequeue.
      lastChange = now;
      firedThisEpisode = false;
      continue;
    }
    // A stall already reported stays reported until progress resumes
    // (one report per episode, not one per poll).
    if (firedThisEpisode) continue;
    if (now - lastChange < options_.timeout) continue;
    firedThisEpisode = true;
    const std::string report =
        options_.report ? options_.report() : std::string();
    if (options_.onStall) {
      // Custom handler (tests, embedders): report and keep monitoring.
      options_.onStall(report);
    } else {
      std::fprintf(stderr, "%s", report.c_str());
      fatal("watchdog: no completion progress for %lld ms with work in "
            "flight — dumping state and aborting (see report above; the "
            "fatal hook flushes the attached tracer to ATS_TRACE_DIR)",
            static_cast<long long>(options_.timeout.count()));
    }
  }
}

}  // namespace ats
