#include "common/failpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "common/fatal.hpp"

namespace ats {

/// The throw column is DESIGN.md's "Failure domains" table: the first
/// five unwind cleanly; at the last three a throw loses a task or
/// unwinds through a held lock, so they are delay-only.
constinit Failpoint gFailpoints[kFailpointCount] = {
    {FailpointId::closure_spill, "closure_spill", true},
    {FailpointId::deps_register, "deps_register", true},
    {FailpointId::table_insert, "table_insert", true},
    {FailpointId::pool_carve, "pool_carve", true},
    {FailpointId::task_invoke, "task_invoke", true},
    {FailpointId::addbuf_overflow, "addbuf_overflow", false},
    {FailpointId::serve_batch, "serve_batch", false},
    {FailpointId::deque_grow, "deque_grow", false},
};

namespace {

/// Per-thread xorshift64* — the probability gate must not serialize
/// armed sites on a shared RNG line, and must not perturb the timing
/// it is injecting faults into.
std::uint64_t rngNext() {
  thread_local std::uint64_t state =
      0x9E3779B97F4A7C15ull ^
      (std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1ull);
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1Dull;
}

/// Off for a token that names no mode: no spec may ask for Off.
FailpointMode parseMode(const std::string& token) {
  if (token == "throw") return FailpointMode::Throw;
  if (token == "abort") return FailpointMode::Abort;
  if (token == "delay-us") return FailpointMode::DelayUs;
  return FailpointMode::Off;
}

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> fields;
  for (std::size_t start = 0;;) {
    const std::size_t end = text.find(separator, start);
    fields.push_back(text.substr(start, end == std::string::npos
                                            ? std::string::npos
                                            : end - start));
    if (end == std::string::npos) return fields;
    start = end + 1;
  }
}

}  // namespace

bool Failpoint::arm(FailpointMode mode, double prob, std::uint64_t count,
                    std::uint64_t delayUs) {
  if (mode == FailpointMode::Throw && !mayThrow_) return false;
  if (prob < 0.0) prob = 0.0;
  if (prob > 1.0) prob = 1.0;
  // prob == 1.0 must ALWAYS fire; the threshold compare is strict-less,
  // so saturate to the max representable gate.
  const auto threshold =
      prob >= 1.0 ? ~std::uint32_t{0}
                  : static_cast<std::uint32_t>(prob * 4294967296.0);
  probThreshold_.store(threshold, std::memory_order_relaxed);
  remaining_.store(count == 0 ? std::int64_t{-1}
                              : static_cast<std::int64_t>(count),
                   std::memory_order_relaxed);
  delayUs_.store(delayUs, std::memory_order_relaxed);
  mode_.store(static_cast<std::uint8_t>(mode), std::memory_order_relaxed);
  // Publish last: a site observing armed sees a fully-configured node
  // (the fields above are only read after this load in evaluate()).
  armed_.store(mode != FailpointMode::Off, std::memory_order_release);
  return true;
}

void Failpoint::disarm() {
  armed_.store(false, std::memory_order_release);
  mode_.store(static_cast<std::uint8_t>(FailpointMode::Off),
              std::memory_order_relaxed);
}

void Failpoint::evaluate() {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t threshold =
      probThreshold_.load(std::memory_order_relaxed);
  if (threshold != ~std::uint32_t{0} &&
      static_cast<std::uint32_t>(rngNext() >> 32) >= threshold) {
    return;
  }
  // Capture the mode BEFORE spending the budget: the last shot disarms,
  // and disarm() resets mode_ to Off — reading it afterwards would turn
  // the Nth fire into a silent no-op.
  const auto mode =
      static_cast<FailpointMode>(mode_.load(std::memory_order_relaxed));
  // Spend one shot of the count budget.  A lost race past zero is
  // restored, so a `count`-armed failpoint fires exactly count times
  // no matter how many threads hit it concurrently.
  std::int64_t remaining = remaining_.load(std::memory_order_relaxed);
  if (remaining >= 0) {
    const std::int64_t before =
        remaining_.fetch_sub(1, std::memory_order_relaxed);
    if (before <= 0) {
      remaining_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (before == 1) disarm();  // budget spent: back to the one-load path
  }
  fires_.fetch_add(1, std::memory_order_relaxed);
  switch (mode) {
    case FailpointMode::Throw:
      throw FailpointError(name_, id_);
    case FailpointMode::DelayUs:
      std::this_thread::sleep_for(std::chrono::microseconds(
          delayUs_.load(std::memory_order_relaxed)));
      return;
    case FailpointMode::Abort:
      fatal("failpoint '%s' fired in abort mode (ATS_FAILPOINTS drill)",
            name_);
    case FailpointMode::Off:
      return;
  }
}

bool armFailpointSpec(const std::string& spec) {
  const std::vector<std::string> fields = split(spec, ':');
  if (fields.size() < 3 || fields.size() > 5 || fields[0].empty())
    return false;
  double prob = 0;
  std::uint64_t count = 0;
  std::uint64_t delayUs = 100;
  try {
    prob = std::stod(fields[1]);
    count = std::stoull(fields[2]);
    if (fields.size() >= 5) delayUs = std::stoull(fields[4]);
  } catch (...) {
    return false;
  }
  if (prob < 0.0 || prob > 1.0) return false;
  const FailpointMode mode =
      fields.size() >= 4 ? parseMode(fields[3]) : FailpointMode::Throw;
  if (mode == FailpointMode::Off) return false;
  for (Failpoint& row : gFailpoints) {
    if (fields[0] == row.name()) return row.arm(mode, prob, count, delayUs);
  }
  return false;
}

void armFailpointList(const std::string& list) {
  for (const std::string& spec : split(list, ',')) {
    if (!spec.empty() && !armFailpointSpec(spec)) {
      fatal("ATS_FAILPOINTS: cannot arm '%s' (want name:prob:count"
            "[:mode[:delay_us]] with a failpoint's name, and no throw at "
            "a delay-only one)",
            spec.c_str());
    }
  }
}

void disarmAllFailpoints() {
  for (Failpoint& row : gFailpoints) row.disarm();
}

namespace {

/// Arms the environment's drill before main, so no site runs unarmed
/// first and a spec that cannot be armed stops the process.
[[maybe_unused]] const bool gEnvironmentArmed = [] {
  if (const char* list = std::getenv("ATS_FAILPOINTS")) armFailpointList(list);
  return true;
}();

}  // namespace

}  // namespace ats
