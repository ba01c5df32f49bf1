#include "instr/tracer.hpp"

#include <algorithm>

#include "common/fatal.hpp"

namespace ats {

Tracer::Tracer(std::size_t numCpuStreams, std::size_t capacityPerStream)
    : numCpuStreams_(numCpuStreams),
      numStreams_(numCpuStreams + kAuxStreams),
      capacity_(static_cast<std::uint32_t>(capacityPerStream)),
      streams_(std::make_unique<Stream[]>(numCpuStreams + kAuxStreams)),
      tscEpoch_(tscNow()),
      nsEpoch_(nowNanos()) {
  // Checked in release builds too (the Runtime::submit idiom): a
  // capacity the 32-bit head cannot index would silently truncate —
  // worst case to 0, turning every emit into a drop with no error
  // anywhere — and a stream count past 16 bits would alias serialized
  // stream ids.  Misconfigured tracers fail loudly instead.
  if (capacityPerStream == 0 ||
      capacityPerStream > (std::size_t{1} << 31) ||
      numStreams_ >= (std::size_t{1} << 16)) {
    fatal("ats::Tracer: %zu streams x %zu records/stream is outside the "
          "format's limits (streams < 65536, 0 < capacity <= 2^31)",
          numStreams_, capacityPerStream);
  }
  for (std::size_t s = 0; s < numStreams(); ++s) {
    streams_[s].records = std::make_unique<TraceRecord[]>(capacity_);
  }
}

std::vector<TraceRecord> Tracer::collect() const {
  // Calibrate ticks -> ns over the tracer's own lifetime: the two
  // (tsc, ns) sample pairs bracket every record, so the linear rescale
  // needs no machine-specific TSC frequency table.  Degenerate spans
  // (collect immediately after construction, or the nowNanos fallback
  // where ticks already are ns) rescale 1:1.
  const std::uint64_t tscEnd = tscNow();
  const std::uint64_t nsEnd = nowNanos();
  const double nsPerTick =
      (tscEnd > tscEpoch_ && nsEnd > nsEpoch_)
          ? static_cast<double>(nsEnd - nsEpoch_) /
                static_cast<double>(tscEnd - tscEpoch_)
          : 1.0;

  std::vector<TraceRecord> merged;
  std::size_t total = 0;
  for (std::size_t s = 0; s < numStreams(); ++s)
    total += streams_[s].head.load(std::memory_order_acquire);
  merged.reserve(total);

  for (std::size_t s = 0; s < numStreams(); ++s) {
    const Stream& stream = streams_[s];
    // The acquire pairs with emit's release store: every record below
    // the published head is fully written.
    const std::uint32_t n = stream.head.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) {
      TraceRecord r = stream.records[i];
      r.timeNs = r.timeNs >= tscEpoch_
                     ? static_cast<std::uint64_t>(
                           static_cast<double>(r.timeNs - tscEpoch_) *
                           nsPerTick)
                     : 0;
      merged.push_back(r);
    }
  }
  // Stable so same-timestamp records keep their per-stream program
  // order (coarse fallback clocks and sub-tick bursts produce ties).
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.timeNs < b.timeNs;
                   });
  return merged;
}

void Tracer::reset() {
  for (std::size_t s = 0; s < numStreams(); ++s) {
    streams_[s].head.store(0, std::memory_order_release);
    streams_[s].drops.store(0, std::memory_order_relaxed);
  }
  misdirected_.store(0, std::memory_order_relaxed);
  tscEpoch_ = tscNow();
  nsEpoch_ = nowNanos();
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = misdirected_.load(std::memory_order_relaxed);
  for (std::size_t s = 0; s < numStreams(); ++s) {
    const std::uint64_t drops =
        streams_[s].drops.load(std::memory_order_relaxed);
    if (drops > ~std::uint64_t{0} - total) return ~std::uint64_t{0};
    total += drops;
  }
  return total;
}

}  // namespace ats
