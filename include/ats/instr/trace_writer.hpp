#pragma once

#include <string>
#include <vector>

#include "instr/trace_event.hpp"

namespace ats {

/// Serialization of collected traces.  The binary form is CTF-lite: a
/// fixed self-describing header followed by the raw 24-byte records in
/// native endianness — enough structure for examples/trace_inspection
/// (and external tooling) to validate and read a file, without the full
/// CTF metadata machinery.  The text form is a human-readable rendering
/// of the same records, one line per event.
///
/// By convention trace files use the `.ats` extension and land in
/// `ATS_TRACE_DIR` (see EXPERIMENTS.md); both are gitignored.
struct TraceWriter {
  static constexpr char kMagic[8] = {'A', 'T', 'S', 'T', 'R', 'C', '1', 0};
  /// v2: SchedServe payload became "tasks handed off in the burst"
  /// (was: waiter CPU).  v3: that count split into a packed NUMA
  /// local/remote hand-off pair.  v4: the failure-domain events
  /// (TaskFailed/TaskSkipped/GraphCancelled) — and with them a semantic
  /// change to existing records: a TaskStart may now be closed by
  /// TaskFailed instead of TaskEnd, so a v3 reader's TaskStart/End
  /// pairing (and every busy/conservation statistic built on it)
  /// silently undercounts failed runs.  v5: the SchedServe payload is a
  /// plain hand-off count again (one NUMA domain, nothing to split).
  /// v6: a TaskFailed payload is a fixed failpoint id (FailpointId + 1);
  /// in v5 ids followed the writing process's first-touch order, so a
  /// name printed for one would be wrong.
  /// The record layout is unchanged each time, but stale readers would
  /// skew analyzer sums silently, so the version gate makes old traces
  /// fail loudly instead.
  static constexpr std::uint32_t kVersion = 6;

  /// Fixed 24-byte file header preceding the record array.
  struct BinaryHeader {
    char magic[8];
    std::uint32_t version;
    std::uint32_t recordBytes;  ///< sizeof(TraceRecord); rejects layout drift
    std::uint64_t recordCount;
  };
  static_assert(sizeof(BinaryHeader) == 24);

  /// Write `records` (a Tracer::collect() result) to `path`.  False on
  /// any I/O failure; the file may be partially written in that case.
  static bool writeBinary(const std::string& path,
                          const std::vector<TraceRecord>& records);

  /// Read a writeBinary file back.  False (and `out` untouched) when
  /// the file is missing, truncated, or not a kVersion ats trace.
  static bool readBinary(const std::string& path,
                         std::vector<TraceRecord>& out);

  /// One line per record: timestamp, stream, event name, payload; a
  /// TaskFailed payload that names a failpoint is followed by its name.
  static std::string renderText(const std::vector<TraceRecord>& records);

  /// renderText to a file.  False on I/O failure.
  static bool writeText(const std::string& path,
                        const std::vector<TraceRecord>& records);
};

}  // namespace ats
