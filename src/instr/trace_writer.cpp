#include "instr/trace_writer.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/failpoint.hpp"

namespace ats {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool TraceWriter::writeBinary(const std::string& path,
                              const std::vector<TraceRecord>& records) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) return false;

  BinaryHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(header.magic));
  header.version = kVersion;
  header.recordBytes = sizeof(TraceRecord);
  header.recordCount = records.size();
  if (std::fwrite(&header, sizeof(header), 1, file.get()) != 1) return false;
  if (!records.empty() &&
      std::fwrite(records.data(), sizeof(TraceRecord), records.size(),
                  file.get()) != records.size()) {
    return false;
  }
  return std::fflush(file.get()) == 0;
}

bool TraceWriter::readBinary(const std::string& path,
                             std::vector<TraceRecord>& out) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return false;

  BinaryHeader header{};
  if (std::fread(&header, sizeof(header), 1, file.get()) != 1) return false;
  if (std::memcmp(header.magic, kMagic, sizeof(header.magic)) != 0 ||
      header.version != kVersion ||
      header.recordBytes != sizeof(TraceRecord)) {
    return false;
  }
  // The count must agree with what is physically in the file BEFORE it
  // sizes an allocation: a truncated or bit-flipped header would
  // otherwise turn "return false" into a multi-exabyte bad_alloc.
  if (std::fseek(file.get(), 0, SEEK_END) != 0) return false;
  const long fileSize = std::ftell(file.get());
  if (fileSize < static_cast<long>(sizeof(BinaryHeader))) return false;
  const unsigned long long bodyBytes =
      static_cast<unsigned long long>(fileSize) - sizeof(BinaryHeader);
  if (bodyBytes % sizeof(TraceRecord) != 0 ||
      bodyBytes / sizeof(TraceRecord) != header.recordCount) {
    return false;
  }
  if (std::fseek(file.get(), sizeof(BinaryHeader), SEEK_SET) != 0)
    return false;
  std::vector<TraceRecord> records(header.recordCount);
  if (header.recordCount != 0 &&
      std::fread(records.data(), sizeof(TraceRecord), records.size(),
                 file.get()) != records.size()) {
    return false;
  }
  out = std::move(records);
  return true;
}

std::string TraceWriter::renderText(const std::vector<TraceRecord>& records) {
  std::string text;
  text.reserve(records.size() * 64);
  char line[128];
  for (const TraceRecord& r : records) {
    const bool namesFailpoint = r.event == TraceEvent::TaskFailed &&
                                r.payload >= 1 && r.payload <= kFailpointCount;
    std::snprintf(
        line, sizeof(line), "%12llu ns  s%02u  %-18s  %llu%s%s%s\n",
        static_cast<unsigned long long>(r.timeNs),
        static_cast<unsigned>(r.stream), eventName(r.event),
        static_cast<unsigned long long>(r.payload),
        namesFailpoint ? " (" : "",
        namesFailpoint ? gFailpoints[r.payload - 1].name() : "",
        namesFailpoint ? ")" : "");
    text += line;
  }
  return text;
}

bool TraceWriter::writeText(const std::string& path,
                            const std::vector<TraceRecord>& records) {
  FilePtr file(std::fopen(path.c_str(), "w"));
  if (file == nullptr) return false;
  const std::string text = renderText(records);
  if (!text.empty() &&
      std::fwrite(text.data(), 1, text.size(), file.get()) != text.size()) {
    return false;
  }
  return std::fflush(file.get()) == 0;
}

}  // namespace ats
