#ifndef TCDB_STORAGE_IO_STATS_H_
#define TCDB_STORAGE_IO_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/page.h"

namespace tcdb {

// Execution phases that I/O is attributed to. The paper breaks total cost
// into the restructuring (preprocessing) phase and the computation
// (expansion) phase; kSetup covers loading the input relation onto the
// simulated disk, which is not part of either query phase.
enum class Phase : uint8_t {
  kSetup = 0,
  kRestructuring = 1,
  kComputation = 2,
};

inline constexpr size_t kNumPhases = 3;

const char* PhaseName(Phase phase);

// Simple read/write pair.
struct IoCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;

  uint64_t total() const { return reads + writes; }

  IoCounters& operator+=(const IoCounters& other) {
    reads += other.reads;
    writes += other.writes;
    return *this;
  }
};

// Page I/O counters, attributed by phase and by file. Maintained by the
// Pager (device-level I/O) and, separately, by the BufferManager (hits and
// misses).
class IoStats {
 public:
  void RecordRead(FileId file, Phase phase) {
    Cell(file, phase).reads++;
  }
  void RecordWrite(FileId file, Phase phase) {
    Cell(file, phase).writes++;
  }

  IoCounters ForPhase(Phase phase) const;
  IoCounters ForFile(FileId file) const;
  IoCounters Total() const;

  void Reset();

 private:
  IoCounters& Cell(FileId file, Phase phase) {
    if (file >= per_file_.size()) per_file_.resize(file + 1);
    return per_file_[file][static_cast<size_t>(phase)];
  }

  std::vector<std::array<IoCounters, kNumPhases>> per_file_;
};

}  // namespace tcdb

#endif  // TCDB_STORAGE_IO_STATS_H_
