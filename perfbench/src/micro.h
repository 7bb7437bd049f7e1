#ifndef PERFBENCH_MICRO_H_
#define PERFBENCH_MICRO_H_

#include <string>
#include <vector>

#include "turbobp.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Short layer-isolated loops over public calls, run on a workload's system
// after its traced phase: host nanoseconds per CRC32C page checksum, pool
// hit, heap-row read, B+-tree search, SSD buffer-table lookup, SSD heap
// victim pop, WAL append, WAL flush and disk-array page read/write. Every
// loop uses uncharged contexts or private structures, and writes back only
// bytes it read, so the system's contents are unchanged.
std::vector<Metric> IsolatedLayerLoops(turbobp::DbSystem& system,
                                       turbobp::Database& db, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_MICRO_H_
