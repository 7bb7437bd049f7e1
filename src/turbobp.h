#ifndef TURBOBP_TURBOBP_H_
#define TURBOBP_TURBOBP_H_

// Umbrella header for the turbobp library: an SSD-extended DBMS buffer
// manager reproducing "Turbocharging DBMS Buffer Pool Using SSDs"
// (SIGMOD 2011), plus the substrates it runs on. Include this to get the
// whole public API; finer-grained headers are listed in README.md.

#include "buffer/buffer_pool.h"     // memory buffer pool + page guards
#include "common/rng.h"             // deterministic RNG (NURand/Zipf)
#include "common/stats.h"           // time series / histograms / tables
#include "core/clean_write.h"       // the CW design
#include "core/dual_write.h"        // the DW design
#include "core/lazy_cleaning.h"     // the LC design (the paper's winner)
#include "core/ssd_manager.h"       // SSD-manager interface + noSSD stub
#include "core/tac.h"               // the TAC baseline
#include "engine/bplus_tree.h"      // persisted B+-tree index
#include "engine/database.h"        // DbSystem assembly + catalog
#include "engine/heap_file.h"       // fixed-record heap tables
#include "fault/fault_injecting_device.h"  // deterministic SSD fault injection
#include "fault/fault_plan.h"       // fault plans and kinds
#include "sim/sim_executor.h"       // discrete-event executor
#include "storage/file_device.h"    // real-file backend
#include "storage/striped_array.h"  // 8-spindle simulated disk array
#include "wal/checkpoint.h"         // sharp checkpoints
#include "wal/log_manager.h"        // write-ahead log
#include "wal/recovery.h"           // redo-only restart recovery
#include "workload/driver.h"        // multi-client benchmark driver
#include "workload/tpcc.h"          // TPC-C-style workload
#include "workload/tpce.h"          // TPC-E-style workload
#include "workload/tpch.h"          // TPC-H-style workload

#endif  // TURBOBP_TURBOBP_H_
