#ifndef TURBOBP_FAULT_CRASH_HARNESS_H_
#define TURBOBP_FAULT_CRASH_HARNESS_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/ssd_manager.h"
#include "wal/recovery.h"

namespace turbobp {

// Restart fault applied to the surviving SSD image before a warm
// (persistent-cache) recovery. Each models one way the SSD's durable state
// can be damaged between power cut and restart — the warm matrix requires
// recovery to stay oracle-exact under every one of them (losing warmth is
// fine; losing correctness is not).
enum class SsdRestartFault {
  kClean = 0,           // SSD survives byte-exact
  kTornJournalTail,     // journal append tail holds a CRC-torn page
  kStaleJournal,        // current epoch's seal destroyed: journal is stale,
                        //   frames on the device are newer than its entries
  kCorruptFrameHeader,  // one journal-listed frame's content corrupted
  kWiped,               // all-zero SSD image (a replaced device): disk + WAL
                        //   alone must recover exactly
};

const char* ToString(SsdRestartFault fault);

// Deterministic crash-point torture harness.
//
// For a chosen design and seed, the harness runs a mixed workload
// (committed 4-byte counter writes, unforced log tails, heap appends,
// B+-tree inserts, sharp checkpoints) against a shadow oracle, simulates a
// power cut at the k-th hit of a chosen crash point (see
// fault/crash_point.h), reopens a fresh system over the surviving durable
// state, runs redo recovery, and checks:
//
//   1. oracle exactness — every oracle cell equals the value of its last
//      update record at or below the crash-durable LSN. Redo-only / no-undo
//      semantics make exact equality the full correctness statement: it
//      subsumes both "all durable committed data present" and "nothing
//      beyond the durable log visible";
//   2. the InvariantAuditor reports the recovered system clean;
//   3. a power cut right after recovery, recovered again, applies zero
//      records;
//   4. recovery idempotence — crash *again* mid-redo, recover once more,
//      and the final on-disk image is byte-identical to the single-pass one.
//
// Crashes are simulated by snapshot, not by interrupting control flow: the
// crash-point observer captures the durable state (per-spindle disk
// contents + the log's durable prefix) at the crash instant while the
// original run continues. Torn-tail mode additionally materializes the
// first *non-durable* log record with a corrupted body and a stale
// checksum — the partially-written block an interrupted log flush leaves
// behind — which recovery must detect and truncate.
struct CrashHarnessOptions {
  SsdDesign design = SsdDesign::kNoSsd;
  uint64_t seed = 1;
  int num_ops = 200;
  // Ops between sharp checkpoints (0 disables checkpoints entirely).
  int checkpoint_every = 60;
  // Negative-test mode: the workload's checkpoints skip the LC SSD-dirty
  // drain while still writing their end record — the WAL-compliance bug
  // the harness exists to catch. RunScenario must then report an oracle
  // violation for LC crashes after a completed checkpoint.
  bool break_lc_checkpoint = false;
  // Small geometry so evictions, cleaning and checkpoints all happen within
  // a few hundred ops.
  uint32_t page_bytes = 512;
  uint64_t db_pages = 192;
  uint64_t bp_frames = 16;
  int64_t ssd_frames = 48;
  // Persistent-cache mode: the workload runs with persistent_ssd_cache on,
  // crash captures additionally snapshot the SSD device (frames + metadata
  // journal region), and DbSystem::Recover re-attaches the surviving SSD
  // contents instead of reformatting them.
  bool persistent_ssd = false;
  // Drives the self-healing machinery mid-workload (corrupt one clean frame
  // -> scrub repair; degrade partition 0 -> canary re-enable), so the
  // "ssd/scrub-repair", "ssd/canary-write" and "ssd/reenable" crash points
  // fire under the torture matrix. Content-neutral: repairs re-seed from
  // identical disk copies and a degrade only purges cached copies, so every
  // oracle/audit check applies unchanged.
  bool exercise_healing = false;
};

struct CrashScenarioResult {
  // The target point reached its k-th hit during the workload. Untriggered
  // scenarios are vacuously ok (the matrix only sweeps points that fire).
  bool triggered = false;
  // Each failure string is self-describing and carries the full
  // {design, crash_point, hit, seed, torn} tuple.
  std::vector<std::string> failures;
  RecoveryStats recovery;       // stats of the post-crash recovery pass
  int64_t oracle_cells = 0;     // oracle cells compared
  bool idempotence_checked = false;
  // Warm scenarios only: the SSD reconciliation outcome, and whether the
  // requested restart fault found something to damage (an empty journal
  // leaves kCorruptFrameHeader nothing to corrupt, for example).
  PersistentRestoreStats persistent;
  bool ssd_fault_armed = false;

  bool ok() const { return failures.empty(); }
};

struct CrashMatrixResult {
  int scenarios_run = 0;
  int points_covered = 0;  // distinct crash points that fired and were swept
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
};

class CrashHarness {
 public:
  explicit CrashHarness(const CrashHarnessOptions& options)
      : options_(options) {}

  // Runs the seeded workload once with a counting observer (no crash) and
  // returns how often each crash point fired. The matrix sweeps exactly
  // these points; a point absent here cannot fire under this design.
  std::map<std::string, int> ProbeCrashPoints();

  // One full crash/recover/verify cycle: crash at the hit-th firing of
  // `point`, optionally with a torn log tail.
  CrashScenarioResult RunScenario(const std::string& point, int hit,
                                  bool torn_tail);

  // Sweeps every crash point that fires under this design × {clean, torn}.
  // Quick mode crashes at the first and middle hit of each point; full mode
  // adds the last hit. Both also run an end-of-workload crash (maximal redo
  // tail). This is the {design, seed} slice of the ISSUE's matrix; tests and
  // scripts/crash_torture.sh iterate designs and seeds around it.
  CrashMatrixResult RunMatrix(bool quick = true);

  // Warm-restart scenario (requires options.persistent_ssd): crash at the
  // hit-th firing of `point`, restore the surviving SSD image, damage it per
  // `fault`, recover and verify — oracle exactness
  // through the buffer pool (restored dirty frames legitimately shadow the
  // disk), the horizon rule (no re-attached frame's LSN exceeds the WAL
  // durable horizon), auditor + frame-header audit clean, convergence (an
  // immediate re-crash after recovery redoes nothing), determinism (a second
  // recovery from the same image yields a byte-identical volume), and
  // mid-redo idempotence.
  CrashScenarioResult RunWarmRestartScenario(const std::string& point, int hit,
                                             SsdRestartFault fault);

  // Sweeps every crash point that fires under this design × every restart
  // fault. Quick mode crashes at the first hit of each point; full mode adds
  // the middle hit. Both include the end-of-workload crash.
  CrashMatrixResult RunWarmRestartMatrix(bool quick = true);

  // Satellite: crash recovery itself at *every* k-th applied redo record of
  // an end-of-workload crash, recover again, and require the re-recovered
  // image to be byte-identical to the single-pass reference. Returns
  // accumulated failures (empty == pass). `max_steps` caps the sweep
  // (0 = every step).
  std::vector<std::string> RunRedoIdempotenceSweep(int max_steps = 0);

 private:
  CrashHarnessOptions options_;
};

}  // namespace turbobp

#endif  // TURBOBP_FAULT_CRASH_HARNESS_H_
