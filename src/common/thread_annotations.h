#ifndef TURBOBP_COMMON_THREAD_ANNOTATIONS_H_
#define TURBOBP_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis wiring (DESIGN.md §7, "Compile-time latch
// discipline"). Every engine mutex is a TrackedMutex<LatchClass>, annotated
// below as a *capability*; latch-guarded fields say which latch guards them
// with TURBOBP_GUARDED_BY, internal `*Locked` helpers carry TURBOBP_REQUIRES
// contracts, and the blocking storage entry points carry TURBOBP_EXCLUDES
// over the pool shard latch token — so `clang -Wthread-safety -Werror`
// rejects a device read under a shard latch at compile time, before any
// schedule runs.
//
// The macros expand to Clang's capability attributes only when the compiler
// is Clang AND the build opted in (-DTURBOBP_THREAD_SAFETY, set by the
// TURBOBP_THREAD_SAFETY=ON CMake option). Everywhere else — GCC, MSVC,
// un-opted Clang — they expand to nothing, so annotated headers compile
// identically and the annotations cost nothing at runtime.
//
// What the analysis cannot see (std::unique_lock juggling in the buffer
// pool's per-frame I/O state machine, the crash-observer's sanctioned
// latch-free snapshots) is marked TURBOBP_NO_THREAD_SAFETY_ANALYSIS with a
// pointer to the structural checker (tools/analysis/static_check.py) that
// covers those paths instead.

#if defined(__clang__) && defined(TURBOBP_THREAD_SAFETY)
#define TURBOBP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TURBOBP_THREAD_ANNOTATION(x)  // no-op off Clang / un-opted builds
#endif

// Marks a class as a capability (a latch). The string names the capability
// kind in diagnostics ("mutex 'mu_' is still held", ...).
#define TURBOBP_CAPABILITY(x) TURBOBP_THREAD_ANNOTATION(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases a
// capability (TrackedLockGuard below; clang tracks the guarded scope).
#define TURBOBP_SCOPED_CAPABILITY TURBOBP_THREAD_ANNOTATION(scoped_lockable)

// Field `x` may only be read or written while the named capability is held.
#define TURBOBP_GUARDED_BY(x) TURBOBP_THREAD_ANNOTATION(guarded_by(x))

// Pointer field: the *pointee* is guarded by the named capability.
#define TURBOBP_PT_GUARDED_BY(x) TURBOBP_THREAD_ANNOTATION(pt_guarded_by(x))

// The function may only be called while holding the listed capabilities
// (internal `*Locked` helpers).
#define TURBOBP_REQUIRES(...) \
  TURBOBP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TURBOBP_REQUIRES_SHARED(...) \
  TURBOBP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// The function may only be called while NOT holding the listed capabilities.
// This is the compile-time form of the PR-5 invariant: every blocking
// StorageDevice / DiskManager entry point EXCLUDES the buffer-pool shard
// latch token, so "device I/O under a pool latch" is a build error.
#define TURBOBP_EXCLUDES(...) \
  TURBOBP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Lock/unlock functions. With no argument they acquire/release `this`
// (the capability class itself); with arguments, the named capabilities.
#define TURBOBP_ACQUIRE(...) \
  TURBOBP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TURBOBP_RELEASE(...) \
  TURBOBP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TURBOBP_TRY_ACQUIRE(...) \
  TURBOBP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// The function returns a reference to the named capability (accessors).
#define TURBOBP_RETURN_CAPABILITY(x) TURBOBP_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for code the analysis cannot model. Every use in the engine
// cites why (lock juggling across device I/O, crash-observer snapshots) and
// names the layer that checks the path instead.
#define TURBOBP_NO_THREAD_SAFETY_ANALYSIS \
  TURBOBP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace turbobp {

// Phantom per-latch-class capability tokens. TrackedMutex<kClass>::lock()
// acquires LatchClassCap<kClass>::token alongside the mutex instance, which
// buys two compile-time guarantees the instance capability alone cannot
// express:
//
//  * EXCLUDES over a whole class: DiskManager::ReadPage cannot name "any of
//    the pool's N shard mutexes", but it can (and does) exclude
//    LatchClassCap<LatchClass::kBufferPool>::token, which is held whenever
//    any shard latch is held.
//  * Same-class nesting ban: acquiring a second mutex of a class re-acquires
//    the class token, which Clang rejects — the static twin of the runtime
//    LatchOrderChecker's same-class rule.
//
// The tokens are pure compile-time phantoms: empty structs never referenced
// at runtime (the attributes are the only consumers). Single `auto`
// parameter so the spelling stays comma-free inside attribute macros.
template <auto kClass>
struct LatchClassCap {
  struct TURBOBP_CAPABILITY("latch-class") Token {};
  static inline Token token;
};

// Names the phantom class token inside capability attributes, e.g.
//   void ReadPage(...) TURBOBP_EXCLUDES(
//       TURBOBP_LATCH_CAP(LatchClass::kBufferPool));
#define TURBOBP_LATCH_CAP(cls) (::turbobp::LatchClassCap<(cls)>::token)

}  // namespace turbobp

#endif  // TURBOBP_COMMON_THREAD_ANNOTATIONS_H_
