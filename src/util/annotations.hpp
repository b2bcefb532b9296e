#pragma once
/// \file annotations.hpp
/// Source-level contract markers enforced by the repo's static-analysis
/// gate (tools/lint/invariant_lint.py, run by ctest and CI).
///
/// SOCPINN_HOT — annotates a function DEFINITION as part of the serve
/// stack's allocation-free steady state: tick/roll/drain/publish/consume
/// bodies and the panel kernels. Two enforcement layers share the marker:
///
///   * statically, the invariant linter rejects allocation constructs
///     (new, make_unique/make_shared, push_back/resize/reserve/...,
///     std::string / std::to_string construction, local std::vector)
///     anywhere in the annotated body — the lexical complement of the
///     dynamic counting-operator-new probe in
///     tests/serve/test_alloc_free.cpp, catching regressions on EVERY
///     path at PR time instead of only the paths a test exercises;
///   * to the compiler it expands to [[gnu::hot]], a pure optimization
///     hint (hot section placement, more aggressive inlining budget)
///     that never changes results — the f64 bitwise-parity suites pin
///     that.
///
/// Warm-capacity idioms (a resize/push_back that provably reuses
/// capacity after the engines' one-time warm-up) are waived PER LINE
/// with a justified comment the linter validates:
///
///     // SOCPINN_HOT_ALLOW(resize): reuses warm capacity, shape fixed
///     scratch.input.resize(4, count);
///
/// The construct name must match and the reason must be non-empty; a
/// bare waiver is a lint error, and so is a stale one — outside any
/// SOCPINN_HOT body, or naming a construct the covered line no longer
/// holds. Annotate definitions (the linter scans
/// the body after the marker); declarations may carry it too but are
/// skipped. Keep the marker FIRST on the declaration line, next to any
/// other attributes.
///
/// SOCPINN_SEQLOCK_WRITER — a lint waiver (comment marker, not a macro)
/// for the seqlock-discipline check: a seqlock publication call
/// (`.publish(...)` / `.publish_*(...)`) is only legal inside a function
/// itself named `publish*`, OR on a line covered by
///
///     // SOCPINN_SEQLOCK_WRITER(owner): reason
///     model_region_.publish(blob);
///
/// naming the single owning writer surface. Anything else is a second
/// writer sneaking into a single-writer protocol and is rejected.
///
/// Thread-safety capability macros — Clang's -Wthread-safety vocabulary
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), compiled to
/// nothing under GCC and MSVC. The annotated primitives live in
/// util/sync.hpp (Mutex, MutexLock, CondVar, ThreadRole, RoleGuard);
/// serve/ and core/ use THESE macros, never raw __attribute__ spellings,
/// so the no-op fallback stays in one place. CI builds clang with
/// -Wthread-safety -Wthread-safety-beta (errors under SOCPINN_WERROR),
/// so a data member read without its guarding mutex, or a REQUIRES
/// helper called off its declared surface, fails the build — the static
/// complement of the TSan job, covering every path instead of only the
/// interleavings a stress test happens to schedule.

#if defined(__clang__)
#define SOCPINN_TSA(x) __attribute__((x))
#else
#define SOCPINN_TSA(x)  // no-op: GCC/MSVC have no thread-safety analysis
#endif

/// Marks a type as a capability (lockable, or a phantom role — see
/// util::ThreadRole). The string names the capability kind in warnings.
#define SOCPINN_CAPABILITY(x) SOCPINN_TSA(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases
/// a capability (util::MutexLock, util::RoleGuard).
#define SOCPINN_SCOPED_CAPABILITY SOCPINN_TSA(scoped_lockable)

/// Data member may only be touched while holding capability x.
#define SOCPINN_GUARDED_BY(x) SOCPINN_TSA(guarded_by(x))

/// Pointer member: the POINTED-TO data requires capability x.
#define SOCPINN_PT_GUARDED_BY(x) SOCPINN_TSA(pt_guarded_by(x))

/// Function precondition: caller must already hold the capabilities.
#define SOCPINN_REQUIRES(...) SOCPINN_TSA(requires_capability(__VA_ARGS__))

/// Function acquires the capabilities (held on return, not on entry).
#define SOCPINN_ACQUIRE(...) SOCPINN_TSA(acquire_capability(__VA_ARGS__))

/// Function releases the capabilities (held on entry, not on return).
#define SOCPINN_RELEASE(...) SOCPINN_TSA(release_capability(__VA_ARGS__))

/// Function must NOT be called with the capabilities held (deadlock
/// guard for self-locking public entry points).
#define SOCPINN_EXCLUDES(...) SOCPINN_TSA(locks_excluded(__VA_ARGS__))

/// Getter returns a reference to the named capability.
#define SOCPINN_RETURN_CAPABILITY(x) SOCPINN_TSA(lock_returned(x))

/// Escape hatch: disable the analysis inside one function. Use only with
/// a comment explaining why the contract holds anyway.
#define SOCPINN_NO_TSA SOCPINN_TSA(no_thread_safety_analysis)

#define SOCPINN_HOT [[gnu::hot]]
