// Clang thread-safety annotations + the annotated lock vocabulary.
//
// The simulator's shared-state concurrency — the ThreadPool behind
// run_trials, the ScenarioRunner's progress ledger, HeartbeatWriter, the
// prof registry — is protected by mutexes whose *discipline* used to
// live only in comments and in whatever races a TSan run happened to
// execute.  This header turns that discipline into a compile-time
// contract: under Clang, `-Wthread-safety`
// (the `SNOC_THREAD_SAFETY` CMake option, `-Werror` on the CI leg)
// proves every access to a `SNOC_GUARDED_BY` member happens with its
// capability held, every `SNOC_REQUIRES` function is called under the
// right lock, and every acquire has a release.  On other compilers the
// macros expand to nothing — annotations are zero-cost by construction
// (BM_GossipRound / BM_GossipRoundRecorded pin this).
//
// Usage recipe (enforced by snoc_lint's `concurrency` family, see
// DESIGN.md §16):
//   * a lock-protected class owns a `snoc::Mutex` (never a bare
//     `std::mutex` — rule conc-raw-mutex) and marks every member that
//     lock protects with `SNOC_GUARDED_BY(mutex_)` (rule conc-guarded-by);
//   * critical sections use `snoc::LockGuard`, condition waits use
//     `snoc::UniqueLock` + `snoc::CondVar` with an explicit re-check
//     loop (`while (!pred) cv.wait(lock);` — spurious wakeups, and the
//     loop keeps the guarded reads visible to the analysis, which does
//     not look inside wait-predicate lambdas);
//   * private `do_x_locked()` helpers declare `SNOC_REQUIRES(mutex_)`
//     instead of re-locking;
//   * members on deliberately lock-free paths stay `std::atomic`, and
//     every `memory_order_relaxed` site carries a `relaxed[tag]`
//     justification checked against scripts/ordering_allowlist.txt
//     (rule conc-relaxed-unjustified).
#pragma once

#include <condition_variable>
#include <mutex>

// Annotations are attributes under Clang, nothing elsewhere (GCC parses
// but ignores most of them and warns; MSVC has a different spelling).
#if defined(__clang__)
#define SNOC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SNOC_THREAD_ANNOTATION(x)
#endif

/// Declares a type to be a capability (a lock, in every use here).
#define SNOC_CAPABILITY(x) SNOC_THREAD_ANNOTATION(capability(x))
/// RAII types that acquire on construction and release on destruction.
#define SNOC_SCOPED_CAPABILITY SNOC_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the capability held.
#define SNOC_GUARDED_BY(x) SNOC_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is protected by the capability.
#define SNOC_PT_GUARDED_BY(x) SNOC_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function that must be called with the capability already held.
#define SNOC_REQUIRES(...) \
    SNOC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that acquires the capability and holds it on return.
#define SNOC_ACQUIRE(...) \
    SNOC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases a held capability.
#define SNOC_RELEASE(...) \
    SNOC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that acquires the capability iff it returns `value`.
#define SNOC_TRY_ACQUIRE(...) \
    SNOC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function that must NOT be called with the capability held (deadlock
/// documentation: public entry points of self-locking classes).
#define SNOC_EXCLUDES(...) SNOC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Static lock-ordering declarations.
#define SNOC_ACQUIRED_BEFORE(...) \
    SNOC_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SNOC_ACQUIRED_AFTER(...) \
    SNOC_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Function returning a reference to the named capability.
#define SNOC_RETURN_CAPABILITY(x) SNOC_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch — each use needs a comment saying why the analysis is
/// wrong about the code, not the other way around.  Currently unused.
#define SNOC_NO_THREAD_SAFETY_ANALYSIS \
    SNOC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace snoc {

/// `std::mutex` as a named capability.  `native()` exists solely so
/// UniqueLock can hand the underlying handle to std::condition_variable;
/// locking through it would be invisible to the analysis, so don't.
class SNOC_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() SNOC_ACQUIRE() { mu_.lock(); }
    void unlock() SNOC_RELEASE() { mu_.unlock(); }
    bool try_lock() SNOC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    std::mutex& native() { return mu_; }

private:
    std::mutex mu_;
};

/// std::lock_guard over a Mutex, visible to the analysis.
class SNOC_SCOPED_CAPABILITY LockGuard {
public:
    explicit LockGuard(Mutex& mu) SNOC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~LockGuard() SNOC_RELEASE() { mu_.unlock(); }
    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

private:
    Mutex& mu_;
};

/// std::unique_lock over a Mutex, for condition waits.  Only CondVar may
/// unlock/relock it (inside wait); the analysis models the capability as
/// held for the whole scope, which is exactly the contract a correct
/// `while (!pred) wait;` loop provides — the predicate is always
/// evaluated under the lock.
class SNOC_SCOPED_CAPABILITY UniqueLock {
public:
    explicit UniqueLock(Mutex& mu) SNOC_ACQUIRE(mu) : lock_(mu.native()) {}
    ~UniqueLock() SNOC_RELEASE() {}
    UniqueLock(const UniqueLock&) = delete;
    UniqueLock& operator=(const UniqueLock&) = delete;

    std::unique_lock<std::mutex>& native() { return lock_; }

private:
    std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable bound to the annotated lock types.  Waits
/// take the UniqueLock so a caller cannot wait on a lock the analysis
/// never saw acquired.  No predicate overload on purpose: the analysis
/// cannot see through a predicate lambda, so waits are written as
/// explicit re-check loops (see the header comment).
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    void wait(UniqueLock& lock) {
        // NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions): the
        // re-check loop lives at every call site by contract (no
        // predicate overload exists, so callers *must* loop).
        cv_.wait(lock.native());
    }
    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

} // namespace snoc
