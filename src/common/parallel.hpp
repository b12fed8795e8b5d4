// Deterministic parallel Monte-Carlo trial fan-out.
//
// Every paper figure (Fig. 3-1, 4-4..4-11, 5-3) and every ablation is an
// average over seeds, and the trials are embarrassingly parallel: each
// one owns an independent GossipNetwork constructed from its trial
// index.  run_trials() executes fn(0), fn(1), ..., fn(n-1) on a shared
// thread pool and returns the results ordered by trial index, so the
// output is bit-identical regardless of worker count — jobs=1 and
// jobs=N interleave differently in time but never share RNG state, and
// every result lands in its own pre-allocated slot.
//
// Determinism contract (see DESIGN.md "Performance architecture"):
//   * fn must derive ALL randomness from its trial-index argument —
//     construct RngPool/RngStream/GossipNetwork *inside* fn, never
//     share a stream or a network across trials;
//   * fn must not mutate shared state (accumulate into the returned
//     value; aggregate after run_trials returns);
//   * under these rules, results[i] == fn(i) for every jobs value.
//
// Concurrency contract (see DESIGN.md §16): all shared state here is
// either a lock-free atomic with a justified ordering (`relaxed[...]`
// tags, scripts/ordering_allowlist.txt) or guarded by an annotated
// snoc::Mutex the Clang thread-safety analysis checks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/annotations.hpp"

namespace snoc {

/// Worker count used when the caller does not specify one:
/// the SNOC_JOBS environment variable if set (and a positive integer),
/// otherwise std::thread::hardware_concurrency(), otherwise 1.
std::size_t default_jobs();

/// A reusable fixed-size pool of worker threads.  Jobs are opaque
/// void() callables processed FIFO; completion is the caller's business
/// (run_trials uses a per-batch countdown, wait_idle() drains all).
class ThreadPool {
public:
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueue a job.  Never blocks; the queue is unbounded.
    void submit(std::function<void()> job) SNOC_EXCLUDES(mutex_);

    /// Block until the queue is empty and every worker is idle.
    void wait_idle() SNOC_EXCLUDES(mutex_);

    std::size_t size() const { return workers_.size(); }

    /// Process-wide pool sized by default_jobs(), created on first use.
    /// run_trials() draws its workers from here so repeated fan-outs
    /// reuse threads instead of spawning fresh ones per sweep point.
    static ThreadPool& shared();

private:
    void worker_loop() SNOC_EXCLUDES(mutex_);

    mutable Mutex mutex_;
    CondVar work_cv_;
    CondVar idle_cv_;
    std::deque<std::function<void()>> queue_ SNOC_GUARDED_BY(mutex_);
    /// Spawned in the constructor, joined in the destructor — both
    /// single-threaded phases, so no lock guards the vector itself
    /// (allowlisted: scripts/concurrency_allowlist.txt).
    std::vector<std::thread> workers_;
    std::size_t active_ SNOC_GUARDED_BY(mutex_){0};
    bool stop_ SNOC_GUARDED_BY(mutex_){false};
};

/// Run fn(0..n_trials-1) with up to `jobs` workers (0 = default_jobs())
/// and return the results in trial order.  The calling thread always
/// participates as one of the workers, so jobs=1 degenerates to the
/// plain serial loop with zero synchronisation overhead.  The result
/// type must be default-constructible (slots are pre-allocated).
/// The first exception thrown by any trial is rethrown here after all
/// in-flight trials finish; remaining trials are abandoned.
template <typename Fn>
auto run_trials(std::size_t n_trials, Fn&& fn, std::size_t jobs = 0)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::uint64_t>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, std::uint64_t>>;
    if (jobs == 0) jobs = default_jobs();
    std::vector<R> results(n_trials);
    if (n_trials == 0) return results;
    if (jobs <= 1 || n_trials == 1) {
        for (std::uint64_t i = 0; i < n_trials; ++i)
            results[i] = fn(static_cast<std::uint64_t>(i));
        return results;
    }

    // Work-stealing over a shared atomic trial counter: each worker pulls
    // the next unclaimed index and writes fn(i) into its own slot.  Trial
    // order in `results` is by index, independent of scheduling.
    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> failed{false};
    // First-failure slot.  A named struct (not bare locals) so the
    // guarded_by relation is visible to the thread-safety analysis.
    struct ErrorSlot {
        Mutex mutex;
        std::exception_ptr first SNOC_GUARDED_BY(mutex);
    } error;
    auto work = [&] {
        for (;;) {
            const std::uint64_t i =
                next.fetch_add(1, std::memory_order_relaxed); // relaxed[claim-counter]
            if (i >= n_trials ||
                failed.load(std::memory_order_relaxed)) // relaxed[abort-flag]
                break;
            try {
                results[i] = fn(i);
            } catch (...) {
                LockGuard lock(error.mutex);
                if (!error.first) error.first = std::current_exception();
                failed.store(true, std::memory_order_relaxed); // relaxed[abort-flag]
            }
        }
    };

    // The caller is worker #1; helpers come from the shared pool.  Each
    // helper signals the countdown when it runs out of trials.  The
    // acq_rel countdown + the caller's acquire re-check publish every
    // helper's `results[i]` writes to the caller.  The last helper counts
    // down while holding the latch mutex: the caller can only see zero
    // once that helper is done with the latch, which lives on the
    // caller's stack and dies when run_trials returns.
    const std::size_t helpers = std::min(jobs, n_trials) - 1;
    std::atomic<std::size_t> remaining{helpers};
    struct DoneLatch {
        Mutex mutex;
        CondVar cv;
    } done;
    ThreadPool& pool = ThreadPool::shared();
    for (std::size_t h = 0; h < helpers; ++h) {
        pool.submit([&] {
            work();
            LockGuard lock(done.mutex);
            if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
                done.cv.notify_all();
        });
    }
    work();
    {
        UniqueLock lock(done.mutex);
        while (remaining.load(std::memory_order_acquire) != 0)
            done.cv.wait(lock);
    }
    std::exception_ptr first;
    {
        LockGuard lock(error.mutex);
        first = error.first;
    }
    if (first) std::rethrow_exception(first);
    return results;
}

} // namespace snoc
