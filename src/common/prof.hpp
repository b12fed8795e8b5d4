// Wall-clock profiling scopes for the simulator itself.
//
// `SNOC_PROF("engine/forward")` drops an RAII timer into a block; when
// profiling is enabled (--prof, or prof::set_enabled(true)) every entry
// accumulates call count and elapsed seconds under its label, merged
// across threads.  When disabled a scope costs one relaxed atomic load
// and a branch — cheap enough to leave in the engine's hot phases.
//
// These timers measure the *simulator*, never the simulation: no value
// read from the clock can reach a RunReport, a metric, or any seeded
// decision.  That is why the steady_clock use below carries a justified
// entry in scripts/determinism_allowlist.txt.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace snoc::prof {

namespace detail {
inline std::atomic<bool> g_enabled{false};
void record(const char* name, double seconds);
} // namespace detail

inline bool enabled() {
    return detail::g_enabled.load(
        std::memory_order_relaxed); // relaxed[enable-flag]
}

void set_enabled(bool on);

struct Stat {
    std::uint64_t calls{0};
    double seconds{0.0};
};

/// Merged view over every thread's accumulators (ordered by label).
std::map<std::string, Stat> snapshot();

/// Drop all accumulated stats (tests; between benchmark repetitions).
void reset();

/// Human-readable table of snapshot(), sorted by total time, one line per
/// label; empty string when nothing was recorded.
std::string report();

/// Machine-readable snapshot() — schema "snoc-prof-v1", one entry per
/// label in label order, so two dumps of identical stats are
/// byte-identical.  Always returns a full document (empty `entries`
/// when nothing was recorded) so --prof-out files always parse.
std::string json_report();

/// json_report() written to `path` (bench_util's --prof-out atexit hook).
void write_json_report(const std::string& path);

class Scope {
public:
    /// A null `name` records nothing.
    explicit Scope(const char* name) {
        if (name != nullptr && enabled()) {
            name_ = name;
            start_ = std::chrono::steady_clock::now();
        }
    }
    ~Scope() {
        if (!name_) return;
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        detail::record(name_,
                       std::chrono::duration<double>(elapsed).count());
    }
    /// Record nothing for this entry (its work is timed elsewhere).
    void discard() { name_ = nullptr; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    const char* name_{nullptr};
    std::chrono::steady_clock::time_point start_{};
};

} // namespace snoc::prof

#define SNOC_PROF_CONCAT2(a, b) a##b
#define SNOC_PROF_CONCAT(a, b) SNOC_PROF_CONCAT2(a, b)
#define SNOC_PROF(name) \
    ::snoc::prof::Scope SNOC_PROF_CONCAT(snoc_prof_scope_, __COUNTER__)(name)
