#include "common/prof.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/annotations.hpp"

namespace snoc::prof {

namespace {

// Per-thread accumulators behind a shared_ptr so a thread's stats survive
// its exit (ThreadPool workers come and go across snapshot() calls).  The
// per-thread mutex is uncontended on the hot record() path; the global
// one is only taken on first use per thread and in snapshot()/reset().
struct ThreadRecords {
    Mutex mu;
    std::map<std::string, Stat> stats SNOC_GUARDED_BY(mu);
};

// Deliberately immortal (never destroyed): --prof reports via atexit, and
// these statics are first touched mid-run — after that handler registers —
// so destroying them at exit would run before the handler reads them.
Mutex& registry_mutex() {
    static Mutex* mu = new Mutex;
    return *mu;
}

std::vector<std::shared_ptr<ThreadRecords>>& registry()
    SNOC_REQUIRES(registry_mutex()) {
    static auto* threads = new std::vector<std::shared_ptr<ThreadRecords>>;
    return *threads;
}

ThreadRecords& local_records() {
    thread_local std::shared_ptr<ThreadRecords> records = [] {
        auto r = std::make_shared<ThreadRecords>();
        LockGuard lock(registry_mutex());
        registry().push_back(r);
        return r;
    }();
    return *records;
}

} // namespace

void detail::record(const char* name, double seconds) {
    auto& records = local_records();
    LockGuard lock(records.mu);
    Stat& stat = records.stats[name];
    ++stat.calls;
    stat.seconds += seconds;
}

void set_enabled(bool on) {
    detail::g_enabled.store(on,
                            std::memory_order_relaxed); // relaxed[enable-flag]
}

std::map<std::string, Stat> snapshot() {
    std::map<std::string, Stat> merged;
    LockGuard lock(registry_mutex());
    for (const auto& records : registry()) {
        LockGuard inner(records->mu);
        for (const auto& [name, stat] : records->stats) {
            Stat& out = merged[name];
            out.calls += stat.calls;
            out.seconds += stat.seconds;
        }
    }
    return merged;
}

void reset() {
    LockGuard lock(registry_mutex());
    for (const auto& records : registry()) {
        LockGuard inner(records->mu);
        records->stats.clear();
    }
}

std::string report() {
    const auto stats = snapshot();
    if (stats.empty()) return {};
    std::vector<std::pair<std::string, Stat>> rows(stats.begin(), stats.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        if (a.second.seconds != b.second.seconds)
            return a.second.seconds > b.second.seconds;
        return a.first < b.first;
    });
    std::ostringstream os;
    os << "profile (wall-clock, merged across threads):\n";
    char buf[160];
    for (const auto& [name, stat] : rows) {
        const double avg_us =
            stat.calls ? stat.seconds * 1e6 / static_cast<double>(stat.calls)
                       : 0.0;
        std::snprintf(buf, sizeof buf, "  %-24s %12llu calls %12.6f s %10.3f us/call\n",
                      name.c_str(),
                      static_cast<unsigned long long>(stat.calls),
                      stat.seconds, avg_us);
        os << buf;
    }
    return os.str();
}

std::string json_report() {
    const auto stats = snapshot();
    std::ostringstream os;
    os << "{\n  \"schema\": \"snoc-prof-v1\",\n  \"entries\": {";
    bool first = true;
    for (const auto& [name, stat] : stats) {
        os << (first ? "\n" : ",\n");
        first = false;
        char buf[96];
        std::snprintf(buf, sizeof buf, "{\"calls\": %llu, \"seconds\": %.9f}",
                      static_cast<unsigned long long>(stat.calls),
                      stat.seconds);
        os << "    \"" << name << "\": " << buf;
    }
    os << (first ? "}" : "\n  }") << "\n}\n";
    return os.str();
}

void write_json_report(const std::string& path) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << json_report();
}

} // namespace snoc::prof
