// The benchmark's workloads.  Each one turns a workload seed into a fixed
// list of trials (set-up), then runs any trial on demand, timing every
// public simulator call it makes as a span when handed a tracer and
// checking the trial's own output.
//
//   upset_sweep      fig4_8's MP3 pipeline on a 4x4 mesh under upsets
//   dense_broadcast  one fault-free broadcast on a 32x32 mesh, to quiescence
//   router_mesh      one 5x5 traffic trace through five router backends
//
// See perfbench/README.md for why each was chosen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_math.hpp"

namespace perfbench {

/// Every simulated statistic of one trial, by name, in a fixed order.
/// These are simulated quantities, never host times, so they repeat
/// exactly for a fixed seed.
using Stats = std::vector<std::pair<std::string, std::uint64_t>>;

struct TrialResult {
    bool ok{false};          ///< ran without throwing and passed its check.
    std::string error;       ///< why not, when !ok.
    double host_seconds{0.0};
    std::uint64_t packets{0}; ///< simulated link transmissions (or hops).
    Stats stats;
    std::vector<Span> spans; ///< empty unless traced.
};

class Workload {
public:
    virtual ~Workload() = default;

    virtual std::string_view name() const = 0;
    /// Sweep cells; trial i belongs to cell i % cells().
    virtual std::size_t cells() const = 0;
    /// Expected single-worker trial rate; sizes the trial list from the
    /// requested seconds without reading any clock.
    virtual double nominal_trials_per_s() const = 0;

    /// Set-up: derive `n_trials` trial inputs from `seed`.
    virtual void build_inputs(std::uint64_t seed, std::size_t n_trials) = 0;

    /// Run trial `index` (< n_trials).  Thread-safe across distinct
    /// indices: every trial owns its network.  Never throws; a throw
    /// inside the simulator comes back as !ok.
    TrialResult run(std::size_t index, bool traced) const;

protected:
    /// Workload body: fill `out.stats` / `out.packets`, return "" when the
    /// trial's output check passes or the reason it failed.
    virtual std::string run_trial(std::size_t index, Tracer* tracer,
                                  TrialResult& out) const = 0;
};

std::vector<std::string> workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

/// FNV-1a over every (name, value) of every trial, in trial order: the
/// digest of all simulated statistics a run produced.
std::uint64_t digest(const std::vector<TrialResult>& results);

// --- Single-call replays for the per-layer metrics -------------------------

/// Mean host microseconds of one FaultInjector::apply_upset (default
/// RandomBitError model) on a wire of `wire_bytes` bytes.
double replay_upset_us(std::size_t wire_bytes, std::uint64_t seed);
/// Mean host nanoseconds of one Packet::encode of a message whose wire
/// image is `wire_bytes` bytes long.
double replay_encode_ns(std::size_t wire_bytes, std::uint64_t seed);
/// Mean host nanoseconds of one Packet::decode_wire of such a wire image.
double replay_decode_ns(std::size_t wire_bytes, std::uint64_t seed);

} // namespace perfbench
