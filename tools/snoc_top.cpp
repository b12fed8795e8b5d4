// snoc_top — live terminal summary of a running sweep.
//
// Tails the JSONL heartbeat file a ScenarioRunner writes when launched
// with --heartbeat-out, rendering the newest record as a small dashboard
// (cell/trial progress bars, rounds/s, ETA, post-mortem alerts) that
// refreshes in place until the sweep's final `done` heartbeat arrives.
//
//   snoc_top sweep.heartbeat.jsonl                 # follow until done
//   snoc_top sweep.heartbeat.jsonl --once          # one render (CI-safe)
//   snoc_top sweep.heartbeat.jsonl --interval-ms 500 --max-seconds 60
//
// --once never waits: it renders whatever the file holds right now (or
// "no heartbeats yet") and exits 0, so CI smoke steps can assert on the
// output without racing the producer.  Follow mode exits 0 on the done
// record and 1 if --max-seconds elapses first.  An unknown flag or a value
// that is not a number exits 2 naming the flag.
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "telemetry/heartbeat.hpp"

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " <heartbeat.jsonl> [--once] [--interval-ms N]"
                 " [--max-seconds N] [--no-clear]\n";
    return 2;
}

void render(const std::vector<snoc::HeartbeatRecord>& records, bool clear) {
    // ANSI home+clear keeps the dashboard in place; --no-clear appends
    // frames instead (plays nicer with logs and non-terminals).
    if (clear) std::cout << "\x1b[H\x1b[2J";
    snoc::render_top(records, std::cout);
    std::cout.flush();
}

} // namespace

int main(int argc, char** argv) {
    const snoc::CliArgs args(argc, argv);
    snoc::reject_unknown_flags(args, {"once", "interval-ms", "max-seconds", "no-clear"});
    const auto interval =
        std::chrono::milliseconds(snoc::flag_u64(args, "interval-ms", 1000));
    const double max_seconds =
        snoc::flag_double(args, "max-seconds", 0.0); // 0 = no deadline
    if (args.positional().size() != 1) return usage(argv[0]);
    const std::string path = args.positional()[0];
    const bool once = args.has("once");
    const bool clear = !args.has("no-clear") && !once;

    if (once) {
        render(snoc::load_heartbeats_file(path), false);
        return 0;
    }

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t last_seq = 0;
    bool rendered = false;
    for (;;) {
        const auto records = snoc::load_heartbeats_file(path);
        const std::uint64_t seq = records.empty() ? 0 : records.back().seq;
        if (!rendered || seq != last_seq) {
            render(records, clear);
            rendered = true;
            last_seq = seq;
        }
        if (!records.empty() && records.back().done) return 0;
        if (max_seconds > 0.0) {
            const double elapsed =
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
            if (elapsed >= max_seconds) {
                std::cerr << "snoc_top: no done heartbeat within "
                          << max_seconds << "s\n";
                return 1;
            }
        }
        std::this_thread::sleep_for(interval);
    }
}
