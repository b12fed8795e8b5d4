// snoc_trace — query a JSONL trace dump produced with --trace-out, or a
// post-mortem bundle produced with --postmortem-out (the bundle's header
// line is recognised automatically; its event lines share the dialect).
//
//   snoc_trace summary   run.jsonl            headline counters + kind histogram
//   snoc_trace rounds    run.jsonl            per-round kind table
//   snoc_trace lifeline  run.jsonl 5:12       every event touching message 5:12
//   snoc_trace top-tiles run.jsonl [K]        K lossiest tiles (default 10)
//   snoc_trace top-links run.jsonl [K]        K busiest directed links (default 10)
//   snoc_trace header    run.postmortem.jsonl why the trial died (bundle header)
//
// Every command accepts --last-rounds=N (keep only the N highest rounds)
// and --since-round=N (drop everything before round N) to focus on the
// window around a failure.  An unknown flag or a value that is not a
// non-negative integer exits 2 naming the flag; so does a K that is not
// one.
//
// The heavy lifting lives in src/telemetry/query.{hpp,cpp} so tests can
// exercise the exact code this binary runs.
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "telemetry/query.hpp"

namespace {

int usage() {
    std::cerr
        << "usage: snoc_trace <command> <trace.jsonl> [args] "
           "[--last-rounds=N] [--since-round=N]\n"
           "  summary   <trace.jsonl>          counters + kind histogram\n"
           "  rounds    <trace.jsonl>          per-round kind table\n"
           "  lifeline  <trace.jsonl> <o:seq>  one message's event history\n"
           "  top-tiles <trace.jsonl> [K]      lossiest tiles (default 10)\n"
           "  top-links <trace.jsonl> [K]      busiest links (default 10)\n"
           "  header    <bundle.jsonl>         post-mortem bundle header\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    const snoc::CliArgs args(argc, argv);
    snoc::reject_unknown_flags(args, {"last-rounds", "since-round"});
    const auto since_round = snoc::flag_u64(args, "since-round", 0);
    const auto last_rounds = snoc::flag_u64(args, "last-rounds", 0);
    const auto& positional = args.positional();
    if (positional.size() < 2) return usage();
    const std::string& command = positional[0];
    const std::string& path = positional[1];
    std::size_t k = 10;
    if ((command == "top-tiles" || command == "top-links") && positional.size() >= 3) {
        const auto parsed = snoc::parse_u64(positional[2]);
        if (!parsed) {
            std::cerr << "snoc_trace: K takes a non-negative integer, not '" << positional[2]
                      << "'\n";
            return 2;
        }
        k = static_cast<std::size_t>(*parsed);
    }

    auto loaded = snoc::tracequery::load_jsonl_file(path);
    if (loaded.events.empty() && loaded.skipped == 0 && !loaded.postmortem) {
        std::cerr << "snoc_trace: no events loaded from " << path << '\n';
        return 1;
    }
    if (loaded.skipped > 0)
        std::cerr << "snoc_trace: warning: skipped " << loaded.skipped
                  << " malformed line(s)\n";

    if (args.has("since-round"))
        loaded.events = snoc::tracequery::since_round(
            loaded.events, static_cast<snoc::Round>(since_round));
    if (args.has("last-rounds"))
        loaded.events = snoc::tracequery::last_rounds(
            loaded.events, static_cast<std::size_t>(last_rounds));

    if (command == "header") {
        if (!loaded.postmortem) {
            std::cerr << "snoc_trace: " << path
                      << " carries no post-mortem header\n";
            return 1;
        }
        std::cout << snoc::tracequery::header_summary(*loaded.postmortem);
        return 0;
    }
    // A bundle's provenance is worth one stderr line even when the user
    // asked for an event-level view.
    if (loaded.postmortem)
        std::cerr << "snoc_trace: post-mortem bundle (reason: "
                  << loaded.postmortem->reason << ")\n";

    if (command == "summary") {
        std::cout << snoc::tracequery::summary(loaded.events);
        return 0;
    }
    if (command == "rounds") {
        std::cout << snoc::tracequery::per_round(loaded.events);
        return 0;
    }
    if (command == "lifeline") {
        if (positional.size() < 3) return usage();
        const auto id = snoc::tracequery::parse_message_id(positional[2]);
        if (!id) {
            std::cerr << "snoc_trace: bad message id '" << positional[2]
                      << "' (want origin:sequence, e.g. 5:12)\n";
            return 2;
        }
        std::cout << snoc::tracequery::lifeline(loaded.events, *id);
        return 0;
    }
    if (command == "top-tiles" || command == "top-links") {
        std::cout << (command == "top-tiles"
                          ? snoc::tracequery::top_tiles(loaded.events, k)
                          : snoc::tracequery::top_links(loaded.events, k));
        return 0;
    }
    return usage();
}
