#include "common/cli.hpp"

#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace snoc {
namespace {

CliArgs make(std::vector<std::string> args) {
    static std::vector<std::string> storage;
    storage = std::move(args);
    storage.insert(storage.begin(), "prog");
    std::vector<char*> argv;
    for (auto& s : storage) argv.push_back(s.data());
    return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, BareFlags) {
    const auto args = make({"--csv", "--verbose"});
    EXPECT_TRUE(args.has("csv"));
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_FALSE(args.has("seed"));
    EXPECT_FALSE(args.value("csv").has_value());
    EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, EqualsSyntax) {
    const auto args = make({"--seed=42", "--p=0.75", "--name=fig4_4"});
    EXPECT_EQ(flag_u64(args, "seed", 0), 42u);
    EXPECT_DOUBLE_EQ(flag_double(args, "p", 0.0), 0.75);
    EXPECT_EQ(args.get_string("name", ""), "fig4_4");
}

TEST(Cli, SpaceSyntax) {
    const auto args = make({"--repeats", "12", "--csv"});
    EXPECT_EQ(flag_u64(args, "repeats", 0), 12u);
    EXPECT_TRUE(args.has("csv"));
}

TEST(Cli, PositionalArguments) {
    const auto args = make({"input.cnf", "--seed=1", "out.csv"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "input.cnf");
    EXPECT_EQ(args.positional()[1], "out.csv");
}

TEST(Cli, DefaultsWhenAbsent) {
    const auto args = make({});
    EXPECT_EQ(flag_u64(args, "seed", 7), 7u);
    EXPECT_DOUBLE_EQ(flag_double(args, "p", 0.5), 0.5);
    EXPECT_EQ(args.get_string("name", "x"), "x");
}

TEST(CliDeathTest, MalformedNumbersExitTwo) {
    const auto args = make({"--seed=abc", "--p=1.2.3", "--q"});
    EXPECT_EXIT(flag_u64(args, "seed", 0), ::testing::ExitedWithCode(2),
                "prog: --seed takes a non-negative integer, not 'abc'");
    EXPECT_EXIT(flag_double(args, "p", 0.0), ::testing::ExitedWithCode(2),
                "prog: --p takes a number, not '1.2.3'");
    EXPECT_EXIT(flag_double(args, "q", 0.0), ::testing::ExitedWithCode(2),
                "prog: --q needs a value");
    EXPECT_EXIT(reject_unknown_flags(args, {"seed", "p"}), ::testing::ExitedWithCode(2),
                "prog: unknown flag --q");
}

TEST(Cli, UnknownOptionDetection) {
    const auto args = make({"--csv", "--sedd=1"});
    const auto unknown = args.unknown_options({"csv", "seed", "repeats"});
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "sedd");
}

TEST(Cli, LastValueWins) {
    const auto args = make({"--seed=1", "--seed=2"});
    EXPECT_EQ(flag_u64(args, "seed", 0), 2u);
}

TEST(BenchOptions, DefaultsWhenNoFlags) {
    const auto opt = parse_bench_options(make({}), 12);
    EXPECT_FALSE(opt.csv);
    EXPECT_FALSE(opt.json);
    EXPECT_EQ(opt.repeats, 12u);
    EXPECT_GE(opt.jobs, 1u);
    EXPECT_EQ(opt.seed, 0u);
}

TEST(BenchOptions, ParsesTheUniformFlagSet) {
    const auto opt = parse_bench_options(
        make({"--csv", "--repeats=7", "--jobs=3", "--seed=42"}), 12);
    EXPECT_TRUE(opt.csv);
    EXPECT_FALSE(opt.json);
    EXPECT_EQ(opt.repeats, 7u);
    EXPECT_EQ(opt.jobs, 3u);
    EXPECT_EQ(opt.seed, 42u);
}

TEST(BenchOptions, JsonFlag) {
    const auto opt = parse_bench_options(make({"--json"}), 1);
    EXPECT_TRUE(opt.json);
    EXPECT_FALSE(opt.csv);
}

TEST(BenchOptionsDeathTest, ZeroCountExitsTwoNamingTheFlag) {
    EXPECT_EXIT(parse_bench_options(make({"--repeats=0"}), 9),
                ::testing::ExitedWithCode(2), "prog: --repeats must be at least 1");
    EXPECT_EXIT(parse_bench_options(make({"--jobs", "0"}), 9),
                ::testing::ExitedWithCode(2), "prog: --jobs must be at least 1");
    EXPECT_EXIT(parse_bench_options(make({"--flight-capacity=0"}), 9),
                ::testing::ExitedWithCode(2), "prog: --flight-capacity must be at least 1");
}

TEST(BenchOptionsDeathTest, BadOrMissingValueExitsTwoNamingTheFlag) {
    EXPECT_EXIT(parse_bench_options(make({"--jobs", "abc"}), 9),
                ::testing::ExitedWithCode(2),
                "prog: --jobs takes a non-negative integer, not 'abc'");
    EXPECT_EXIT(parse_bench_options(make({"--seed=-3"}), 9), ::testing::ExitedWithCode(2),
                "prog: --seed takes a non-negative integer, not '-3'");
    EXPECT_EXIT(parse_bench_options(make({"--csv", "--seed"}), 9),
                ::testing::ExitedWithCode(2), "prog: --seed needs a value");
    EXPECT_EXIT(parse_bench_options(make({"--trace-out"}), 9), ::testing::ExitedWithCode(2),
                "prog: --trace-out needs a value");
    EXPECT_EXIT(parse_bench_options(make({"--csv=yes"}), 9), ::testing::ExitedWithCode(2),
                "prog: --csv takes no value, got 'yes'");
    EXPECT_EXIT(parse_bench_options(make({"5", "--repeats", "1"}), 9),
                ::testing::ExitedWithCode(2), "prog: unexpected argument '5'");
    EXPECT_EXIT(flag_u64(make({"--ttl", "4x"}), "ttl", 512), ::testing::ExitedWithCode(2),
                "prog: --ttl takes a non-negative integer, not '4x'");
    EXPECT_EQ(flag_u64(make({}), "ttl", 512), 512u);
}

TEST(BenchOptions, RequestedFlagsNameEveryTelemetryExport) {
    EXPECT_TRUE(parse_bench_options(make({"--csv", "--manifest", "--prof"}), 1)
                    .telemetry.requested_flags()
                    .empty());
    const auto opt = parse_bench_options(
        make({"--metrics-out=m.json", "--trace-out", "t.jsonl", "--chrome-out=c.json",
              "--heatmap-out=h.csv", "--heartbeat-out=hb.jsonl",
              "--postmortem-out=pm.jsonl"}),
        1);
    const std::vector<std::string> expected = {
        "--trace-out",     "--chrome-out",    "--heatmap-out",
        "--postmortem-out", "--heartbeat-out", "--metrics-out"};
    EXPECT_EQ(opt.telemetry.requested_flags(), expected);
}

// A bench with two sweeps tags each sweep's exports; a dot before the
// file name's last slash is no extension ("./trace" once became
// "_xy./trace", which no stream can open).
TEST(BenchOptions, TagTelemetryTagsTheFileNameNotADirectory) {
    TelemetryOptions options;
    options.trace_jsonl_out = "run.jsonl";
    options.chrome_out = "./trace";
    options.heatmap_out = "out.d/run";
    const TelemetryOptions tagged = bench::tag_telemetry(options, "_xy");
    EXPECT_EQ(tagged.trace_jsonl_out, "run_xy.jsonl");
    EXPECT_EQ(tagged.chrome_out, "./trace_xy");
    EXPECT_EQ(tagged.heatmap_out, "out.d/run_xy");
    EXPECT_EQ(tagged.postmortem_out, "");
}

TEST(BenchOptionsDeathTest, RetiredEngineFlagExitsTwoNamingIt) {
    EXPECT_EXIT(reject_engine_selector(make({"--engine", "event"}), "bench"),
                ::testing::ExitedWithCode(2), "bench: --engine is not supported");
    // The statement runs in the death test's child, so the variable never
    // reaches this process.
    EXPECT_EXIT(
        {
            setenv("SNOC_ENGINE", "lockstep", 1);
            reject_engine_selector(make({}), "bench");
        },
        ::testing::ExitedWithCode(2), "bench: SNOC_ENGINE is not supported");
}

} // namespace
} // namespace snoc
