#include "apps/mp3_decoder.hpp"

#include <gtest/gtest.h>

#include "apps/audio.hpp"
#include "apps/mp3_app.hpp"

namespace snoc::apps {
namespace {

GossipConfig clean_config() {
    GossipConfig c;
    c.forward_p = 0.75;
    c.default_ttl = 30;
    return c;
}

Mp3Config codec_config(std::size_t budget) {
    Mp3Config c;
    c.frame_samples = 64;
    c.frame_count = 8;
    c.frame_interval = 2;
    c.band_count = 8;
    c.frame_budget_bits = budget;
    c.reservoir_capacity = 2 * budget;
    return c;
}

/// Run the full pipeline and decode what the Output tile collected.
struct CodecRun {
    std::vector<double> reference;
    std::vector<double> decoded;
    std::size_t frames;
};

CodecRun run_codec(std::size_t budget, FaultScenario scenario, std::uint64_t seed,
                   Round skip_after = 0) {
    auto cfg = codec_config(budget);
    cfg.skip_after_rounds = skip_after;
    const std::uint64_t audio_seed = 7;
    GossipNetwork net(Topology::mesh(4, 4), clean_config(), scenario, seed);
    auto& output = deploy_mp3(net, cfg, Mp3Deployment{}, audio_seed);
    net.run_until([&output] { return output.complete(); }, 4000);

    CodecRun run;
    run.frames = output.frames_received();
    run.decoded =
        decode_stream_to_pcm(output.stream_chunks(), cfg.frame_samples, cfg.frame_count);
    // Regenerate the exact source audio (same generator, same seed).
    ToneGenerator gen(AudioParams{}, audio_seed);
    for (std::size_t f = 0; f < cfg.frame_count; ++f) {
        const auto frame = gen.frame(cfg.frame_samples);
        run.reference.insert(run.reference.end(), frame.begin(), frame.end());
    }
    return run;
}

TEST(Mp3Decoder, RoundtripHasReasonableSnr) {
    const auto run = run_codec(800, FaultScenario::none(), 1);
    ASSERT_EQ(run.frames, 8u);
    // Interior region: skip the zero-history ramp-in and the open tail.
    const double snr = snr_db(run.reference, run.decoded, 64, 7 * 64);
    EXPECT_GT(snr, 8.0) << "snr=" << snr;
}

TEST(Mp3Decoder, MoreBitsBetterAudio) {
    const auto coarse = run_codec(250, FaultScenario::none(), 2);
    const auto fine = run_codec(2000, FaultScenario::none(), 2);
    const double snr_coarse = snr_db(coarse.reference, coarse.decoded, 64, 7 * 64);
    const double snr_fine = snr_db(fine.reference, fine.decoded, 64, 7 * 64);
    EXPECT_GT(snr_fine, snr_coarse + 3.0);
}

TEST(Mp3Decoder, UpsetsDoNotCorruptAudioOnlyDelayIt) {
    FaultScenario s;
    s.p_upset = 0.5;
    // Upsets reorder arrivals at every stage; the encoder works in frame
    // order, so the coded audio must not depend on the network's timing.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const auto clean = run_codec(800, FaultScenario::none(), seed);
        const auto noisy = run_codec(800, s, seed);
        ASSERT_EQ(noisy.frames, 8u) << "seed " << seed;
        // CRC filtering means the decoded audio is bit-identical in content.
        EXPECT_EQ(clean.decoded, noisy.decoded) << "seed " << seed;
        const double snr_clean = snr_db(clean.reference, clean.decoded, 64, 7 * 64);
        const double snr_noisy = snr_db(noisy.reference, noisy.decoded, 64, 7 * 64);
        EXPECT_NEAR(snr_clean, snr_noisy, 1e-9) << "seed " << seed;
    }
}

TEST(Mp3Decoder, SkippedFramesDecodeAsSilence) {
    // Build one data chunk and one skip chunk by hand.
    std::vector<std::byte> skip_chunk;
    for (int i = 0; i < 4; ++i) skip_chunk.push_back(std::byte{0});
    skip_chunk.push_back(std::byte{1}); // skip marker
    EXPECT_FALSE(decode_stream_chunk(skip_chunk).has_value());
}

TEST(Mp3Decoder, MalformedChunksRejected) {
    EXPECT_FALSE(decode_stream_chunk({}).has_value());
    std::vector<std::byte> junk(3, std::byte{0xFF});
    EXPECT_FALSE(decode_stream_chunk(junk).has_value());
}

TEST(Mp3Decoder, SnrHelperBounds) {
    std::vector<double> a{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(snr_db(a, a, 0, 3), 300.0);
    std::vector<double> zeros{0.0, 0.0, 0.0};
    std::vector<double> junk{1.0, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(snr_db(zeros, junk, 0, 3), 0.0);
    EXPECT_THROW(snr_db(a, a, 2, 2), ContractViolation);
}

TEST(Mp3Decoder, StreamingModeLosesFramesGracefully) {
    // Heavy overflow in streaming mode: some frames skipped, the rest
    // still decode; decoded output stays the right length.
    FaultScenario s;
    s.p_overflow = 0.7;
    const auto run = run_codec(800, s, 4, /*skip_after=*/12);
    EXPECT_EQ(run.decoded.size(), 8u * 64u);
    EXPECT_LE(run.frames, 8u);
}

} // namespace
} // namespace snoc::apps
