#include "apps/mp3_app.hpp"

#include <memory>

#include "apps/bitstream.hpp"
#include "apps/payload.hpp"
#include "common/expect.hpp"

namespace snoc::apps {

namespace {

std::vector<std::byte> encode_samples(std::uint32_t frame, const std::vector<double>& v) {
    PayloadWriter w;
    w.put<std::uint32_t>(frame);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
    for (double x : v) w.put_f32(x);
    return w.take();
}

std::pair<std::uint32_t, std::vector<double>> decode_samples(
    std::span<const std::byte> payload) {
    PayloadReader r(payload);
    const auto frame = r.get<std::uint32_t>();
    const auto n = r.get<std::uint32_t>();
    std::vector<double> v(n);
    for (auto& x : v) x = r.get_f32();
    return {frame, std::move(v)};
}

/// Streaming mode's patience with a stage's head-of-line frame: stale()
/// turns true once the same head has waited skip_after_rounds, and never
/// when that is 0 (strict in-order mode).  The stage calls advanced()
/// whenever its head frame changes.
class HeadTimer {
public:
    explicit HeadTimer(Round skip_after) : skip_after_(skip_after) {}

    bool stale(Round now) {
        if (skip_after_ == 0) return false;
        if (!since_) {
            since_ = now;
            return false;
        }
        return now - *since_ >= skip_after_;
    }
    void advanced() { since_.reset(); }

private:
    Round skip_after_;
    std::optional<Round> since_;
};

// --------------------------------------------------------------------------
class AcquisitionIp final : public IpCore {
public:
    AcquisitionIp(const Mp3Config& config, const Mp3Deployment& map, std::uint64_t seed)
        : config_(config), map_(map), generator_(AudioParams{}, seed),
          history_(config.frame_samples, 0.0) {}

    void on_round(TileContext& ctx) override {
        if (next_frame_ >= config_.frame_count) return;
        if (ctx.round() % config_.frame_interval != 0) return;
        const auto fresh = generator_.frame(config_.frame_samples);
        // MDCT sees the 2n lapped window (previous frame + this frame).
        std::vector<double> window = history_;
        window.insert(window.end(), fresh.begin(), fresh.end());
        ctx.send(map_.mdct, kPcmWindowTag,
                 encode_samples(static_cast<std::uint32_t>(next_frame_), window));
        // The psychoacoustic model sees the new samples only.
        ctx.send(map_.psycho, kPcmFrameTag,
                 encode_samples(static_cast<std::uint32_t>(next_frame_), fresh));
        history_ = fresh;
        ++next_frame_;
    }

    void on_message(const Message&, TileContext&) override {}

private:
    Mp3Config config_;
    Mp3Deployment map_;
    ToneGenerator generator_;
    std::vector<double> history_;
    std::size_t next_frame_{0};
};

// --------------------------------------------------------------------------
class MdctIp final : public IpCore {
public:
    MdctIp(const Mp3Config& config, const Mp3Deployment& map)
        : map_(map), mdct_(config.frame_samples) {}

    void on_message(const Message& message, TileContext& ctx) override {
        if (message.tag != kPcmWindowTag) return;
        auto [frame, window] = decode_samples(message.payload);
        const auto coeffs = mdct_.forward(window);
        ctx.send(map_.encoder, kSpectrumTag, encode_samples(frame, coeffs));
    }

private:
    Mp3Deployment map_;
    Mdct mdct_;
};

// --------------------------------------------------------------------------
class PsychoIp final : public IpCore {
public:
    PsychoIp(const Mp3Config& config, const Mp3Deployment& map)
        : map_(map) {
        params_.band_count = config.band_count;
    }

    void on_message(const Message& message, TileContext& ctx) override {
        if (message.tag != kPcmFrameTag) return;
        auto [frame, pcm] = decode_samples(message.payload);
        const auto analysis = analyze_frame(pcm, params_);
        PayloadWriter w;
        w.put<std::uint32_t>(frame);
        w.put<std::uint32_t>(static_cast<std::uint32_t>(params_.band_count));
        for (double e : analysis.band_energy) w.put_f32(e);
        for (double t : analysis.band_threshold) w.put_f32(t);
        ctx.send(map_.encoder, kMaskTag, w.take());
    }

private:
    Mp3Deployment map_;
    PsychoParams params_;
};

// --------------------------------------------------------------------------
// Encodes frames strictly in frame order: the bit reservoir settles each
// frame's bits before the next frame's budget is read, so the coded
// stream must not depend on the order the inputs arrive in.  In streaming
// mode a head frame whose inputs stay incomplete for skip_after_rounds is
// abandoned, as the reservoir stage does, so a lost input cannot stall
// the frames behind it.
class EncoderIp final : public IpCore {
public:
    EncoderIp(const Mp3Config& config, const Mp3Deployment& map)
        : config_(config), map_(map),
          quantizer_(band_of_lines(config.frame_samples, config.band_count),
                     config.band_count),
          reservoir_(config.reservoir_capacity), head_(config.skip_after_rounds) {}

    void on_message(const Message& message, TileContext& ctx) override {
        if (message.tag == kSpectrumTag) {
            auto [frame, coeffs] = decode_samples(message.payload);
            if (frame < next_frame_) return; // abandoned
            pending_[frame].coeffs = std::move(coeffs);
        } else if (message.tag == kMaskTag) {
            PayloadReader r(message.payload);
            const auto frame = r.get<std::uint32_t>();
            if (frame < next_frame_) return; // abandoned
            const auto bands = r.get<std::uint32_t>();
            PsychoAnalysis a;
            a.band_energy.resize(bands);
            a.band_threshold.resize(bands);
            for (auto& e : a.band_energy) e = r.get_f32();
            for (auto& t : a.band_threshold) t = r.get_f32();
            pending_[frame].psycho = std::move(a);
        } else {
            return;
        }
        encode_ready(ctx);
    }

    void on_round(TileContext& ctx) override {
        if (next_frame_ >= config_.frame_count || !head_.stale(ctx.round())) return;
        pending_.erase(next_frame_);
        ++next_frame_;
        head_.advanced();
        encode_ready(ctx);
    }

private:
    struct Pending {
        std::optional<std::vector<double>> coeffs;
        std::optional<PsychoAnalysis> psycho;
    };

    /// Encode the head frame while both of its inputs are in.
    void encode_ready(TileContext& ctx) {
        for (auto it = pending_.find(next_frame_);
             it != pending_.end() && it->second.coeffs && it->second.psycho;
             it = pending_.find(next_frame_)) {
            encode(it->first, it->second, ctx);
            pending_.erase(it);
            ++next_frame_;
            head_.advanced();
        }
    }

    void encode(std::uint32_t frame, const Pending& in, TileContext& ctx) {
        const std::size_t budget = reservoir_.available(config_.frame_budget_bits);
        const auto q = quantizer_.quantize(*in.coeffs, *in.psycho, budget, frame);
        reservoir_.settle(config_.frame_budget_bits, q.coded_bits);

        auto [bytes, bits] = pack_lines(q.values);
        PayloadWriter w;
        w.put<std::uint32_t>(frame);
        w.put_f32(q.global_gain);
        w.put<std::uint32_t>(static_cast<std::uint32_t>(q.band_scale.size()));
        for (double s : q.band_scale) w.put_f32(s);
        w.put<std::uint32_t>(static_cast<std::uint32_t>(bits));
        w.put<std::uint32_t>(static_cast<std::uint32_t>(q.values.size()));
        for (std::byte b : bytes) w.put(b);
        ctx.send(map_.reservoir, kCodedTag, w.take());
    }

    Mp3Config config_;
    Mp3Deployment map_;
    IterativeQuantizer quantizer_;
    BitReservoir reservoir_;
    std::map<std::uint32_t, Pending> pending_;
    std::uint32_t next_frame_{0};
    HeadTimer head_;
};

// --------------------------------------------------------------------------
// Bitstream assembly: reorder coded frames, forward them in order to the
// Output tile.  In streaming mode a frame that stays missing for
// skip_after_rounds is abandoned (a skip marker is forwarded instead).
class ReservoirIp final : public IpCore {
public:
    ReservoirIp(const Mp3Config& config, const Mp3Deployment& map)
        : config_(config), map_(map), head_(config.skip_after_rounds) {}

    void on_message(const Message& message, TileContext& ctx) override {
        if (message.tag != kCodedTag) return;
        PayloadReader r(message.payload);
        const auto frame = r.get<std::uint32_t>();
        if (frame < next_frame_) return; // already skipped
        arrived_[frame] = std::vector<std::byte>(message.payload.begin(),
                                                 message.payload.end());
        flush(ctx);
    }

    void on_round(TileContext& ctx) override {
        flush(ctx);
        if (next_frame_ >= config_.frame_count || !head_.stale(ctx.round())) return;
        PayloadWriter w;
        w.put<std::uint32_t>(next_frame_);
        w.put<std::uint8_t>(1); // skip marker
        ctx.send(map_.output, kStreamTag, w.take());
        ++next_frame_;
        head_.advanced();
    }

private:
    void flush(TileContext& ctx) {
        auto it = arrived_.find(next_frame_);
        while (it != arrived_.end()) {
            PayloadWriter w;
            w.put<std::uint32_t>(next_frame_);
            w.put<std::uint8_t>(0); // data marker
            for (std::byte b : it->second) w.put(b);
            ctx.send(map_.output, kStreamTag, w.take());
            arrived_.erase(it);
            ++next_frame_;
            head_.advanced();
            it = arrived_.find(next_frame_);
        }
    }

    Mp3Config config_;
    Mp3Deployment map_;
    std::map<std::uint32_t, std::vector<std::byte>> arrived_;
    std::uint32_t next_frame_{0};
    HeadTimer head_;
};

} // namespace

// --------------------------------------------------------------------------
Mp3OutputIp::Mp3OutputIp(const Mp3Config& config) : config_(config) {}

void Mp3OutputIp::on_message(const Message& message, TileContext& ctx) {
    if (message.tag != kStreamTag) return;
    PayloadReader r(message.payload);
    (void)r.get<std::uint32_t>(); // frame index
    const auto skip = r.get<std::uint8_t>();
    if (skip != 0) {
        ++frames_skipped_;
    } else {
        ++frames_received_;
        const std::size_t chunk_bits = r.remaining() * 8;
        total_bits_ += chunk_bits;
        emission_log_.emplace_back(ctx.round(), total_bits_);
        chunks_.emplace_back(message.payload.begin(), message.payload.end());
    }
    if (complete() && !completion_round_) completion_round_ = ctx.round();
}

Mp3OutputIp& deploy_mp3(GossipNetwork& net, const Mp3Config& config,
                        const Mp3Deployment& map, std::uint64_t audio_seed) {
    SNOC_EXPECT((config.frame_samples & (config.frame_samples - 1)) == 0);
    SNOC_EXPECT(net.topology().node_count() >= 16);
    net.attach(map.acquisition,
               std::make_unique<AcquisitionIp>(config, map, audio_seed));
    net.attach(map.mdct, std::make_unique<MdctIp>(config, map));
    net.attach(map.psycho, std::make_unique<PsychoIp>(config, map));
    net.attach(map.encoder, std::make_unique<EncoderIp>(config, map));
    net.attach(map.reservoir, std::make_unique<ReservoirIp>(config, map));
    auto output = std::make_unique<Mp3OutputIp>(config);
    Mp3OutputIp& ref = *output;
    net.attach(map.output, std::move(output));
    return ref;
}

BitrateReport bitrate_report(const Mp3OutputIp& output, const Mp3Config& config,
                             Round total_rounds, double round_seconds,
                             Round window_rounds) {
    SNOC_EXPECT(round_seconds > 0.0);
    SNOC_EXPECT(window_rounds > 0);
    BitrateReport report;
    const double total_seconds = static_cast<double>(total_rounds) * round_seconds;
    if (total_seconds > 0.0)
        report.mean_bits_per_second =
            static_cast<double>(output.total_coded_bits()) / total_seconds;
    report.completion_fraction =
        static_cast<double>(output.frames_received()) /
        static_cast<double>(config.frame_count);

    // Windowed rates for the jitter (error bars of Fig. 4-11).
    if (total_rounds >= window_rounds) {
        std::vector<double> window_bits(total_rounds / window_rounds + 1, 0.0);
        std::size_t previous = 0;
        for (const auto& [round, cumulative] : output.emission_log()) {
            window_bits[round / window_rounds] +=
                static_cast<double>(cumulative - previous);
            previous = cumulative;
        }
        double mean = 0.0;
        for (double b : window_bits) mean += b;
        mean /= static_cast<double>(window_bits.size());
        double var = 0.0;
        for (double b : window_bits) var += (b - mean) * (b - mean);
        var /= static_cast<double>(window_bits.size());
        const double window_seconds = static_cast<double>(window_rounds) * round_seconds;
        report.jitter_bits_per_second = std::sqrt(var) / window_seconds;
    }
    return report;
}

} // namespace snoc::apps
