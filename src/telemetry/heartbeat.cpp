#include "telemetry/heartbeat.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/expect.hpp"
#include "common/json.hpp"
#include "telemetry/metrics_registry.hpp"

namespace snoc {

namespace {

void write_fixed(std::ostream& os, double value) {
    std::ostringstream buf;
    buf.setf(std::ios::fixed);
    buf.precision(6);
    buf << value;
    os << buf.str();
}

std::uint64_t registry_rounds() {
    return MetricsRegistry::global().value(MetricId::EngineRoundsTotal);
}

} // namespace

void write_heartbeat(const HeartbeatRecord& record, std::ostream& os) {
    os << "{\"heartbeat\":1,\"schema\":\"snoc-heartbeat-v1\",\"seq\":"
       << record.seq << ",\"elapsed_s\":";
    write_fixed(os, record.elapsed_seconds);
    os << ",\"experiment\":" << json::quoted(record.experiment) << ",\"cells_done\":"
       << record.cells_done << ",\"cells_total\":" << record.cells_total
       << ",\"trials_done\":" << record.trials_done
       << ",\"trials_total\":" << record.trials_total
       << ",\"retries\":" << record.retries << ",\"cell_s\":";
    write_fixed(os, record.cell_seconds);
    os << ",\"eta_s\":";
    write_fixed(os, record.eta_seconds);
    os << ",\"rounds_total\":" << record.rounds_total
       << ",\"rounds_delta\":" << record.rounds_delta
       << ",\"postmortems\":" << record.postmortems
       << ",\"done\":" << (record.done ? "true" : "false") << "}\n";
}

std::vector<HeartbeatRecord> load_heartbeats(std::istream& is) {
    std::vector<HeartbeatRecord> records;
    std::string line;
    while (std::getline(is, line)) {
        if (json::field(line, "heartbeat") != "1") continue;
        // seq + trials_done are the load-bearing fields; a line missing
        // either (or holding a value its type cannot) is a torn write
        // and gets skipped.  Other fields keep their defaults.
        const auto seq = json::number_field<std::uint64_t>(line, "seq");
        const auto trials_done = json::number_field<std::size_t>(line, "trials_done");
        if (!seq || !trials_done) continue;
        HeartbeatRecord r;
        r.seq = *seq;
        r.trials_done = *trials_done;
        const auto read = [&line](const char* key, auto& out) {
            using T = std::remove_reference_t<decltype(out)>;
            out = json::number_field<T>(line, key).value_or(out);
        };
        read("elapsed_s", r.elapsed_seconds);
        if (auto v = json::string_field(line, "experiment")) r.experiment = *v;
        read("cells_done", r.cells_done);
        read("cells_total", r.cells_total);
        read("trials_total", r.trials_total);
        read("retries", r.retries);
        read("cell_s", r.cell_seconds);
        read("eta_s", r.eta_seconds);
        read("rounds_total", r.rounds_total);
        read("rounds_delta", r.rounds_delta);
        read("postmortems", r.postmortems);
        r.done = json::field(line, "done") == "true";
        records.push_back(std::move(r));
    }
    return records;
}

std::vector<HeartbeatRecord> load_heartbeats_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open()) return {};
    return load_heartbeats(is);
}

void render_top(const std::vector<HeartbeatRecord>& records, std::ostream& os) {
    if (records.empty()) {
        os << "snoc_top: no heartbeats yet\n";
        return;
    }
    const HeartbeatRecord& r = records.back();
    os << "sweep " << (r.experiment.empty() ? "?" : r.experiment)
       << (r.done ? "  [done]" : "  [running]") << '\n';

    const auto bar = [&](std::size_t done, std::size_t total) {
        constexpr std::size_t kWidth = 30;
        const std::size_t fill =
            total == 0 ? 0 : std::min(kWidth, done * kWidth / total);
        os << '[';
        for (std::size_t i = 0; i < kWidth; ++i) os << (i < fill ? '#' : '.');
        os << "] " << done << '/' << total;
    };
    os << "  cells  ";
    bar(r.cells_done, r.cells_total);
    os << '\n';
    os << "  trials ";
    bar(r.trials_done, r.trials_total);
    if (r.retries > 0) os << "  (+" << r.retries << " retries)";
    os << '\n';

    std::ostringstream nums;
    nums.setf(std::ios::fixed);
    nums.precision(1);
    nums << "  elapsed " << r.elapsed_seconds << "s";
    if (!r.done && r.eta_seconds >= 0.0) nums << "  eta " << r.eta_seconds << "s";
    if (r.cell_seconds >= 0.0) nums << "  last cell " << r.cell_seconds << "s";
    os << nums.str() << '\n';

    std::ostringstream rate;
    rate.setf(std::ios::fixed);
    rate.precision(0);
    rate << "  rounds " << r.rounds_total;
    if (records.size() >= 2) {
        const HeartbeatRecord& prev = records[records.size() - 2];
        const double dt = r.elapsed_seconds - prev.elapsed_seconds;
        if (dt > 0.0)
            rate << "  (" << static_cast<double>(r.rounds_delta) / dt
                 << " rounds/s)";
    }
    os << rate.str() << '\n';
    if (r.postmortems > 0)
        os << "  !! " << r.postmortems << " postmortem bundle"
           << (r.postmortems == 1 ? "" : "s") << " written\n";
}

HeartbeatWriter::HeartbeatWriter(const std::string& path, std::size_t every_n)
    : os_(path, std::ios::binary | std::ios::trunc),
      every_n_(every_n),
      start_(std::chrono::steady_clock::now()) {
    SNOC_EXPECT(os_.is_open());
    last_rounds_ = registry_rounds();
}

HeartbeatWriter::~HeartbeatWriter() = default;

std::uint64_t HeartbeatWriter::emitted() const {
    LockGuard lock(mutex_);
    return seq_;
}

void HeartbeatWriter::update(const ProgressUpdate& update) {
    LockGuard lock(mutex_);
    const bool boundary = update.sweep_done || update.cell_seconds >= 0.0;
    const bool on_cadence = every_n_ > 0 && update.trials_done > 0 &&
                            update.trials_done % every_n_ == 0;
    if (!boundary && !on_cadence) return;
    emit_locked(update);
}

void HeartbeatWriter::emit_locked(const ProgressUpdate& update) {
    auto& reg = MetricsRegistry::global();
    HeartbeatRecord r;
    r.seq = ++seq_;
    r.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    r.experiment = update.experiment;
    r.cells_total = update.cells_total;
    r.cells_done = update.cells_done;
    r.trials_total = update.trials_total;
    r.trials_done = update.trials_done;
    r.retries = update.retries;
    r.cell_seconds = update.cell_seconds;
    if (!update.sweep_done && update.trials_done > 0 &&
        update.trials_total > update.trials_done)
        r.eta_seconds = r.elapsed_seconds *
                        static_cast<double>(update.trials_total -
                                            update.trials_done) /
                        static_cast<double>(update.trials_done);
    r.rounds_total = registry_rounds();
    r.rounds_delta = r.rounds_total - last_rounds_;
    last_rounds_ = r.rounds_total;
    r.postmortems = reg.value(MetricId::PostmortemsTotal);
    r.done = update.sweep_done;
    write_heartbeat(r, os_);
    os_.flush();
    reg.inc(MetricId::HeartbeatsTotal);
}

} // namespace snoc
