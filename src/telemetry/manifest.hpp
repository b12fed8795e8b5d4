// Run manifests: a small JSON file written next to every exported
// artifact so no result is ever unattributable.  It records what produced
// the artifact (program, experiment, backend), how to reproduce it (full
// config echo, seeds, repeats, jobs) and what code produced it (git SHA,
// SNOC_CHECK level) — everything needed to regenerate or disqualify a
// figure months later.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace snoc {

struct RunManifest {
    std::string program;    ///< binary / bench that ran (e.g. "fig4_4").
    std::string experiment; ///< ExperimentSpec name or scenario label.
    std::string backend;    ///< interconnect backend name, if one applies.
    std::uint64_t base_seed{0};
    std::size_t repeats{1};
    std::size_t jobs{0};
    /// Config echo, key -> value, in insertion order (GossipConfig fields,
    /// FaultScenario description, sweep axes, ...).
    std::vector<std::pair<std::string, std::string>> config;
    /// Paths of the artifacts this manifest attributes.
    std::vector<std::string> artifacts;
};

/// The manifest as a JSON document (schema_version, provenance fields —
/// git SHA captured at configure time, SNOC_CHECK_LEVEL — then the echo).
std::string manifest_json(const RunManifest& manifest);

void write_manifest(const RunManifest& manifest, std::ostream& os);
void write_manifest(const RunManifest& manifest, const std::string& path);

/// The git SHA baked into this build ("unknown" outside a git checkout).
const char* build_git_sha();

/// `path` with its extension (as extension_pos splits it) replaced by
/// ".manifest.json" ("out/run.jsonl" -> "out/run.manifest.json";
/// "./trace" -> "./trace.manifest.json").
std::string manifest_path_for(const std::string& artifact_path);

} // namespace snoc
