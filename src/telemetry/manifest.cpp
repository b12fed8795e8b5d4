#include "telemetry/manifest.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/expect.hpp"
#include "common/json.hpp"

#ifndef SNOC_GIT_SHA
#define SNOC_GIT_SHA "unknown"
#endif

namespace snoc {

const char* build_git_sha() { return SNOC_GIT_SHA; }

std::string manifest_json(const RunManifest& manifest) {
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema_version\": 1,\n";
    os << "  \"generator\": \"snoc\",\n";
    os << "  \"git_sha\": " << json::quoted(build_git_sha()) << ",\n";
    os << "  \"check_level\": " << SNOC_CHECK_LEVEL << ",\n";
    os << "  \"program\": " << json::quoted(manifest.program) << ",\n";
    os << "  \"experiment\": " << json::quoted(manifest.experiment) << ",\n";
    os << "  \"backend\": " << json::quoted(manifest.backend) << ",\n";
    os << "  \"base_seed\": " << manifest.base_seed << ",\n";
    os << "  \"repeats\": " << manifest.repeats << ",\n";
    os << "  \"jobs\": " << manifest.jobs << ",\n";
    os << "  \"config\": {";
    for (std::size_t i = 0; i < manifest.config.size(); ++i) {
        os << (i ? ",\n    " : "\n    ");
        os << json::quoted(manifest.config[i].first) << ": "
           << json::quoted(manifest.config[i].second);
    }
    os << (manifest.config.empty() ? "},\n" : "\n  },\n");
    os << "  \"artifacts\": [";
    for (std::size_t i = 0; i < manifest.artifacts.size(); ++i) {
        os << (i ? ", " : "");
        os << json::quoted(manifest.artifacts[i]);
    }
    os << "]\n";
    os << "}\n";
    return os.str();
}

void write_manifest(const RunManifest& manifest, std::ostream& os) {
    os << manifest_json(manifest);
}

void write_manifest(const RunManifest& manifest, const std::string& path) {
    std::ofstream os(path, std::ios::binary);
    SNOC_EXPECT(os.is_open());
    write_manifest(manifest, os);
}

std::string manifest_path_for(const std::string& artifact_path) {
    return artifact_path.substr(0, extension_pos(artifact_path)) + ".manifest.json";
}

} // namespace snoc
