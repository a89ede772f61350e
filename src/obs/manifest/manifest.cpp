#include "obs/manifest/manifest.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "obs/json.hpp"

namespace swiftest::obs::manifest {
namespace {

void append_value_object(std::string& out, const ValueList& values) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, key);
    out += ':';
    append_double(out, value);
  }
  out += '}';
}

constexpr JsonValue::Type kString = JsonValue::Type::kString;
constexpr JsonValue::Type kNumber = JsonValue::Type::kNumber;

}  // namespace

const ArtifactRecord* RunManifest::find_artifact(std::string_view name) const {
  for (const ArtifactRecord& artifact : artifacts) {
    if (artifact.name == name) return &artifact;
  }
  return nullptr;
}

const ValueList* RunManifest::find_summary(std::string_view layer) const {
  const auto it = summaries.find(std::string(layer));
  return it == summaries.end() ? nullptr : &it->second;
}

std::optional<std::string> RunManifest::config_value(std::string_view key) const {
  for (const auto& [config_key, value] : config) {
    if (config_key == key) return value;
  }
  return std::nullopt;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string content_hash(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint64_t hash = fnv1a64(bytes);
  std::string out = "fnv1a64:";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(hash >> shift) & 0xf];
  }
  return out;
}

std::optional<ArtifactRecord> artifact_from_file(const std::string& name,
                                                 const std::string& path,
                                                 std::string* error) {
  const std::optional<std::string> content = read_file(path, error);
  if (!content) return std::nullopt;
  ArtifactRecord record;
  record.name = name;
  record.path = path;
  record.bytes = content->size();
  record.rows = static_cast<std::uint64_t>(
      std::count(content->begin(), content->end(), '\n'));
  record.hash = content_hash(*content);
  return record;
}

void write_manifest_jsonl(const RunManifest& manifest, std::ostream& out) {
  std::string line;
  line.reserve(256);

  line = "{\"type\":\"manifest\",\"version\":";
  append_u64(line, static_cast<std::uint64_t>(manifest.version));
  line += ",\"tool\":";
  append_json_string(line, manifest.tool);
  line += ",\"command\":";
  append_json_string(line, manifest.command);
  line += ",\"build\":";
  append_json_string(line, manifest.build);
  line += "}\n";
  out << line;

  for (const auto& [key, value] : manifest.config) {
    line = "{\"type\":\"config\",\"key\":";
    append_json_string(line, key);
    line += ",\"value\":";
    append_json_string(line, value);
    line += "}\n";
    out << line;
  }

  for (const ArtifactRecord& artifact : manifest.artifacts) {
    line = "{\"type\":\"artifact\",\"name\":";
    append_json_string(line, artifact.name);
    line += ",\"path\":";
    append_json_string(line, artifact.path);
    line += ",\"bytes\":";
    append_u64(line, artifact.bytes);
    line += ",\"rows\":";
    append_u64(line, artifact.rows);
    line += ",\"hash\":";
    append_json_string(line, artifact.hash);
    line += "}\n";
    out << line;
  }

  for (const auto& [layer, values] : manifest.summaries) {
    line = "{\"type\":\"summary\",\"layer\":";
    append_json_string(line, layer);
    line += ",\"values\":";
    append_value_object(line, values);
    line += "}\n";
    out << line;
  }

  for (const auto& [name, value] : manifest.bench) {
    line = "{\"type\":\"bench\",\"name\":";
    append_json_string(line, name);
    line += ",\"value\":";
    append_double(line, value);
    line += "}\n";
    out << line;
  }

  for (const SloVerdict& slo : manifest.slos) {
    line = "{\"type\":\"slo\",\"name\":";
    append_json_string(line, slo.name);
    line += ",\"dimension\":";
    append_json_string(line, slo.dimension);
    line += ",\"stat\":";
    append_json_string(line, slo.stat);
    line += ",\"observed\":";
    append_double(line, slo.observed);
    line += ",\"status\":";
    append_json_string(line, slo.status);
    line += "}\n";
    out << line;
  }

  for (const auto& [key, value] : manifest.host) {
    line = "{\"type\":\"host\",\"key\":";
    append_json_string(line, key);
    line += ",\"value\":";
    append_double(line, value);
    line += "}\n";
    out << line;
  }
}

std::optional<RunManifest> parse_manifest_jsonl(std::string_view text,
                                                std::string* error) {
  RunManifest manifest;
  bool saw_header = false;
  const auto visit = [&](const JsonValue& line, std::string* why) {
    const std::string type = line.get_string("type", "");
    if (type == "manifest") {
      if (!require_fields(line, {{"version", kNumber}, {"tool", kString},
                                 {"command", kString}, {"build", kString}}, why)) {
        return false;
      }
      saw_header = true;
      manifest.version = static_cast<int>(std::min<std::uint64_t>(
          line.get_u64("version", 0), std::numeric_limits<int>::max()));
      manifest.tool = line.get_string("tool", "");
      manifest.command = line.get_string("command", "");
      manifest.build = line.get_string("build", "");
    } else if (type == "config") {
      if (!require_fields(line, {{"key", kString}, {"value", kString}}, why)) return false;
      manifest.config.emplace_back(line.get_string("key", ""), line.get_string("value", ""));
    } else if (type == "artifact") {
      if (!require_fields(line, {{"name", kString}, {"path", kString}, {"bytes", kNumber},
                                 {"rows", kNumber}, {"hash", kString}}, why)) {
        return false;
      }
      manifest.artifacts.push_back({line.get_string("name", ""),
                                    line.get_string("path", ""),
                                    line.get_u64("bytes", 0), line.get_u64("rows", 0),
                                    line.get_string("hash", "")});
    } else if (type == "summary") {
      if (!require_fields(line, {{"layer", kString},
                                 {"values", JsonValue::Type::kObject}}, why)) {
        return false;
      }
      ValueList& list = manifest.summaries[line.get_string("layer", "")];
      for (const auto& [key, value] : line.get("values")->members()) {
        list.emplace_back(key, value.as_number());
      }
    } else if (type == "bench") {
      if (!require_fields(line, {{"name", kString}, {"value", kNumber}}, why)) return false;
      manifest.bench.emplace_back(line.get_string("name", ""), line.get_number("value", 0.0));
    } else if (type == "slo") {
      if (!require_fields(line, {{"name", kString}, {"dimension", kString},
                                 {"stat", kString}, {"observed", kNumber},
                                 {"status", kString}}, why)) {
        return false;
      }
      manifest.slos.push_back({line.get_string("name", ""),
                               line.get_string("dimension", ""),
                               line.get_string("stat", ""),
                               line.get_number("observed", 0.0),
                               line.get_string("status", "")});
    } else if (type == "host") {
      if (!require_fields(line, {{"key", kString}, {"value", kNumber}}, why)) return false;
      manifest.host.emplace_back(line.get_string("key", ""), line.get_number("value", 0.0));
    } else {
      *why = "unknown manifest record type \"" + type + "\"";
      return false;
    }
    return true;
  };
  if (!for_each_jsonl_object(text, visit, error)) return std::nullopt;
  if (!saw_header) {
    if (error != nullptr) *error = "missing \"manifest\" header line";
    return std::nullopt;
  }
  return manifest;
}

std::optional<RunManifest> load_manifest_file(const std::string& path,
                                              std::string* error) {
  return parse_file(path, error, parse_manifest_jsonl);
}

}  // namespace swiftest::obs::manifest
