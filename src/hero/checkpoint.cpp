#include "hero/checkpoint.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "hero/hero_trainer.h"
#include "obs/obs.h"

namespace hero::core {

namespace {

std::string dims_string(const std::vector<std::size_t>& dims) {
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += ':';
    out += std::to_string(dims[i]);
  }
  return out;
}

// Minimal JSON string escaping for the values we write (shas, build types,
// shape strings — none of which should ever need it, but a manifest must
// stay parseable regardless).
void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

// Finds `"key": ` in `text` and returns the character offset of the value,
// or npos.
std::size_t value_offset(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return pos;
  pos += needle.size();
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n')) ++pos;
  return pos;
}

long long parse_int_field(const std::string& text, const std::string& key,
                          const std::string& dir) {
  const std::size_t pos = value_offset(text, key);
  if (pos == std::string::npos) {
    throw std::runtime_error("checkpoint manifest " + dir +
                             "/checkpoint.json is missing field \"" + key + "\"");
  }
  std::size_t end = pos;
  while (end < text.size() &&
         ((text[end] >= '0' && text[end] <= '9') || text[end] == '-')) {
    ++end;
  }
  if (end == pos) {
    throw std::runtime_error("checkpoint manifest " + dir +
                             "/checkpoint.json: field \"" + key +
                             "\" is not an integer");
  }
  return std::stoll(text.substr(pos, end - pos));
}

std::string parse_string_field(const std::string& text, const std::string& key,
                               const std::string& dir) {
  std::size_t pos = value_offset(text, key);
  if (pos == std::string::npos || pos >= text.size() || text[pos] != '"') {
    throw std::runtime_error("checkpoint manifest " + dir +
                             "/checkpoint.json is missing string field \"" + key +
                             "\"");
  }
  ++pos;
  std::string out;
  while (pos < text.size() && text[pos] != '"') {
    if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
    out += text[pos++];
  }
  return out;
}

// Reads an optional `"key": [0, 1, ...]` array of non-negative integers; an
// absent key yields an empty vector.
std::vector<int> parse_int_list_field(const std::string& text, const std::string& key,
                                      const std::string& dir) {
  std::vector<int> out;
  const std::size_t pos = value_offset(text, key);
  if (pos == std::string::npos) return out;
  const auto malformed = [&] {
    return std::runtime_error("checkpoint manifest " + dir +
                              "/checkpoint.json: field \"" + key +
                              "\" is not an integer array");
  };
  const std::size_t close = text.find(']', pos);
  if (pos >= text.size() || text[pos] != '[' || close == std::string::npos) {
    throw malformed();
  }
  std::istringstream items(text.substr(pos + 1, close - pos - 1));
  for (std::string item; std::getline(items, item, ',');) {
    std::istringstream in(item);
    int v = 0;
    if (!(in >> v) || v < 0) throw malformed();
    out.push_back(v);
  }
  return out;
}

}  // namespace

CheckpointManifest manifest_of(HeroTrainer& trainer) {
  CheckpointManifest m;
  const auto run = obs::default_manifest("checkpoint");
  m.git_sha = run.git_sha;
  m.build_type = run.build_type;
  m.learners = trainer.num_agents();
  m.num_options = kNumOptions;
  m.num_lanes = trainer.world().track().num_lanes();
  m.hl_obs_dim = static_cast<long long>(trainer.world().high_level_obs_dim());
  m.ll_obs_dim = static_cast<long long>(trainer.world().low_level_obs_dim());

  for (int i = 0; i < kNumOptions; ++i) {
    const Option o = option_from_index(i);
    if (!trainer.skills().has_agent(o)) continue;
    auto& skill = trainer.skills().agent(o);
    const std::string base = option_name(o);
    m.shapes[base + "_actor"] = dims_string(skill.policy().net().layer_dims());
    m.shapes[base + "_q1"] = dims_string(skill.critic1().layer_dims());
    m.shapes[base + "_q2"] = dims_string(skill.critic2().layer_dims());
  }
  for (int k = 0; k < trainer.num_agents(); ++k) {
    auto& agent = trainer.agent(k);
    const std::string base = "agent" + std::to_string(k);
    m.shapes[base + "_actor"] =
        dims_string(agent.high_level().actor().net().layer_dims());
    m.shapes[base + "_critic"] = dims_string(agent.high_level().critic().layer_dims());
    for (int j = 0; j < agent.opponents().num_opponents(); ++j) {
      m.shapes[base + "_opp" + std::to_string(j)] =
          dims_string(agent.opponents().net(j).layer_dims());
    }
    m.opponents_trusted.push_back(agent.opponents().prediction_ready() ? 1 : 0);
  }

  // Digest over the architecture only (not the build fields): two builds of
  // the same config produce the same digest.
  std::ostringstream canon;
  canon << "v" << m.format_version << " learners=" << m.learners
        << " options=" << m.num_options << " lanes=" << m.num_lanes
        << " hl=" << m.hl_obs_dim << " ll=" << m.ll_obs_dim;
  for (const auto& [name, shape] : m.shapes) canon << " " << name << "=" << shape;
  m.config_digest = obs::config_digest(canon.str());
  return m;
}

std::string manifest_to_json(const CheckpointManifest& m) {
  std::string out = "{\n";
  out += "  \"checkpoint_format\": " + std::to_string(m.format_version) + ",\n";
  out += "  \"git_sha\": \"";
  append_escaped(out, m.git_sha);
  out += "\",\n  \"build_type\": \"";
  append_escaped(out, m.build_type);
  out += "\",\n  \"config_digest\": \"";
  append_escaped(out, m.config_digest);
  out += "\",\n";
  out += "  \"learners\": " + std::to_string(m.learners) + ",\n";
  out += "  \"num_options\": " + std::to_string(m.num_options) + ",\n";
  out += "  \"num_lanes\": " + std::to_string(m.num_lanes) + ",\n";
  out += "  \"hl_obs_dim\": " + std::to_string(m.hl_obs_dim) + ",\n";
  out += "  \"ll_obs_dim\": " + std::to_string(m.ll_obs_dim) + ",\n";
  if (!m.opponents_trusted.empty()) {
    out += "  \"opponents_trusted\": [";
    for (std::size_t k = 0; k < m.opponents_trusted.size(); ++k) {
      if (k > 0) out += ", ";
      out += std::to_string(m.opponents_trusted[k]);
    }
    out += "],\n";
  }
  out += "  \"shapes\": {";
  bool first = true;
  for (const auto& [name, shape] : m.shapes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_escaped(out, name);
    out += "\": \"";
    append_escaped(out, shape);
    out += "\"";
  }
  out += "\n  }\n}\n";
  return out;
}

bool read_manifest(const std::string& dir, CheckpointManifest* out) {
  const std::string path = dir + "/checkpoint.json";
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  CheckpointManifest m;
  m.format_version = static_cast<int>(parse_int_field(text, "checkpoint_format", dir));
  m.git_sha = parse_string_field(text, "git_sha", dir);
  m.build_type = parse_string_field(text, "build_type", dir);
  m.config_digest = parse_string_field(text, "config_digest", dir);
  m.learners = static_cast<int>(parse_int_field(text, "learners", dir));
  m.num_options = static_cast<int>(parse_int_field(text, "num_options", dir));
  m.num_lanes = static_cast<int>(parse_int_field(text, "num_lanes", dir));
  m.hl_obs_dim = parse_int_field(text, "hl_obs_dim", dir);
  m.ll_obs_dim = parse_int_field(text, "ll_obs_dim", dir);
  m.opponents_trusted = parse_int_list_field(text, "opponents_trusted", dir);

  std::size_t pos = value_offset(text, "shapes");
  if (pos == std::string::npos || text[pos] != '{') {
    throw std::runtime_error("checkpoint manifest " + path +
                             " is missing the \"shapes\" object");
  }
  const std::size_t close = text.find('}', pos);
  if (close == std::string::npos) {
    throw std::runtime_error("checkpoint manifest " + path +
                             ": unterminated \"shapes\" object");
  }
  std::size_t cur = pos + 1;
  while (true) {
    const std::size_t q0 = text.find('"', cur);
    if (q0 == std::string::npos || q0 > close) break;
    const std::size_t q1 = text.find('"', q0 + 1);
    const std::size_t q2 = text.find('"', q1 + 1);
    const std::size_t q3 = text.find('"', q2 + 1);
    if (q3 == std::string::npos || q3 > close) {
      throw std::runtime_error("checkpoint manifest " + path +
                               ": malformed \"shapes\" entry");
    }
    m.shapes[text.substr(q0 + 1, q1 - q0 - 1)] = text.substr(q2 + 1, q3 - q2 - 1);
    cur = q3 + 1;
  }
  *out = m;
  return true;
}

void write_manifest(const std::string& dir, const CheckpointManifest& m) {
  const std::string path = dir + "/checkpoint.json";
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write checkpoint manifest " + path);
  }
  out << manifest_to_json(m);
  if (!out) {
    throw std::runtime_error("failed writing checkpoint manifest " + path);
  }
}

void validate_manifest(const CheckpointManifest& on_disk,
                       const CheckpointManifest& expected,
                       const std::string& dir) {
  std::ostringstream err;
  int problems = 0;
  const auto mismatch = [&](const std::string& what, const std::string& disk,
                            const std::string& want) {
    err << (problems++ ? "; " : "") << what << ": checkpoint has " << disk
        << ", this build expects " << want;
  };

  if (on_disk.format_version != expected.format_version) {
    mismatch("format version", std::to_string(on_disk.format_version),
             std::to_string(expected.format_version));
  }
  if (on_disk.learners != expected.learners) {
    mismatch("learners", std::to_string(on_disk.learners),
             std::to_string(expected.learners));
  }
  if (on_disk.num_options != expected.num_options) {
    mismatch("num_options", std::to_string(on_disk.num_options),
             std::to_string(expected.num_options));
  }
  if (on_disk.num_lanes != expected.num_lanes) {
    mismatch("num_lanes", std::to_string(on_disk.num_lanes),
             std::to_string(expected.num_lanes));
  }
  if (on_disk.hl_obs_dim != expected.hl_obs_dim) {
    mismatch("hl_obs_dim", std::to_string(on_disk.hl_obs_dim),
             std::to_string(expected.hl_obs_dim));
  }
  if (on_disk.ll_obs_dim != expected.ll_obs_dim) {
    mismatch("ll_obs_dim", std::to_string(on_disk.ll_obs_dim),
             std::to_string(expected.ll_obs_dim));
  }
  if (!on_disk.opponents_trusted.empty() &&
      on_disk.opponents_trusted.size() != static_cast<std::size_t>(on_disk.learners)) {
    mismatch("opponents_trusted entries",
             std::to_string(on_disk.opponents_trusted.size()),
             std::to_string(on_disk.learners) + " (one per learner)");
  }
  // Shapes: every component this build will load must exist on disk with the
  // same architecture. Extra on-disk components (e.g. a bigger run's agents)
  // already show up as a learner-count mismatch above.
  for (const auto& [name, shape] : expected.shapes) {
    auto it = on_disk.shapes.find(name);
    if (it == on_disk.shapes.end()) {
      err << (problems++ ? "; " : "") << "component \"" << name
          << "\" missing from checkpoint";
    } else if (it->second != shape) {
      mismatch("shape of \"" + name + "\"", it->second, shape);
    }
  }
  if (problems > 0) {
    throw std::runtime_error("checkpoint " + dir +
                             " is incompatible with this configuration (" +
                             err.str() + ")");
  }
}

CheckpointManifest load_checkpoint(HeroTrainer& trainer, const std::string& dir,
                                   bool* legacy) {
  const CheckpointManifest expected = manifest_of(trainer);
  CheckpointManifest on_disk;
  const bool has_manifest = read_manifest(dir, &on_disk);
  if (legacy != nullptr) *legacy = !has_manifest;
  if (has_manifest) validate_manifest(on_disk, expected, dir);
  trainer.load(dir);
  return has_manifest ? on_disk : expected;
}

namespace {

// "34:32:32:4" → {34, 32, 32, 4}; throws on anything else.
std::vector<std::size_t> parse_dims(const std::string& name,
                                    const std::string& s) {
  std::vector<std::size_t> dims;
  std::size_t value = 0;
  bool in_number = false;
  for (char ch : s) {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + static_cast<std::size_t>(ch - '0');
      in_number = true;
    } else if (ch == ':' && in_number) {
      dims.push_back(value);
      value = 0;
      in_number = false;
    } else {
      throw std::runtime_error("checkpoint manifest: malformed shape for \"" +
                               name + "\": \"" + s + "\"");
    }
  }
  if (in_number) dims.push_back(value);
  if (dims.size() < 2) {
    throw std::runtime_error("checkpoint manifest: malformed shape for \"" +
                             name + "\": \"" + s + "\"");
  }
  return dims;
}

// The hidden widths are every layer but the first (input) and last (output).
std::vector<std::size_t> hidden_of(const std::string& name,
                                   const std::string& shape) {
  const auto dims = parse_dims(name, shape);
  return {dims.begin() + 1, dims.end() - 1};
}

}  // namespace

void apply_manifest_geometry(const CheckpointManifest& m, HeroConfig* cfg) {
  for (const auto& [name, shape] : m.shapes) {
    if (name == "agent0_actor") {
      cfg->high.hidden = hidden_of(name, shape);
    } else if (name == "agent0_opp0") {
      cfg->opponent.hidden = hidden_of(name, shape);
    } else if (name.rfind("agent", 0) != 0 &&
               name.size() > 6 &&
               name.compare(name.size() - 6, 6, "_actor") == 0) {
      // A skill actor (e.g. "accelerate_actor") — all skills share one width.
      cfg->skill.sac.hidden = hidden_of(name, shape);
    }
  }
}

}  // namespace hero::core
